package query

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/agg"
	"repro/internal/dataframe"
)

// deltaTable builds the delta suite's base table: the differential schema plus
// a small-domain int column ("lvl", 0..9) so the narrow-code kernels and the
// counting-sort path participate in the append sweeps.
func deltaTable(n int, seed int64) *dataframe.Table {
	return deltaRows(n, seed, "base")
}

// deltaRows generates n rows of the delta schema. Modes shape the delta:
//
//	base       the mixed distribution the base table uses
//	mixed      same distribution (in-domain appends: stable dictionaries)
//	nulls      NULL-heavy x and cat
//	newgroups  unseen k1 values, ts and lvl beyond their observed domains
//	            (new groups; in-place narrow-code extension for lvl)
//	dictshift  a cat value sorting inside the existing dictionary domain
//	            (forces a re-encode: codes shift) and negative lvl values
//	            (code base shifts: full code-array re-derivation)
//	dictcap    over MaxDictCardinality distinct cat values (the dictionary
//	            drops) and lvl values crossing the uint8 code width
func deltaRows(n int, seed int64, mode string) *dataframe.Table {
	rng := rand.New(rand.NewSource(seed))
	k1 := make([]int64, n)
	k2 := make([]string, n)
	x := make([]float64, n)
	xValid := make([]bool, n)
	cat := make([]string, n)
	catValid := make([]bool, n)
	flag := make([]bool, n)
	ts := make([]int64, n)
	lvl := make([]int64, n)
	lvlValid := make([]bool, n)
	cats := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	for i := 0; i < n; i++ {
		k1[i] = int64(rng.Intn(20))
		k2[i] = cats[rng.Intn(3)]
		x[i] = rng.NormFloat64() * 100
		xValid[i] = rng.Float64() > 0.1
		cat[i] = cats[rng.Intn(len(cats))]
		catValid[i] = rng.Float64() > 0.1
		flag[i] = rng.Float64() > 0.5
		ts[i] = int64(rng.Intn(100000))
		lvl[i] = int64(rng.Intn(10))
		lvlValid[i] = rng.Float64() > 0.05
		switch mode {
		case "nulls":
			xValid[i] = rng.Float64() > 0.9
			catValid[i] = rng.Float64() > 0.9
			lvlValid[i] = rng.Float64() > 0.9
		case "newgroups":
			k1[i] = 100 + int64(rng.Intn(10))
			ts[i] = 200000 + int64(rng.Intn(1000))
			lvl[i] = 200 + int64(rng.Intn(10))
		case "dictshift":
			cat[i] = "a0" // sorts between "a" and "b": re-encode shifts codes
			lvl[i] = -5 + int64(rng.Intn(5))
		case "dictcap":
			cat[i] = fmt.Sprintf("v%04d", i)
			catValid[i] = true
			lvl[i] = 300 + int64(rng.Intn(700))
		}
	}
	return dataframe.MustNewTable(
		dataframe.NewIntColumn("k1", k1, nil),
		dataframe.NewStringColumn("k2", k2, nil),
		dataframe.NewFloatColumn("x", x, xValid),
		dataframe.NewStringColumn("cat", cat, catValid),
		dataframe.NewBoolColumn("flag", flag, nil),
		dataframe.NewTimeColumn("ts", ts, nil),
		dataframe.NewIntColumn("lvl", lvl, lvlValid),
	)
}

// deltaQueryPool decodes nq deterministic random queries over the delta
// schema, spanning every aggregation function, predicate kind and key subset.
func deltaQueryPool(t *testing.T, r *dataframe.Table, nq int, seed int64) []Query {
	t.Helper()
	tpl := Template{
		Funcs:     agg.All(),
		AggAttrs:  []string{"x", "cat", "ts", "lvl"},
		PredAttrs: []string{"cat", "flag", "x", "ts", "lvl"},
		Keys:      []string{"k1", "k2"},
	}
	s, err := BuildSpace(r, tpl, SpaceOptions{NumGridPoints: 5, MaxCategories: 6})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	qs := make([]Query, nq)
	for i := range qs {
		q, err := s.Decode(s.RandomVector(rng.Intn))
		if err != nil {
			t.Fatal(err)
		}
		qs[i] = q
	}
	return qs
}

// TestDeltaDifferential is the tentpole's enforcement: after every append, a
// delta-maintained executor, a full-rebuild executor (DisableDeltaMaintenance)
// and a from-scratch executor over the concatenated rows must return
// row-for-row identical batches. The sweep covers append sizes 1, 7, a
// morsel-boundary batch and a multi-morsel batch (morsel size 64), NULL-heavy
// deltas, deltas creating new groups and widening integer domains, a
// dictionary re-encode (mid-domain value) and a dictionary-cardinality-cap
// crossing.
func TestDeltaDifferential(t *testing.T) {
	scenarios := []struct {
		name  string
		mode  string
		sizes []int
	}{
		// Base 400 + 48 = 448 = 7×64: exactly morsel-aligned, then +1 starts
		// a fresh word and morsel, then a multi-morsel batch.
		{"mixed", "mixed", []int{48, 1, 7, 200}},
		{"null-heavy", "nulls", []int{7, 64}},
		{"new-groups", "newgroups", []int{1, 7, 64}},
		{"dict-shift", "dictshift", []int{1, 7}},
		{"dict-cap", "dictcap", []int{1100}},
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			const nBase = 400
			seed := int64(500)
			qs := deltaQueryPool(t, deltaTable(nBase, seed), 60, seed+1)

			exDelta := NewExecutor(deltaTable(nBase, seed), WithMorselRows(64))
			exFull := NewExecutor(deltaTable(nBase, seed), WithMorselRows(64))
			exFull.DisableDeltaMaintenance = true
			parts := []*dataframe.Table{deltaTable(nBase, seed)}

			check := func(round string) {
				got, err := exDelta.ExecuteBatch(qs, "feature")
				if err != nil {
					t.Fatalf("%s: delta: %v", round, err)
				}
				full, err := exFull.ExecuteBatch(qs, "feature")
				if err != nil {
					t.Fatalf("%s: full-rebuild: %v", round, err)
				}
				ref, err := dataframe.Concat(parts...)
				if err != nil {
					t.Fatalf("%s: %v", round, err)
				}
				fresh, err := NewExecutor(ref, WithMorselRows(64)).ExecuteBatch(qs, "feature")
				if err != nil {
					t.Fatalf("%s: fresh: %v", round, err)
				}
				for i, q := range qs {
					sameTable(t, fmt.Sprintf("%s delta-vs-fresh %s", round, q.SQL("r")), got[i], fresh[i])
					sameTable(t, fmt.Sprintf("%s full-vs-fresh %s", round, q.SQL("r")), full[i], fresh[i])
				}
			}

			check("cold")
			for bi, size := range sc.sizes {
				bseed := seed + 100 + int64(bi)
				if err := exDelta.Append(deltaRows(size, bseed, sc.mode)); err != nil {
					t.Fatal(err)
				}
				if err := exFull.Append(deltaRows(size, bseed, sc.mode)); err != nil {
					t.Fatal(err)
				}
				parts = append(parts, deltaRows(size, bseed, sc.mode))
				check(fmt.Sprintf("append %d (+%d rows)", bi, size))
				// A second batch on the advanced caches: served aggregate
				// state must equal freshly scanned state bit for bit.
				check(fmt.Sprintf("append %d warm", bi))
			}
			if exDelta.Stats().DeltaAppends != int64(len(sc.sizes)) {
				t.Errorf("delta executor absorbed %d appends, want %d",
					exDelta.Stats().DeltaAppends, len(sc.sizes))
			}
			if got := exFull.Stats().FullRebuilds; got < int64(len(sc.sizes)) {
				t.Errorf("full-rebuild executor counted %d rebuilds, want >= %d", got, len(sc.sizes))
			}
		})
	}
}

// TestDeltaAugmentDifferential covers the join/scatter side after appends: the
// training-table features a delta-advanced executor serves must be
// bit-identical to a from-scratch executor's, including groups that exist only
// in the delta (join misses before, hits after).
func TestDeltaAugmentDifferential(t *testing.T) {
	const nBase = 300
	seed := int64(700)
	qs := deltaQueryPool(t, deltaTable(nBase, seed), 40, seed+1)
	var k1 []int64
	var k2 []string
	for i := int64(0); i < 25; i++ {
		k1 = append(k1, i*5) // covers base groups and "newgroups" delta groups
		k2 = append(k2, []string{"a", "b", "c"}[i%3])
	}
	d := dataframe.MustNewTable(
		dataframe.NewIntColumn("k1", k1, nil),
		dataframe.NewStringColumn("k2", k2, nil),
	)
	ex := NewExecutor(deltaTable(nBase, seed), WithMorselRows(64))
	parts := []*dataframe.Table{deltaTable(nBase, seed)}
	if _, _, err := ex.AugmentValuesBatch(d, qs); err != nil {
		t.Fatal(err) // warm the caches pre-append
	}
	for bi, mode := range []string{"mixed", "newgroups", "nulls"} {
		bseed := seed + 50 + int64(bi)
		if err := ex.Append(deltaRows(40, bseed, mode)); err != nil {
			t.Fatal(err)
		}
		parts = append(parts, deltaRows(40, bseed, mode))
		vals, valid, err := ex.AugmentValuesBatch(d, qs)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := dataframe.Concat(parts...)
		if err != nil {
			t.Fatal(err)
		}
		wvals, wvalid, err := NewExecutor(ref, WithMorselRows(64)).AugmentValuesBatch(d, qs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range qs {
			for row := range wvals[i] {
				if valid[i][row] != wvalid[i][row] || vals[i][row] != wvals[i][row] {
					t.Fatalf("append %d: %s row %d = (%v, %v), fresh (%v, %v)",
						bi, qs[i].SQL("r"), row, vals[i][row], valid[i][row], wvals[i][row], wvalid[i][row])
				}
			}
		}
	}
}

// TestDeltaStatsGolden pins the delta counters on a deterministic scenario,
// and that a warm batch with no intervening append serves every aggregate from
// retained state (no new fused scans).
func TestDeltaStatsGolden(t *testing.T) {
	qs := []Query{
		{Agg: agg.Sum, AggAttr: "x", Keys: []string{"k1"}},
		{Agg: agg.Median, AggAttr: "x", Keys: []string{"k1"}},
	}
	ex := NewExecutor(deltaTable(256, 3), WithMorselRows(64))
	if _, err := ex.ExecuteBatch(qs, "f"); err != nil {
		t.Fatal(err)
	}
	cold := ex.Stats()
	if cold.DeltaAppends != 0 || cold.FullRebuilds != 0 || cold.DeltaRowsScanned != 0 {
		t.Fatalf("cold delta counters = %d/%d/%d, want 0/0/0",
			cold.DeltaAppends, cold.DeltaRowsScanned, cold.FullRebuilds)
	}
	if _, err := ex.ExecuteBatch(qs, "f"); err != nil {
		t.Fatal(err)
	}
	warm := ex.Stats()
	if warm.FusedScans != cold.FusedScans {
		t.Errorf("warm batch ran %d new fused scans, want 0 (served from retained state)",
			warm.FusedScans-cold.FusedScans)
	}
	if err := ex.Append(deltaRows(5, 99, "mixed")); err != nil {
		t.Fatal(err)
	}
	if _, err := ex.ExecuteBatch(qs, "f"); err != nil {
		t.Fatal(err)
	}
	s := ex.Stats()
	if s.DeltaAppends != 1 {
		t.Errorf("DeltaAppends = %d, want 1", s.DeltaAppends)
	}
	if s.FullRebuilds != 0 {
		t.Errorf("FullRebuilds = %d, want 0", s.FullRebuilds)
	}
	if s.DeltaRowsScanned == 0 {
		t.Error("DeltaRowsScanned = 0, want > 0 (plan and state advances visit delta rows)")
	}
	if s.DirtyGroupResorts == 0 {
		t.Error("DirtyGroupResorts = 0, want > 0 (median state re-sorts dirty groups)")
	}
	if s.FusedScans != warm.FusedScans {
		t.Errorf("post-append batch ran %d new fused scans, want 0 (state advanced in place)",
			s.FusedScans-warm.FusedScans)
	}

	exF := NewExecutor(deltaTable(256, 3), WithMorselRows(64))
	exF.DisableDeltaMaintenance = true
	if _, err := exF.ExecuteBatch(qs, "f"); err != nil {
		t.Fatal(err)
	}
	if err := exF.Append(deltaRows(5, 99, "mixed")); err != nil {
		t.Fatal(err)
	}
	if _, err := exF.ExecuteBatch(qs, "f"); err != nil {
		t.Fatal(err)
	}
	sf := exF.Stats()
	if sf.DeltaAppends != 1 || sf.FullRebuilds != 2 {
		t.Errorf("knob executor DeltaAppends/FullRebuilds = %d/%d, want 1/2 (core wipe + private wipe)",
			sf.DeltaAppends, sf.FullRebuilds)
	}
	if sf.DeltaRowsScanned != 0 || sf.DirtyGroupResorts != 0 {
		t.Errorf("knob executor scanned %d delta rows / %d resorts, want 0/0",
			sf.DeltaRowsScanned, sf.DirtyGroupResorts)
	}
}

// TestConcurrentAppendsVsScans races appends against in-flight shared scans:
// two executors over one scheduler-shared core run batches while the table
// grows underneath them through the epoch fence. Run under -race this is the
// fence's regression test; results after the dust settles must match a fresh
// executor over the final rows.
func TestConcurrentAppendsVsScans(t *testing.T) {
	const nBase = 500
	seed := int64(11)
	base := deltaTable(nBase, seed)
	qs := deltaQueryPool(t, base, 30, seed+1)
	sched := NewScanScheduler()
	ex1 := NewExecutor(base, WithScanScheduler(sched))
	ex2 := NewExecutor(base, WithScanScheduler(sched))

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, ex := range []*Executor{ex1, ex2} {
		ex := ex
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := ex.ExecuteBatch(qs, "f"); err != nil {
					t.Errorf("concurrent batch: %v", err)
					return
				}
			}
		}()
	}
	const nAppends = 8
	parts := []*dataframe.Table{deltaTable(nBase, seed)}
	for i := 0; i < nAppends; i++ {
		bseed := int64(100 + i)
		var err error
		if i%2 == 0 {
			err = sched.Append(base, deltaRows(37, bseed, "mixed"))
		} else {
			err = ex1.Append(deltaRows(37, bseed, "mixed"))
		}
		if err != nil {
			t.Error(err)
		}
		parts = append(parts, deltaRows(37, bseed, "mixed"))
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}
	ref, err := dataframe.Concat(parts...)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewExecutor(ref).ExecuteBatch(qs, "feature")
	if err != nil {
		t.Fatal(err)
	}
	for _, ex := range []*Executor{ex1, ex2} {
		got, err := ex.ExecuteBatch(qs, "feature")
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range qs {
			sameTable(t, "settled "+q.SQL("r"), got[i], want[i])
		}
	}
}
