package query

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/agg"
	"repro/internal/dataframe"
)

// oracleBatch evaluates every query through the Query.Execute reference
// oracle.
func oracleBatch(t *testing.T, r *dataframe.Table, qs []Query) []*dataframe.Table {
	t.Helper()
	out := make([]*dataframe.Table, len(qs))
	for i, q := range qs {
		res, err := q.Execute(r, "feature")
		if err != nil {
			t.Fatalf("oracle %s: %v", q.SQL("r"), err)
		}
		out[i] = res
	}
	return out
}

// TestDifferentialCompactStrings is the code-storage contract: string
// columns are dictionary codes (no []string), and the executor's code and
// word-parallel kernels must match the Query.Execute oracle bit for bit —
// across mixed and NULL-heavy tables and morsel sizes {1, 7, default}.
func TestDifferentialCompactStrings(t *testing.T) {
	builders := map[string]func(int, int64) *dataframe.Table{
		"mixed":     largeRandomTable,
		"nullheavy": nullHeavyTable,
	}
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(101))
			qs := randomPool(rng, 120)
			qs = append(qs,
				Query{Agg: agg.Median, AggAttr: "cat", Keys: []string{"k2"}},
				Query{Agg: agg.Mode, AggAttr: "cat", Keys: []string{"k2", "cat"}},
				Query{Agg: agg.CountDistinct, AggAttr: "cat", Keys: []string{"k1"}},
				Query{Agg: agg.Count, AggAttr: "x", Keys: []string{"k2"},
					Preds: []Predicate{{Attr: "cat", Kind: PredEq, StrValue: "a"}}},
			)
			want := oracleBatch(t, build(500, 102), qs)
			for _, morsel := range []int{1, 7, 0} {
				opts := []ExecutorOption{}
				if morsel > 0 {
					opts = append(opts, WithMorselRows(morsel))
				}
				e := NewExecutor(build(500, 102), opts...)
				got, err := e.ExecuteBatch(qs, "feature")
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("morsel=%d", morsel)
				for i, q := range qs {
					sameTable(t, label+" "+q.SQL("r"), got[i], want[i])
				}
				if e.Stats().SwarPredScans == 0 {
					t.Errorf("%s: SwarPredScans = 0, want > 0 (narrow code columns present)", label)
				}
			}
		})
	}
}

// TestDifferentialCompactDelta sweeps the append modes over a code-backed
// base table: in-domain, NULL-heavy, mid-domain and past-1024-values deltas
// must each leave every existing row's code unchanged, and results must equal
// the Query.Execute oracle over the concatenated rows.
func TestDifferentialCompactDelta(t *testing.T) {
	scenarios := []struct {
		name  string
		mode  string
		sizes []int
	}{
		{"mixed", "mixed", []int{48, 1, 7}},
		{"null-heavy", "nulls", []int{7, 64}},
		{"dict-shift", "dictshift", []int{1, 7}},
		{"dict-cap", "dictcap", []int{1100}},
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			const nBase = 400
			seed := int64(1200)
			qs := deltaQueryPool(t, deltaTable(nBase, seed), 50, seed+1)

			base := deltaTable(nBase, seed)
			exDelta := NewExecutor(base, WithMorselRows(64))
			parts := []*dataframe.Table{deltaTable(nBase, seed)}
			catCodes := slices.Clone(base.Column("cat").Dict().Codes())

			check := func(round string) {
				got, err := exDelta.ExecuteBatch(qs, "feature")
				if err != nil {
					t.Fatalf("%s: %v", round, err)
				}
				ref, err := dataframe.Concat(parts...)
				if err != nil {
					t.Fatalf("%s: %v", round, err)
				}
				want := oracleBatch(t, ref, qs)
				for i, q := range qs {
					sameTable(t, fmt.Sprintf("%s %s", round, q.SQL("r")), got[i], want[i])
				}
			}

			check("cold")
			for bi, size := range sc.sizes {
				bseed := seed + 100 + int64(bi)
				if err := exDelta.Append(deltaRows(size, bseed, sc.mode)); err != nil {
					t.Fatal(err)
				}
				parts = append(parts, deltaRows(size, bseed, sc.mode))
				check(fmt.Sprintf("append %d (+%d rows)", bi, size))
				check(fmt.Sprintf("append %d warm", bi))
			}
			if got := base.Column("cat").Dict().Codes()[:nBase]; !slices.Equal(got, catCodes) {
				t.Errorf("%s appends changed existing cat codes", sc.mode)
			}
		})
	}
}

// TestDifferentialCompactConcat checks query results over concatenated
// tables: parts built separately (each with its own first-seen code order)
// plus a Take of the first (sharing its domain, so its codes splice
// unchanged) must match the Query.Execute oracle over the same rows.
func TestDifferentialCompactConcat(t *testing.T) {
	first := largeRandomTable(300, 140)
	gotTbl, err := dataframe.Concat(first, largeRandomTable(200, 141), largeRandomTable(100, 142),
		first.Take([]int{299, 0, 150, 7}))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(143))
	qs := randomPool(rng, 80)
	want := oracleBatch(t, gotTbl, qs)
	got, err := NewExecutor(gotTbl).ExecuteBatch(qs, "feature")
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		sameTable(t, q.SQL("r"), got[i], want[i])
	}
}

// TestCompactStatsGolden pins the code-kernel counters on fixed workloads so
// the accounting cannot drift: every narrow code-kernel bitmap is a SWAR scan
// (SwarPredScans ⊆ CodePredScans), a string column wider than the uint16
// lane runs the scalar kernel, and a single-query COUNT is served with no
// value pass.
func TestCompactStatsGolden(t *testing.T) {
	qs := []Query{
		{Agg: agg.Count, AggAttr: "x", Keys: []string{"k2"},
			Preds: []Predicate{{Attr: "cat", Kind: PredEq, StrValue: "a"}}},
		{Agg: agg.Sum, AggAttr: "x", Keys: []string{"k2"},
			Preds: []Predicate{{Attr: "cat", Kind: PredEq, StrValue: "b"}}},
	}
	e := NewExecutor(largeRandomTable(300, 91))
	if _, err := e.ExecuteBatch(qs, "feature"); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.CodePredScans != 2 || st.SwarPredScans != 2 {
		t.Errorf("CodePredScans/SwarPredScans = %d/%d, want 2/2 (cat is a uint8-lane column)",
			st.CodePredScans, st.SwarPredScans)
	}

	// A 70000-value column keeps only its uint32 codes: the scalar kernel.
	n := 70000
	wide := make([]string, n)
	k := make([]int64, n)
	for i := range wide {
		wide[i] = fmt.Sprintf("w%05d", i)
		k[i] = int64(i % 7)
	}
	wt := dataframe.MustNewTable(dataframe.NewIntColumn("k", k, nil), dataframe.NewStringColumn("w", wide, nil))
	wq := Query{Agg: agg.Count, AggAttr: "w", Keys: []string{"k"},
		Preds: []Predicate{{Attr: "w", Kind: PredEq, StrValue: "w06999"}}}
	we := NewExecutor(wt)
	got, err := we.Execute(wq, "feature")
	if err != nil {
		t.Fatal(err)
	}
	if st := we.Stats(); st.CodePredScans != 1 || st.SwarPredScans != 0 {
		t.Errorf("wide column CodePredScans/SwarPredScans = %d/%d, want 1/0", st.CodePredScans, st.SwarPredScans)
	}
	sameTable(t, wq.SQL("r"), got, oracleBatch(t, wt, []Query{wq})[0])

	// Single-query COUNT: served from the plan's group counts
	// (CountOnlyQueries), and identical to the Query.Execute oracle.
	cq := Query{Agg: agg.Count, AggAttr: "x", Keys: []string{"k1"},
		Preds: []Predicate{{Attr: "cat", Kind: PredEq, StrValue: "c"}}}
	before := e.Stats().CountOnlyQueries
	got, err = e.Execute(cq, "feature")
	if err != nil {
		t.Fatal(err)
	}
	if n := e.Stats().CountOnlyQueries - before; n != 1 {
		t.Errorf("CountOnlyQueries rose by %d, want 1", n)
	}
	sameTable(t, cq.SQL("r"), got, oracleBatch(t, largeRandomTable(300, 91), []Query{cq})[0])
}
