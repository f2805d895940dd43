package query

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/agg"
	"repro/internal/dataframe"
)

// compacted switches every eligible string column of a fresh table to
// code-backed storage and asserts at least one column actually compacted, so
// a sweep can never silently run raw-vs-raw.
func compacted(t *testing.T, tbl *dataframe.Table) *dataframe.Table {
	t.Helper()
	if n := tbl.Compact(); n == 0 {
		t.Fatal("Compact() compacted no columns; sweep would be vacuous")
	}
	return tbl
}

// TestDifferentialCompactStrings is the compact-storage contract: a table
// whose string columns are code-backed (no []string), queried with the SWAR
// kernels on (default) and off (DisableCompactStrings), must match a raw
// unencoded executor bit for bit — across mixed and NULL-heavy tables and
// morsel sizes {1, 7}.
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
			ref := NewExecutor(build(500, 102))
			ref.DisableDictEncoding = true
			want, err := ref.ExecuteBatch(qs, "feature")
			if err != nil {
				t.Fatal(err)
			}
			for _, morsel := range []int{1, 7, 0} {
				for _, disableSwar := range []bool{false, true} {
					tbl := compacted(t, build(500, 102))
					opts := []ExecutorOption{}
					if morsel > 0 {
						opts = append(opts, WithMorselRows(morsel))
					}
					e := NewExecutor(tbl, opts...)
					e.DisableCompactStrings = disableSwar
					got, err := e.ExecuteBatch(qs, "feature")
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("morsel=%d swar=%v", morsel, !disableSwar)
					for i, q := range qs {
						sameTable(t, label+" "+q.SQL("r"), got[i], want[i])
					}
					// In-domain work must leave the columns compact.
					for _, cn := range []string{"k2", "cat"} {
						if !tbl.Column(cn).IsCompact() {
							t.Errorf("%s: column %q lost compact storage during the batch", label, cn)
						}
					}
					st := e.Stats()
					if disableSwar {
						if st.SwarPredScans != 0 {
							t.Errorf("%s: SwarPredScans = %d, want 0 with the knob set", label, st.SwarPredScans)
						}
					} else if st.SwarPredScans == 0 {
						t.Errorf("%s: SwarPredScans = 0, want > 0 (narrow code columns present)", label)
					}
				}
			}
		})
	}
}

// TestDifferentialCompactDelta sweeps the PR 9 append modes over a COMPACT
// base table: in-domain deltas keep the columns compact; a dict-shifting or
// cap-crossing delta rematerialises the strings first and then follows the
// raw fallback — in every case results must equal a fresh raw executor over
// the concatenated rows.
func TestDifferentialCompactDelta(t *testing.T) {
	scenarios := []struct {
		name         string
		mode         string
		sizes        []int
		staysCompact bool // cat column still compact after the appends
	}{
		{"mixed", "mixed", []int{48, 1, 7}, true},
		{"null-heavy", "nulls", []int{7, 64}, true},
		{"dict-shift", "dictshift", []int{1, 7}, false},
		{"dict-cap", "dictcap", []int{1100}, false},
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			const nBase = 400
			seed := int64(1200)
			qs := deltaQueryPool(t, deltaTable(nBase, seed), 50, seed+1)

			base := compacted(t, deltaTable(nBase, seed))
			exDelta := NewExecutor(base, WithMorselRows(64))
			parts := []*dataframe.Table{deltaTable(nBase, seed)}

			check := func(round string) {
				got, err := exDelta.ExecuteBatch(qs, "feature")
				if err != nil {
					t.Fatalf("%s: %v", round, err)
				}
				ref, err := dataframe.Concat(parts...)
				if err != nil {
					t.Fatalf("%s: %v", round, err)
				}
				fresh := NewExecutor(ref, WithMorselRows(64))
				fresh.DisableDictEncoding = true
				want, err := fresh.ExecuteBatch(qs, "feature")
				if err != nil {
					t.Fatalf("%s: %v", round, err)
				}
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
			if got := base.Column("cat").IsCompact(); got != sc.staysCompact {
				t.Errorf("cat compact after %s appends = %v, want %v (rematerialise on dict fallback)",
					sc.mode, got, sc.staysCompact)
			}
			// k2 only ever sees in-domain values: compact throughout.
			if !base.Column("k2").IsCompact() {
				t.Error("k2 lost compact storage under in-domain appends")
			}
		})
	}
}

// TestDifferentialCompactConcat checks query results over spliced compact
// tables: concatenating compact parts sharing one domain keeps the output
// compact (code-splice fast path) and queries over it must match a raw
// executor over the same rows.
func TestDifferentialCompactConcat(t *testing.T) {
	partsRaw := []*dataframe.Table{
		largeRandomTable(300, 140),
		largeRandomTable(200, 141),
		largeRandomTable(100, 142),
	}
	var partsCompact []*dataframe.Table
	for i := range partsRaw {
		pc := compacted(t, largeRandomTable([]int{300, 200, 100}[i], int64(140+i)))
		partsCompact = append(partsCompact, pc)
	}
	refTbl, err := dataframe.Concat(partsRaw...)
	if err != nil {
		t.Fatal(err)
	}
	gotTbl, err := dataframe.Concat(partsCompact...)
	if err != nil {
		t.Fatal(err)
	}
	// Same 8-value cat domain in every seed: the splice fast path applies and
	// the output must still be compact.
	if !gotTbl.Column("cat").IsCompact() || !gotTbl.Column("k2").IsCompact() {
		t.Error("Concat of compact same-domain parts lost compact storage")
	}
	rng := rand.New(rand.NewSource(143))
	qs := randomPool(rng, 80)
	ref := NewExecutor(refTbl)
	ref.DisableDictEncoding = true
	want, err := ref.ExecuteBatch(qs, "feature")
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewExecutor(gotTbl).ExecuteBatch(qs, "feature")
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		sameTable(t, q.SQL("r"), got[i], want[i])
	}
}

// TestCompactStatsGolden pins the new counters on fixed workloads so the
// accounting cannot drift: every narrow code-kernel bitmap is a SWAR scan
// (SwarPredScans ⊆ CodePredScans), the knob zeroes it without touching
// CodePredScans, and a single-query COUNT is served with no value pass.
func TestCompactStatsGolden(t *testing.T) {
	qs := []Query{
		{Agg: agg.Count, AggAttr: "x", Keys: []string{"k2"},
			Preds: []Predicate{{Attr: "cat", Kind: PredEq, StrValue: "a"}}},
		{Agg: agg.Sum, AggAttr: "x", Keys: []string{"k2"},
			Preds: []Predicate{{Attr: "cat", Kind: PredEq, StrValue: "b"}}},
	}
	e := NewExecutor(compacted(t, largeRandomTable(300, 91)))
	if _, err := e.ExecuteBatch(qs, "feature"); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.CodePredScans != 2 || st.SwarPredScans != 2 {
		t.Errorf("CodePredScans/SwarPredScans = %d/%d, want 2/2 (cat is a uint8-lane column)",
			st.CodePredScans, st.SwarPredScans)
	}

	off := NewExecutor(compacted(t, largeRandomTable(300, 91)))
	off.DisableCompactStrings = true
	if _, err := off.ExecuteBatch(qs, "feature"); err != nil {
		t.Fatal(err)
	}
	sto := off.Stats()
	if sto.CodePredScans != 2 || sto.SwarPredScans != 0 {
		t.Errorf("knob executor CodePredScans/SwarPredScans = %d/%d, want 2/0",
			sto.CodePredScans, sto.SwarPredScans)
	}

	// Single-query COUNT: served from the plan's group counts
	// (CountOnlyQueries) with or without the knob, and identical to the
	// Query.Execute oracle.
	cq := Query{Agg: agg.Count, AggAttr: "x", Keys: []string{"k1"},
		Preds: []Predicate{{Attr: "cat", Kind: PredEq, StrValue: "c"}}}
	want, err := cq.Execute(compacted(t, largeRandomTable(300, 91)), "feature")
	if err != nil {
		t.Fatal(err)
	}
	for _, ex := range []*Executor{e, off} {
		before := ex.Stats().CountOnlyQueries
		got, err := ex.Execute(cq, "feature")
		if err != nil {
			t.Fatal(err)
		}
		if n := ex.Stats().CountOnlyQueries - before; n != 1 {
			t.Errorf("DisableCompactStrings=%v: CountOnlyQueries rose by %d, want 1", ex.DisableCompactStrings, n)
		}
		sameTable(t, cq.SQL("r"), got, want)
	}
}
