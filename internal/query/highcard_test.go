package query

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/agg"
	"repro/internal/dataframe"
)

// highCardTable builds rows over a string column "hc" with up to card
// distinct values (first seen in shuffled order, so codes are not in value
// order), a low-cardinality string "lc", an int key "k" and a float "x".
// hcPrefix lets a delta draw values absent from the base domain.
func highCardTable(n, card int, hcPrefix string, seed int64) *dataframe.Table {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(card)
	k := make([]int64, n)
	hc := make([]string, n)
	hcValid := make([]bool, n)
	lc := make([]string, n)
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		k[i] = int64(rng.Intn(30))
		hc[i] = fmt.Sprintf("%s%05d", hcPrefix, perm[i%card])
		hcValid[i] = rng.Intn(20) != 0
		lc[i] = []string{"p", "q", "r"}[rng.Intn(3)]
		x[i] = rng.NormFloat64()
	}
	return dataframe.MustNewTable(
		dataframe.NewIntColumn("k", k, nil),
		dataframe.NewStringColumn("hc", hc, hcValid),
		dataframe.NewStringColumn("lc", lc, nil),
		dataframe.NewFloatColumn("x", x, nil),
	)
}

// highCardQueries uses "hc" as predicate attribute (present, absent and
// delta-only operands), group-by key (alone and composite) and MODE /
// COUNT_DISTINCT / ENTROPY attribute.
func highCardQueries() []Query {
	eq := func(v string) []Predicate { return []Predicate{{Attr: "hc", Kind: PredEq, StrValue: v}} }
	var qs []Query
	for _, fn := range []agg.Func{agg.Mode, agg.CountDistinct, agg.Entropy} {
		qs = append(qs,
			Query{Agg: fn, AggAttr: "hc", Keys: []string{"k"}},
			Query{Agg: fn, AggAttr: "hc", Keys: []string{"lc"}, Preds: []Predicate{{Attr: "x", Kind: PredRange, HasLo: true, Lo: 0}}},
			Query{Agg: fn, AggAttr: "hc", Keys: []string{"k"}, Preds: eq("z00003")},
		)
	}
	qs = append(qs,
		Query{Agg: agg.Count, AggAttr: "x", Keys: []string{"k"}, Preds: eq("h00017")},
		Query{Agg: agg.Sum, AggAttr: "x", Keys: []string{"lc"}, Preds: eq("h01400")},
		Query{Agg: agg.Avg, AggAttr: "x", Keys: []string{"k"}, Preds: eq("z00001")}, // absent until the delta
		Query{Agg: agg.Sum, AggAttr: "x", Keys: []string{"hc"}},
		Query{Agg: agg.Count, AggAttr: "x", Keys: []string{"k", "hc"}, Preds: []Predicate{{Attr: "lc", Kind: PredEq, StrValue: "q"}}},
		Query{Agg: agg.Median, AggAttr: "x", Keys: []string{"hc", "lc"}},
	)
	return qs
}

// TestDifferentialStringHighCard runs a string column with more than 1024
// distinct values (the uint16 code lane, past the counting-sort bound)
// through predicates, group-by keys and string aggregates, before and after
// an append of values new to its domain, against the Query.Execute oracle.
func TestDifferentialStringHighCard(t *testing.T) {
	base := highCardTable(3000, 1500, "h", 301)
	if card := base.Column("hc").Dict().Cardinality(); card <= 1024 {
		t.Fatalf("hc cardinality %d, want > 1024", card)
	}
	qs := highCardQueries()
	ex := NewExecutor(base, WithMorselRows(256))
	parts := []*dataframe.Table{highCardTable(3000, 1500, "h", 301)}
	check := func(round string) {
		t.Helper()
		ref, err := dataframe.Concat(parts...)
		if err != nil {
			t.Fatal(err)
		}
		want := oracleBatch(t, ref, qs)
		got, err := ex.ExecuteBatch(qs, "feature")
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range qs {
			sameTable(t, round+" "+q.SQL("r"), got[i], want[i])
			one, err := ex.Execute(q, "feature")
			if err != nil {
				t.Fatal(err)
			}
			sameTable(t, round+" single "+q.SQL("r"), one, want[i])
		}
	}
	check("cold")
	check("warm")
	// The delta mixes "z" values (new, sorting after every "h" value) with
	// "g" values (new, sorting before them) and repeats of base values.
	for i, delta := range []*dataframe.Table{
		highCardTable(400, 50, "z", 302),
		highCardTable(300, 80, "g", 303),
		highCardTable(200, 1500, "h", 304),
	} {
		if err := ex.Append(delta); err != nil {
			t.Fatal(err)
		}
		parts = append(parts, delta)
		check(fmt.Sprintf("append %d", i))
	}
	if st := ex.Stats(); st.FullRebuilds != 0 || st.DeltaAppends != 3 {
		t.Errorf("FullRebuilds/DeltaAppends = %d/%d, want 0/3 (codes never shift)", st.FullRebuilds, st.DeltaAppends)
	}
}

// BenchmarkStringHighCard measures a cold batch over a 5000-value string
// column (predicates, group-by keys and MODE / COUNT_DISTINCT / ENTROPY on
// it) and reports queries/s and the table's resident bytes/row.
func BenchmarkStringHighCard(b *testing.B) {
	r := highCardTable(40000, 5000, "h", 311)
	qs := highCardQueries()
	total, _ := r.MemBytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewExecutor(r).ExecuteBatch(qs, "feature"); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(qs)*b.N)/b.Elapsed().Seconds(), "queries/s")
	b.ReportMetric(float64(total)/float64(r.NumRows()), "bytes/row")
}
