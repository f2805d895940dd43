package query

import (
	"testing"

	"repro/internal/agg"
	"repro/internal/dataframe"
)

// servingBenchPool is the PR 5 acceptance workload: the same 200-query /
// 20-mask pool shape as BENCH_3's fusedBenchPool, but with a serving-shaped
// training table — 4× the relevant table instead of 1/8th — so the train-side
// scatter dominates the way it does when a fitted plan serves feature
// batches over a large training table.
func servingBenchPool(nQueries, nRows int) (*dataframe.Table, *dataframe.Table, []Query) {
	r, _, qs := fusedBenchPool(nQueries, nRows)
	d := largeRandomTable(nRows*4, 98)
	return r, d, qs
}

// BenchmarkServingScatterFused measures the plan-group-shared scatter on a
// cold executor each iteration: one dgToLocal mapping and one pass over the
// training table per plan group, every column written in the same loop.
func BenchmarkServingScatterFused(b *testing.B) {
	r, d, qs := servingBenchPool(200, 2400)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex := NewExecutor(r, WithJoinCache(NewJoinCache()))
		if _, _, err := ex.AugmentValuesBatch(d, qs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(qs)*b.N)/b.Elapsed().Seconds(), "queries/s")
}

// BenchmarkServingMatrixFused is the columnar bulk variant: the same fused
// scatter, landing in one flat FeatureMatrix allocation.
func BenchmarkServingMatrixFused(b *testing.B) {
	r, d, qs := servingBenchPool(200, 2400)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex := NewExecutor(r, WithJoinCache(NewJoinCache()))
		if _, err := ex.AugmentMatrix(d, qs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(qs)*b.N)/b.Elapsed().Seconds(), "queries/s")
}

// lowCardSortPool sweeps the sort-served aggregates over low-cardinality
// attributes under the bench masks — the shape where the fused profile is
// dominated by the shared per-group sort.
func lowCardSortPool(nRows int) (*dataframe.Table, []Query) {
	r := lowCardTable(nRows, 97)
	funcs := []agg.Func{agg.Median, agg.MAD, agg.Mode, agg.Entropy, agg.CountDistinct}
	attrs := []string{"code", "cat", "flag"}
	masks := [][]Predicate{
		nil,
		{{Attr: "code", Kind: PredRange, HasLo: true, Lo: 0}},
		{{Attr: "cat", Kind: PredEq, StrValue: "red"}},
		{{Attr: "code", Kind: PredRange, HasHi: true, Hi: 8}},
	}
	var qs []Query
	for _, m := range masks {
		for _, a := range attrs {
			for _, fn := range funcs {
				qs = append(qs, Query{Agg: fn, AggAttr: a, Keys: []string{"k1"}, Preds: m})
			}
		}
	}
	return r, qs
}

// BenchmarkSortCounting measures the counting/bucket path on low-cardinality
// domains (small-int, categorical, bool).
func BenchmarkSortCounting(b *testing.B) {
	r, qs := lowCardSortPool(8000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex := NewExecutor(r)
		if _, err := ex.ExecuteBatch(qs, "f"); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(qs)*b.N)/b.Elapsed().Seconds(), "queries/s")
}

// BenchmarkSortGeneric is the same workload through the comparison sort
// (DisableCountingSort) — the PR 3 behaviour.
func BenchmarkSortGeneric(b *testing.B) {
	r, qs := lowCardSortPool(8000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex := NewExecutor(r)
		ex.DisableCountingSort = true
		if _, err := ex.ExecuteBatch(qs, "f"); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(qs)*b.N)/b.Elapsed().Seconds(), "queries/s")
}
