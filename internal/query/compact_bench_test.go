package query

import (
	"math/rand"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/dataframe"
	"repro/internal/datagen"
)

// compactBenchPool is the BENCH_10 workload: the BENCH_8 string-predicate
// pool with half the aggregates switched to filtered COUNTs (the paper's
// headline query shape — COUNT WHERE pred GROUP BY key). Seeds are fixed so
// snapshots are comparable across commits.
func compactBenchPool(nQueries, nRows int) (*dataframe.Table, []Query) {
	r, qs := dictBenchPool(nQueries, nRows)
	// Scan-bound aggregates only: filtered COUNTs and numeric reductions.
	// BENCH_8 already covers the string-aggregation mix; BENCH_10 measures
	// the predicate/scan side the SWAR kernels accelerate.
	numAggs := []agg.Func{agg.Sum, agg.Avg, agg.Max, agg.Std}
	for i := range qs {
		if i%2 == 0 {
			qs[i].Agg, qs[i].AggAttr = agg.Count, "x"
		} else {
			qs[i].Agg, qs[i].AggAttr = numAggs[(i/2)%len(numAggs)], "x"
		}
	}
	return r, qs
}

// BenchmarkStringHeavyCompactSwar is the BENCH_10 headline: code storage
// with the word-parallel kernels, a cold executor per iteration. String
// equalities resolve 8 (uint8 lanes) or 4 (uint16 lanes) rows per 64-bit
// word and filtered COUNTs come straight out of the plan's group counts.
func BenchmarkStringHeavyCompactSwar(b *testing.B) {
	compact, qs := compactBenchPool(200, 2400)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex := NewExecutor(compact)
		if _, err := ex.ExecuteBatch(qs, "feature"); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(qs)*b.N)/b.Elapsed().Seconds(), "queries/s")
}

// BenchmarkSwarKernelSpeedup pins the kernels themselves on a 2²⁰-code
// array, scalar and SWAR timed back to back: equality and range tests over
// both lane widths. These ratios are what the word-parallel rewrite buys
// before executor overheads dilute it (~3.4× on the 8-lane equality path).
func BenchmarkSwarKernelSpeedup(b *testing.B) {
	const n = 1 << 20
	rng := rand.New(rand.NewSource(205))
	c8 := make([]uint8, n)
	c16 := make([]uint16, n)
	for i := range c8 {
		c8[i] = uint8(rng.Intn(256))
		c16[i] = uint16(rng.Intn(65536))
	}
	vb := make([]uint64, n/64)
	for i := range vb {
		vb[i] = rng.Uint64()
	}
	bm := make([]uint64, n/64)
	var tS8, tC8, tS16, tC16, tR8, tRC8 time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		swarEqBits8(c8, vb, 42, bm)
		tS8 += time.Since(t0)
		t1 := time.Now()
		eqCodeBits(c8, vb, 42, bm)
		tC8 += time.Since(t1)
		t2 := time.Now()
		swarEqBits16(c16, vb, 300, bm)
		tS16 += time.Since(t2)
		t3 := time.Now()
		eqCodeBits(c16, vb, 300, bm)
		tC16 += time.Since(t3)
		t4 := time.Now()
		swarRangeBits8(c8, vb, 10, 200, bm)
		tR8 += time.Since(t4)
		t5 := time.Now()
		rangeCodeBits(c8, vb, 10, 200, bm)
		tRC8 += time.Since(t5)
	}
	if tS8 > 0 {
		b.ReportMetric(tC8.Seconds()/tS8.Seconds(), "speedup_eq8")
		b.ReportMetric(tC16.Seconds()/tS16.Seconds(), "speedup_eq16")
		b.ReportMetric(tRC8.Seconds()/tR8.Seconds(), "speedup_range8")
		b.ReportMetric(float64(n)*float64(b.N)/tS8.Seconds()/1e9, "swar_eq8_grows/s")
	}
}

// stringHeavyQueries is the filtered-COUNT batch the datagen scenario plants
// its signal for, plus spend aggregates over the same masks.
func stringHeavyQueries() []Query {
	var qs []Query
	for _, ev := range []string{"order", "view", "search", "add"} {
		qs = append(qs,
			Query{Agg: agg.Count, AggAttr: "spend", Keys: []string{"user_id"},
				Preds: []Predicate{
					{Attr: "event", Kind: PredEq, StrValue: ev},
					{Attr: "channel", Kind: PredEq, StrValue: "app"},
				}},
			Query{Agg: agg.Sum, AggAttr: "spend", Keys: []string{"user_id"},
				Preds: []Predicate{{Attr: "event", Kind: PredEq, StrValue: ev}}},
		)
	}
	return qs
}

// BenchmarkStringHeavyMemBytes pins the storage cost on the datagen scenario
// at mid scale: resident bytes/row of the relevant table, whose string
// columns are dictionary codes.
func BenchmarkStringHeavyMemBytes(b *testing.B) {
	d := datagen.StringHeavy(datagen.Options{TrainRows: 20000, LogsPerKey: 20, Seed: 1})
	compact := d.Relevant
	rows := float64(compact.NumRows())
	cBytes, _ := compact.MemBytes()
	qs := stringHeavyQueries()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex := NewExecutor(compact)
		if _, err := ex.ExecuteBatch(qs, "feature"); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cBytes)/rows, "bytes/row")
}

// The 10⁷-row table is built once and shared across iterations: the point of
// the benchmark is that the scenario exists at this scale at all (the raw
// layout's string headers alone would add ~80 bytes/row), plus the steady
// query throughput over it.
var (
	stringHeavy10MOnce  sync.Once
	stringHeavy10MTable *dataframe.Table
)

// BenchmarkStringHeavy10M runs the filtered-COUNT batch over the 10⁷-row
// code-backed string-heavy log and reports resident bytes/row plus the process
// peak RSS. Run with -benchtime=1x: one build, one measured batch.
func BenchmarkStringHeavy10M(b *testing.B) {
	stringHeavy10MOnce.Do(func() {
		d := datagen.StringHeavy(datagen.Options{TrainRows: 250000, LogsPerKey: 40, Seed: 1})
		stringHeavy10MTable = d.Relevant
	})
	tbl := stringHeavy10MTable
	total, _ := tbl.MemBytes()
	qs := stringHeavyQueries()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex := NewExecutor(tbl)
		if _, err := ex.ExecuteBatch(qs, "feature"); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(qs)*b.N)/b.Elapsed().Seconds(), "queries/s")
	b.ReportMetric(float64(tbl.NumRows()), "rows")
	b.ReportMetric(float64(total)/float64(tbl.NumRows()), "bytes/row")
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		// Linux reports Maxrss in KiB.
		b.ReportMetric(float64(ru.Maxrss)/1024, "peak_rss_mb")
	}
}
