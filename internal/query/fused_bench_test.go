package query

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/dataframe"
)

// fusedBenchPool builds the acceptance-criteria workload: a 200-query
// template pool over one relevant table with at most 20 distinct WHERE masks
// — the shape a successive-halving rung or TPE batch produces, where agg
// functions and attributes are swept over a small set of cached masks. Seeds
// are fixed so runs are comparable across commits (BENCH_3.json).
func fusedBenchPool(nQueries, nRows int) (*dataframe.Table, *dataframe.Table, []Query) {
	r := largeRandomTable(nRows, 97)
	d := largeRandomTable(nRows/8, 98)
	rng := rand.New(rand.NewSource(99))
	masks := make([][]Predicate, 20)
	for i := range masks {
		switch i % 3 {
		case 0:
			masks[i] = []Predicate{{Attr: "x", Kind: PredRange, HasLo: true, Lo: float64(rng.Intn(120) - 60)}}
		case 1:
			masks[i] = []Predicate{{Attr: "ts", Kind: PredRange, HasHi: true, Hi: float64(rng.Intn(90000))}}
		default:
			masks[i] = []Predicate{
				{Attr: "cat", Kind: PredEq, StrValue: []string{"a", "b", "c"}[i%3]},
				{Attr: "x", Kind: PredRange, HasLo: true, HasHi: true, Lo: -80, Hi: float64(rng.Intn(100))},
			}
		}
	}
	attrs := []string{"x", "ts", "cat"}
	funcs := agg.All()
	qs := make([]Query, nQueries)
	for i := range qs {
		qs[i] = Query{
			Agg:     funcs[i%len(funcs)],
			AggAttr: attrs[(i/len(funcs))%len(attrs)],
			Keys:    []string{"k1", "k2"},
			Preds:   masks[i%len(masks)],
		}
	}
	return r, d, qs
}

// BenchmarkExecuteBatchFused measures the fused shared-scan path on a cold
// executor each iteration, so it times scan sharing (plan-group fusion), not
// cross-iteration cache warmth.
func BenchmarkExecuteBatchFused(b *testing.B) {
	r, _, qs := fusedBenchPool(200, 2400)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex := NewExecutor(r)
		if _, err := ex.ExecuteBatch(qs, "feature"); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(qs)*b.N)/b.Elapsed().Seconds(), "queries/s")
}

// BenchmarkAugmentValuesBatchFused measures the search loop's real hot path —
// execute plus scatter onto the training table — through the fused engine.
func BenchmarkAugmentValuesBatchFused(b *testing.B) {
	r, d, qs := fusedBenchPool(200, 2400)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex := NewExecutor(r)
		if _, _, err := ex.AugmentValuesBatch(d, qs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(qs)*b.N)/b.Elapsed().Seconds(), "queries/s")
}

// BenchmarkExecuteBatchFusedSpeedup times the fused path against the
// faithful PR 1 baseline below on the same cold batch and reports the
// throughput ratio; the acceptance bar for this subsystem is ≥ 2×.
func BenchmarkExecuteBatchFusedSpeedup(b *testing.B) {
	r, _, qs := fusedBenchPool(200, 2400)
	var perQuery, batch time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr1 := newPR1Executor(r)
		t0 := time.Now()
		for _, q := range qs {
			if _, err := pr1.execute(q, "feature"); err != nil {
				b.Fatal(err)
			}
		}
		perQuery += time.Since(t0)
		fused := NewExecutor(r)
		t1 := time.Now()
		if _, err := fused.ExecuteBatch(qs, "feature"); err != nil {
			b.Fatal(err)
		}
		batch += time.Since(t1)
	}
	if batch > 0 {
		b.ReportMetric(perQuery.Seconds()/batch.Seconds(), "speedup_fused_vs_pr1")
	}
}

// BenchmarkExecuteBatchPR1 is the PR 1 baseline alone, for BENCH_3.json's
// fused-vs-PR1 trajectory.
func BenchmarkExecuteBatchPR1(b *testing.B) {
	r, _, qs := fusedBenchPool(200, 2400)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr1 := newPR1Executor(r)
		for _, q := range qs {
			if _, err := pr1.execute(q, "feature"); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(qs)*b.N)/b.Elapsed().Seconds(), "queries/s")
}

// pr1Executor reproduces PR 1's executor core exactly (commit 7bb1f6d's
// internal/query/executor.go): a cached group index per key-set, a cached
// bitmap per one-sided predicate built through Predicate.Eval's boolean
// masks, and a two-pass per-query aggregation with per-row AsFloat/IsNull
// calls and a fresh NumGroups-sized scratch slice per query. It exists only
// as the benchmark baseline the fused engine is measured against.
type pr1Executor struct {
	r      *dataframe.Table
	groups map[string]*dataframe.GroupIndex
	masks  map[string][]uint64
}

func newPR1Executor(r *dataframe.Table) *pr1Executor {
	return &pr1Executor{r: r, groups: map[string]*dataframe.GroupIndex{}, masks: map[string][]uint64{}}
}

func (e *pr1Executor) groupIndex(keys []string) (*dataframe.GroupIndex, error) {
	k := strings.Join(keys, "\x1f")
	if gi, ok := e.groups[k]; ok {
		return gi, nil
	}
	gi, err := e.r.BuildGroupIndex(keys...)
	if err != nil {
		return nil, err
	}
	e.groups[k] = gi
	return gi, nil
}

func (e *pr1Executor) predMask(p Predicate) ([]uint64, error) {
	k := predCacheKey(p)
	if bm, ok := e.masks[k]; ok {
		return bm, nil
	}
	mask := make([]bool, e.r.NumRows())
	for i := range mask {
		mask[i] = true
	}
	if err := p.Eval(e.r, mask); err != nil {
		return nil, err
	}
	bm := make([]uint64, (len(mask)+63)/64)
	for i, m := range mask {
		if m {
			bm[i>>6] |= 1 << uint(i&63)
		}
	}
	e.masks[k] = bm
	return bm, nil
}

func (e *pr1Executor) whereMask(preds []Predicate) ([]uint64, error) {
	var mask []uint64
	and := func(p Predicate) error {
		pm, err := e.predMask(p)
		if err != nil {
			return err
		}
		if mask == nil {
			mask = make([]uint64, len(pm))
			copy(mask, pm)
			return nil
		}
		for i := range mask {
			mask[i] &= pm[i]
		}
		return nil
	}
	for _, p := range preds {
		if p.Kind == PredRange && p.HasLo && p.HasHi {
			lo := Predicate{Attr: p.Attr, Kind: PredRange, HasLo: true, Lo: p.Lo}
			hi := Predicate{Attr: p.Attr, Kind: PredRange, HasHi: true, Hi: p.Hi}
			if err := and(lo); err != nil {
				return nil, err
			}
			if err := and(hi); err != nil {
				return nil, err
			}
			continue
		}
		if err := and(p); err != nil {
			return nil, err
		}
	}
	return mask, nil
}

func (e *pr1Executor) execute(q Query, featureName string) (*dataframe.Table, error) {
	aggCol := e.r.Column(q.AggAttr)
	gi, err := e.groupIndex(q.Keys)
	if err != nil {
		return nil, err
	}
	mask, err := e.whereMask(q.Preds)
	if err != nil {
		return nil, err
	}
	var rows []int
	if mask != nil {
		rows = matchedRows(mask)
	}
	eachMatch := func(visit func(row int)) {
		if mask == nil {
			for i, n := 0, e.r.NumRows(); i < n; i++ {
				visit(i)
			}
			return
		}
		for _, i := range rows {
			visit(i)
		}
	}
	useString := aggCol.Kind() == dataframe.KindString
	allNull := useString && !q.Agg.SupportsStrings()
	local := make([]int, gi.NumGroups())
	var repr, counts, nvalid []int
	eachMatch(func(i int) {
		gid := gi.GroupOf(i)
		li := local[gid]
		if li == 0 {
			repr = append(repr, i)
			counts = append(counts, 0)
			nvalid = append(nvalid, 0)
			li = len(repr)
			local[gid] = li
		}
		li--
		counts[li]++
		if !allNull && !aggCol.IsNull(i) {
			nvalid[li]++
		}
	})
	ngroups := len(repr)
	vals := make([]float64, ngroups)
	valid := make([]bool, ngroups)
	if !allNull && ngroups > 0 {
		offs := make([]int, ngroups+1)
		for li, nv := range nvalid {
			offs[li+1] = offs[li] + nv
		}
		var fbuf []float64
		var sbuf []string
		if useString {
			sbuf = make([]string, offs[ngroups])
		} else {
			fbuf = make([]float64, offs[ngroups])
		}
		fill := make([]int, ngroups)
		copy(fill, offs[:ngroups])
		eachMatch(func(i int) {
			if aggCol.IsNull(i) {
				return
			}
			li := local[gi.GroupOf(i)] - 1
			if useString {
				sbuf[fill[li]] = aggCol.Str(i)
			} else {
				v, ok := aggCol.AsFloat(i)
				if !ok {
					return
				}
				fbuf[fill[li]] = v
			}
			fill[li]++
		})
		for li := 0; li < ngroups; li++ {
			if useString {
				vals[li], valid[li] = q.Agg.StringApply(sbuf[offs[li]:fill[li]], counts[li])
			} else {
				vals[li], valid[li] = q.Agg.Apply(fbuf[offs[li]:fill[li]], counts[li])
			}
		}
	}
	out := dataframe.MustNewTable()
	for _, kc := range gi.KeyColumns() {
		if err := out.AddColumn(kc.Take(repr)); err != nil {
			return nil, err
		}
	}
	if err := out.AddColumn(dataframe.NewFloatColumn(featureName, vals, valid)); err != nil {
		return nil, err
	}
	return out, nil
}
