package query

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/agg"
	"repro/internal/dataframe"
)

// dupKeyTrainTable builds a training table where every join key value appears
// on many rows (the one-to-many serving shape), with NULL keys sprinkled in,
// so the scatter's train-group fan-out and NULL-key group are both exercised.
func dupKeyTrainTable(n int, seed int64) *dataframe.Table {
	rng := rand.New(rand.NewSource(seed))
	k1 := make([]int64, n)
	k1Valid := make([]bool, n)
	k2 := make([]string, n)
	y := make([]float64, n)
	cats := []string{"a", "b", "c"}
	for i := 0; i < n; i++ {
		k1[i] = int64(rng.Intn(8)) // ~n/8 duplicates per key
		k1Valid[i] = rng.Float64() > 0.1
		k2[i] = cats[rng.Intn(3)]
		y[i] = rng.NormFloat64()
	}
	return dataframe.MustNewTable(
		dataframe.NewIntColumn("k1", k1, k1Valid),
		dataframe.NewStringColumn("k2", k2, nil),
		dataframe.NewFloatColumn("y", y, nil),
	)
}

// sameFeature requires two feature vectors to be bit-identical.
func sameFeature(t *testing.T, label string, gotV, wantV []float64, gotOK, wantOK []bool) {
	t.Helper()
	if len(gotV) != len(wantV) || len(gotOK) != len(wantOK) {
		t.Fatalf("%s: length mismatch: got %d/%d want %d/%d", label, len(gotV), len(gotOK), len(wantV), len(wantOK))
	}
	for i := range wantV {
		if gotOK[i] != wantOK[i] {
			t.Fatalf("%s: row %d validity: got %v want %v", label, i, gotOK[i], wantOK[i])
		}
		if gotV[i] != wantV[i] {
			t.Fatalf("%s: row %d value: got %v want %v", label, i, gotV[i], wantV[i])
		}
	}
}

// oracleFeature is the reference oracle Query.Augment's feature column as
// (values, validity) aligned with d's rows, NULL positions zeroed — the
// convention every executor augment path returns.
func oracleFeature(t *testing.T, d, r *dataframe.Table, q Query) ([]float64, []bool) {
	t.Helper()
	out, err := q.Augment(d, r, "oracle_feature")
	if err != nil {
		t.Fatalf("%s: %v", q.SQL("r"), err)
	}
	return out.Column("oracle_feature").Floats()
}

// TestDifferentialFusedScatter requires the plan-group-shared scatter to be
// bit-identical to the reference oracle Query.Augment and to the single-query
// AugmentValues, across mixed and NULL-heavy relevant tables,
// duplicate-key training rows, and batches containing empty plan groups
// (masks matching no rows) and duplicate queries. The matrix variant must
// agree column for column.
func TestDifferentialFusedScatter(t *testing.T) {
	tables := map[string]*dataframe.Table{
		"mixed":     largeRandomTable(400, 101),
		"nullheavy": nullHeavyTable(400, 102),
	}
	d := dupKeyTrainTable(240, 103)
	for name, r := range tables {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(104))
			qs := randomPool(rng, 150)
			// An empty plan group: no row satisfies x > 1e9.
			qs = append(qs, Query{
				Agg: agg.Median, AggAttr: "x", Keys: []string{"k1"},
				Preds: []Predicate{{Attr: "x", Kind: PredRange, HasLo: true, Lo: 1e9}},
			})
			// Exact duplicates sharing one scatter column.
			qs = append(qs, qs[0], qs[1])

			fused := NewExecutor(r)
			gotV, gotOK, err := fused.AugmentValuesBatch(d, qs)
			if err != nil {
				t.Fatal(err)
			}
			m, err := NewExecutor(r).AugmentMatrix(d, qs)
			if err != nil {
				t.Fatal(err)
			}
			if m.NumRows() != d.NumRows() || m.NumFeatures() != len(qs) {
				t.Fatalf("matrix shape %dx%d, want %dx%d", m.NumRows(), m.NumFeatures(), d.NumRows(), len(qs))
			}
			single := NewExecutor(r)
			for i, q := range qs {
				wantV, wantOK := oracleFeature(t, d, r, q)
				sameFeature(t, q.SQL("r")+" fused-vs-oracle", gotV[i], wantV, gotOK[i], wantOK)
				mv, mok := m.Col(i)
				sameFeature(t, q.SQL("r")+" matrix", mv, wantV, mok, wantOK)
				sv, sok, err := single.AugmentValues(d, q)
				if err != nil {
					t.Fatal(err)
				}
				sameFeature(t, q.SQL("r")+" fused-vs-single", gotV[i], sv, gotOK[i], sok)
			}
			fs := fused.Stats()
			if fs.ScatterPasses == 0 || fs.ScatterQueries != int64(len(qs)) {
				t.Fatalf("fused scatter counters: %d passes, %d queries (want >0 passes, %d queries)",
					fs.ScatterPasses, fs.ScatterQueries, len(qs))
			}
			if fs.ScatterPasses >= fs.ScatterQueries {
				t.Fatalf("fused scatter did not share passes: %d passes for %d queries", fs.ScatterPasses, fs.ScatterQueries)
			}
			ss := single.Stats()
			if ss.ScatterPasses != int64(len(qs)) || ss.CoreQueries != int64(len(qs)) {
				t.Fatalf("single-query calls: %d scatter passes, %d calls, want %d each",
					ss.ScatterPasses, ss.CoreQueries, len(qs))
			}
		})
	}
}

// statCtx is a deterministic cancellation probe: it reports Canceled as soon
// as the supplied predicate turns true, letting tests cancel exactly between
// two internal stages of a batch (something a timer-based context cannot do
// reliably).
type statCtx struct {
	context.Context
	done      chan struct{}
	cancelled func() bool
}

func newStatCtx(pred func() bool) *statCtx {
	return &statCtx{Context: context.Background(), done: make(chan struct{}), cancelled: pred}
}

func (c *statCtx) Done() <-chan struct{} { return c.done }

func (c *statCtx) Err() error {
	if c.cancelled() {
		return context.Canceled
	}
	return nil
}

// TestScatterCancellation cancels after the first shared scatter pass and
// requires the batch to abort with the context error before later plan
// groups scatter — the serving-path cancellation the fused scatter must
// observe per plan group.
func TestScatterCancellation(t *testing.T) {
	r := largeRandomTable(300, 111)
	d := dupKeyTrainTable(150, 112)
	ex := NewExecutor(r)
	ex.Parallelism = 1 // deterministic group order
	// Two plan groups: mask-free and x > 0, several queries each.
	var qs []Query
	for _, fn := range []agg.Func{agg.Sum, agg.Avg, agg.Max} {
		qs = append(qs, Query{Agg: fn, AggAttr: "x", Keys: []string{"k1"}})
		qs = append(qs, Query{Agg: fn, AggAttr: "x", Keys: []string{"k1"},
			Preds: []Predicate{{Attr: "x", Kind: PredRange, HasLo: true, Lo: 0}}})
	}
	ctx := newStatCtx(func() bool { return ex.Stats().ScatterPasses >= 1 })
	_, _, err := ex.AugmentValuesBatchContext(ctx, d, qs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if got := ex.Stats().ScatterPasses; got != 1 {
		t.Fatalf("scatter ran %d passes after cancellation, want exactly 1", got)
	}
}

// TestFusedScanCancellation cancels mid-plan-group: a batch that collapses
// into ONE plan group with several per-attribute scans must observe the
// context between scans, not only at the (single) worker-item boundary.
func TestFusedScanCancellation(t *testing.T) {
	r := largeRandomTable(300, 121)
	ex := NewExecutor(r)
	ex.Parallelism = 1
	// One plan group (same keys, no preds), three buffered attributes ->
	// discovery + three attribute scans.
	qs := []Query{
		{Agg: agg.Median, AggAttr: "x", Keys: []string{"k1"}},
		{Agg: agg.Median, AggAttr: "ts", Keys: []string{"k1"}},
		{Agg: agg.Mode, AggAttr: "cat", Keys: []string{"k1"}},
	}
	// Discovery counts one scan; cancel before the second attribute scan.
	ctx := newStatCtx(func() bool { return ex.Stats().FusedScans >= 2 })
	_, err := ex.ExecuteBatchContext(ctx, qs, "f")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if got := ex.Stats().FusedScans; got >= 4 {
		t.Fatalf("ran %d scans after mid-group cancellation, want < 4", got)
	}
}

// TestScatterConcurrentServing hammers one executor with concurrent fused
// batch serving calls (the MultiTransformer shape) under -race and requires
// every call to reproduce the single-threaded reference bit for bit.
func TestScatterConcurrentServing(t *testing.T) {
	r := largeRandomTable(300, 131)
	d := dupKeyTrainTable(160, 132)
	rng := rand.New(rand.NewSource(133))
	qs := randomPool(rng, 60)
	refV, refOK, err := NewExecutor(r).AugmentValuesBatch(d, qs)
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExecutor(r)
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 3; it++ {
				if g%2 == 0 {
					v, ok, err := ex.AugmentValuesBatch(d, qs)
					if err != nil {
						errs[g] = err
						return
					}
					for i := range qs {
						for row := range v[i] {
							if v[i][row] != refV[i][row] || ok[i][row] != refOK[i][row] {
								errs[g] = errors.New("concurrent batch diverged from reference")
								return
							}
						}
					}
				} else {
					m, err := ex.AugmentMatrix(d, qs)
					if err != nil {
						errs[g] = err
						return
					}
					for i := range qs {
						mv, mok := m.Col(i)
						for row := range mv {
							if mv[row] != refV[i][row] || mok[row] != refOK[i][row] {
								errs[g] = errors.New("concurrent matrix diverged from reference")
								return
							}
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestSharedJoinCache requires the train-side index to be built once across
// executors over different relevant tables joining the same training table —
// both through an explicit cache and through the process-level default — and
// requires WithJoinCache to isolate executors handed different caches.
func TestSharedJoinCache(t *testing.T) {
	r1 := largeRandomTable(200, 141)
	r2 := nullHeavyTable(200, 142)
	d := dupKeyTrainTable(100, 143)
	q := Query{Agg: agg.Sum, AggAttr: "x", Keys: []string{"k1"}}

	t.Run("explicit", func(t *testing.T) {
		jc := NewJoinCache()
		e1 := NewExecutor(r1, WithJoinCache(jc))
		e2 := NewExecutor(r2, WithJoinCache(jc))
		if _, _, err := e1.AugmentValues(d, q); err != nil {
			t.Fatal(err)
		}
		if _, _, err := e2.AugmentValues(d, q); err != nil {
			t.Fatal(err)
		}
		s1, s2 := e1.Stats(), e2.Stats()
		if s1.SharedJoinMisses != 1 || s1.SharedJoinHits != 0 {
			t.Fatalf("first executor: shared joins %d hits / %d misses, want 0/1", s1.SharedJoinHits, s1.SharedJoinMisses)
		}
		if s2.SharedJoinHits != 1 || s2.SharedJoinMisses != 0 {
			t.Fatalf("second executor: shared joins %d hits / %d misses, want 1/0", s2.SharedJoinHits, s2.SharedJoinMisses)
		}
		if jc.Len() != 1 {
			t.Fatalf("cache holds %d entries, want 1", jc.Len())
		}
	})

	t.Run("process-default", func(t *testing.T) {
		dd := dupKeyTrainTable(100, 144) // fresh identity: no cross-test interference
		e1, e2 := NewExecutor(r1), NewExecutor(r2)
		if _, _, err := e1.AugmentValues(dd, q); err != nil {
			t.Fatal(err)
		}
		if _, _, err := e2.AugmentValues(dd, q); err != nil {
			t.Fatal(err)
		}
		if s2 := e2.Stats(); s2.SharedJoinHits != 1 {
			t.Fatalf("process-level cache not shared: second executor got %d hits", s2.SharedJoinHits)
		}
	})

	t.Run("isolated", func(t *testing.T) {
		dd := dupKeyTrainTable(100, 145)
		e1 := NewExecutor(r1, WithJoinCache(NewJoinCache()))
		e2 := NewExecutor(r2, WithJoinCache(NewJoinCache()))
		if _, _, err := e1.AugmentValues(dd, q); err != nil {
			t.Fatal(err)
		}
		if _, _, err := e2.AugmentValues(dd, q); err != nil {
			t.Fatal(err)
		}
		if s2 := e2.Stats(); s2.SharedJoinHits != 0 || s2.SharedJoinMisses != 1 {
			t.Fatalf("isolated caches leaked: second executor shared joins %d hits / %d misses, want 0/1",
				s2.SharedJoinHits, s2.SharedJoinMisses)
		}
	})
}

// TestScatterStatsGolden pins the exact counter values of a fixed serving
// workload, so the observability surface cannot silently drift: 2 plan
// groups, 3 distinct scatter columns, one duplicate query, one shared join
// index.
func TestScatterStatsGolden(t *testing.T) {
	r := largeRandomTable(200, 151)
	d := dupKeyTrainTable(100, 152)
	ex := NewExecutor(r, WithJoinCache(NewJoinCache()))
	qs := []Query{
		{Agg: agg.Sum, AggAttr: "x", Keys: []string{"k1"}}, // group A, col 1
		{Agg: agg.Avg, AggAttr: "x", Keys: []string{"k1"}}, // group A, col 2
		{Agg: agg.Sum, AggAttr: "x", Keys: []string{"k1"}}, // duplicate of col 1
		{Agg: agg.Count, AggAttr: "x", Keys: []string{"k1"}, // group B, col 3
			Preds: []Predicate{{Attr: "x", Kind: PredRange, HasLo: true, Lo: 0}}},
	}
	if _, _, err := ex.AugmentValuesBatch(d, qs); err != nil {
		t.Fatal(err)
	}
	s := ex.Stats()
	if s.ScatterPasses != 2 {
		t.Errorf("ScatterPasses = %d, want 2 (one per plan group)", s.ScatterPasses)
	}
	if s.ScatterQueries != 4 {
		t.Errorf("ScatterQueries = %d, want 4", s.ScatterQueries)
	}
	if s.SharedJoinMisses != 1 || s.SharedJoinHits != 0 {
		t.Errorf("shared joins %d hits / %d misses, want 0 / 1", s.SharedJoinHits, s.SharedJoinMisses)
	}
	if s.JoinMisses != 1 || s.JoinHits != 1 {
		t.Errorf("join entries %d hits / %d misses, want 1 / 1 (two groups, one key-set)", s.JoinHits, s.JoinMisses)
	}
	if s.FusedQueries != 4 || s.CoreQueries != 0 {
		t.Errorf("fused %d / core %d queries, want 4 / 0", s.FusedQueries, s.CoreQueries)
	}
	// Shared-scan counters: the private core pays one pass for the k1 group
	// index and one for the x>=0 predicate bitmap ("x" is already a float
	// column, so no view build); nothing is subscribed — one executor owns
	// every entry. Both tables fit in one morsel, so MorselsScanned counts
	// scans: discovery for each of the 2 plan groups, one streaming
	// accumulator pass for group A (Sum/Avg share it; group B's Count needs
	// no attribute scan), and one scatter resolve block per group.
	if s.SharedScanPasses != 2 || s.SharedScanSubscribers != 0 {
		t.Errorf("shared scans %d passes / %d subscribed, want 2 / 0", s.SharedScanPasses, s.SharedScanSubscribers)
	}
	if s.MorselsScanned != 5 {
		t.Errorf("MorselsScanned = %d, want 5", s.MorselsScanned)
	}
	// A second batch on the warm executor: discovery and joins all cached,
	// two more passes.
	if _, _, err := ex.AugmentValuesBatch(d, qs); err != nil {
		t.Fatal(err)
	}
	s = ex.Stats()
	if s.ScatterPasses != 4 || s.ScatterQueries != 8 {
		t.Errorf("after second batch: scatter %d queries / %d passes, want 8 / 4", s.ScatterQueries, s.ScatterPasses)
	}
	if s.SharedJoinMisses != 1 {
		t.Errorf("after second batch: SharedJoinMisses = %d, want still 1", s.SharedJoinMisses)
	}
	// Discovery and the core entries are cached, and group A's Sum/Avg are
	// served from the retained aggregate state (PR 9) without rescanning, so
	// the warm batch adds only the two scatter resolves (2 more morsels).
	if s.SharedScanPasses != 2 || s.SharedScanSubscribers != 0 {
		t.Errorf("after second batch: shared scans %d passes / %d subscribed, want still 2 / 0",
			s.SharedScanPasses, s.SharedScanSubscribers)
	}
	if s.MorselsScanned != 7 {
		t.Errorf("after second batch: MorselsScanned = %d, want 7", s.MorselsScanned)
	}
}
