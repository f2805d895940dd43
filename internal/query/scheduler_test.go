package query

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/dataframe"
)

// TestSharedScanCounters requires k executors over one table on one scheduler
// to pay fewer table passes between them than k isolated executors, with the
// difference visible as subscriber hits — the claim of the shared scan core,
// asserted on the counters rather than wall clock.
func TestSharedScanCounters(t *testing.T) {
	r := largeRandomTable(400, 171)
	rng := rand.New(rand.NewSource(172))
	qs := randomPool(rng, 60)
	const k = 4

	run := func(scheds func(i int) *ScanScheduler) (passes, subs int64) {
		for i := 0; i < k; i++ {
			e := NewExecutor(r, WithScanScheduler(scheds(i)))
			if _, err := e.ExecuteBatch(qs, "f"); err != nil {
				t.Fatal(err)
			}
			s := e.Stats()
			passes += s.SharedScanPasses
			subs += s.SharedScanSubscribers
		}
		return passes, subs
	}

	shared := NewScanScheduler()
	sharedPasses, sharedSubs := run(func(int) *ScanScheduler { return shared })
	isoPasses, _ := run(func(int) *ScanScheduler { return NewScanScheduler() })

	if sharedSubs == 0 {
		t.Error("no subscriber hits: executors did not share scan state")
	}
	if sharedPasses >= isoPasses {
		t.Errorf("shared scheduler paid %d passes, isolated paid %d — sharing saved nothing", sharedPasses, isoPasses)
	}
	if isoPasses != k*sharedPasses {
		t.Errorf("isolated passes = %d, want k×shared = %d (identical batches per executor)", isoPasses, k*sharedPasses)
	}
	if shared.Len() != 1 {
		t.Errorf("scheduler holds %d cores, want 1 (one table)", shared.Len())
	}
}

// TestConcurrentScanSharing hammers one scheduler with k executors over one
// table running batches concurrently (under -race) — plan groups from several
// executors subscribing to the same core entries while they are being built —
// and requires every result to match a private, single-threaded, unencoded
// reference bit for bit. It sweeps mixed, NULL-heavy and compact
// (code-backed) tables, so the dictionary and SWAR kernels run on a shared
// core too; the tiny morsel size maximises segment-boundary traffic.
func TestConcurrentScanSharing(t *testing.T) {
	d := dupKeyTrainTable(150, 182)
	rng := rand.New(rand.NewSource(183))
	qs := randomPool(rng, 40)
	const k = 4
	tables := map[string]func() *dataframe.Table{
		"mixed":     func() *dataframe.Table { return largeRandomTable(300, 181) },
		"nullheavy": func() *dataframe.Table { return nullHeavyTable(300, 184) },
		"compact":   func() *dataframe.Table { return compacted(t, largeRandomTable(300, 181)) },
	}
	for name, build := range tables {
		t.Run(name, func(t *testing.T) {
			ref := NewExecutor(build())
			ref.DisableDictEncoding = true
			refV, refOK, err := ref.AugmentValuesBatch(d, qs)
			if err != nil {
				t.Fatal(err)
			}

			r := build()
			sched := &ScanScheduler{MorselRows: 7}
			var wg sync.WaitGroup
			errs := make([]error, k)
			for i := 0; i < k; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					e := NewExecutor(r, WithScanScheduler(sched))
					for it := 0; it < 3; it++ {
						v, ok, err := e.AugmentValuesBatch(d, qs)
						if err != nil {
							errs[i] = err
							return
						}
						for qi := range qs {
							for row := range v[qi] {
								if v[qi][row] != refV[qi][row] || ok[qi][row] != refOK[qi][row] {
									errs[i] = errors.New("concurrent batch diverged from reference")
									return
								}
							}
						}
					}
				}(i)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestMorselCancellation cancels mid-morsel-stream: a batch over a tiny
// morsel size must observe the context at a morsel boundary (well before the
// batch would complete), return promptly with ctx.Err(), and leave no
// goroutines behind.
func TestMorselCancellation(t *testing.T) {
	r := largeRandomTable(400, 191)
	rng := rand.New(rand.NewSource(192))
	qs := randomPool(rng, 40)

	// Learn the full batch's morsel count on a twin executor.
	warm := NewExecutor(r, WithMorselRows(7))
	warm.Parallelism = 1
	if _, err := warm.ExecuteBatch(qs, "f"); err != nil {
		t.Fatal(err)
	}
	total := warm.Stats().MorselsScanned
	if total < 100 {
		t.Fatalf("fixture too small: full batch scanned only %d morsels", total)
	}

	baseline := runtime.NumGoroutine()
	ex := NewExecutor(r, WithMorselRows(7))
	ex.Parallelism = 1
	ctx := newStatCtx(func() bool { return ex.Stats().MorselsScanned >= 20 })
	_, err := ex.ExecuteBatchContext(ctx, qs, "f")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if got := ex.Stats().MorselsScanned; got >= total/2 {
		t.Fatalf("scanned %d of %d morsels after cancellation at 20 — not prompt", got, total)
	}
	// No leaked goroutines: the worker pool must drain after cancellation.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > baseline {
		t.Fatalf("goroutine leak after cancellation: %d before, %d after", baseline, g)
	}
}

// TestShardEmptyAndSingleRow covers degenerate split sources end to end: an
// executor over an empty sub-table (a split value absent from a batch)
// answers every query with the empty-relation semantics of the per-query
// reference, and one over a one-row sub-table matches it too.
func TestShardEmptyAndSingleRow(t *testing.T) {
	r := largeRandomTable(100, 195)
	d := dupKeyTrainTable(60, 196)
	qs := []Query{
		{Agg: agg.Sum, AggAttr: "x", Keys: []string{"k1"}},
		{Agg: agg.Median, AggAttr: "x", Keys: []string{"k1"},
			Preds: []Predicate{{Attr: "flag", Kind: PredEq, BoolValue: true}}},
		{Agg: agg.Mode, AggAttr: "cat", Keys: []string{"k2"}},
		{Agg: agg.Count, AggAttr: "x", Keys: []string{"k2"}},
	}
	for label, rows := range map[string][]int{"empty": nil, "single": {42}} {
		sub := r.Take(rows)
		got, err := NewExecutor(sub).AugmentBatch(d, qs, "f")
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		for qi, q := range qs {
			want, err := q.Augment(d, sub, "f")
			if err != nil {
				t.Fatalf("%s reference: %v", label, err)
			}
			sameTable(t, label+" "+q.SQL("r"), got[qi], want)
		}
	}
}
