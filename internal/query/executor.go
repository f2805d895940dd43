package query

import (
	"context"
	"fmt"
	"math/bits"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/dataframe"
	"repro/internal/par"
)

// Executor evaluates queries against one relevant table through a stack of
// caches that exploit how the TPE / successive-halving searches revisit the
// same pool:
//
//   - a dataframe.GroupIndex per key-set, so queries sharing GROUP BY keys
//     (all queries of a template pool do, up to the key-subset dimension)
//     never regroup the table through string row-keys again;
//   - a row bitmap per predicate, keyed on the predicate's canonical
//     encoding. Predicates are drawn from the Space's small discrete pools
//     and are heavily reused across queries, so a query's WHERE mask is the
//     word-wise intersection of cached bitmaps instead of a full-table
//     re-evaluation;
//   - a combined-mask entry per canonical WHERE clause, holding both the
//     intersected bitmap and the materialised matching-row list, so a
//     cached mask never re-walks its bitmap;
//   - a plan-group entry per (key-set, WHERE-mask) pair caching the
//     group-discovery result (local / repr / counts), so any later query —
//     or whole batch — on the same plan group skips discovery entirely.
//
// The table-scoped caches (group indexes, bitmaps, masks, float views, domain
// probes) live in a tableCore (see scheduler.go): a private one by default,
// or one shared through a ScanScheduler by every executor over the same
// table. Scans walk the table morsel by morsel (dataframe.MorselBounds),
// observing cancellation at every boundary.
//
// On top of the caches, every entry point runs one fused path (see fused.go):
// the queries are grouped by plan group and each group's aggregates stream
// through shared scans. The single-query entry points (Execute, Augment,
// AugmentValues) run as batches of one. They read a plan group's retained
// aggregate state but never write it; only the batch entry points retain
// state. All methods are safe for concurrent use; batches evaluate on a
// bounded worker pool.
type Executor struct {
	r             *dataframe.Table
	core          *tableCore     // scan-side caches of the table (core.t == r)
	sched         *ScanScheduler // nil = private core
	optMorselRows int            // WithMorselRows, private cores only
	// Parallelism bounds the batch worker pool; 0 means GOMAXPROCS.
	Parallelism int
	// DisableCountingSort forces the fused per-group sort through the generic
	// comparison sort even when the aggregation attribute has a cached
	// low-cardinality domain. Differential tests and benchmarks flip it.
	DisableCountingSort bool
	// DisableDictEncoding forces the unencoded scan kernels: string equality
	// predicates compare Go strings row by row, int/time ranges scan the
	// float view, and group indexes hash composite keys instead of mapping
	// dictionary codes. Results are bit-identical either way (the
	// differential tests sweep this knob); the counting-sort path keeps its
	// own knob and is unaffected.
	DisableDictEncoding bool
	// DisableDeltaMaintenance forces a full cache rebuild whenever the scan
	// table's epoch advances (see delta.go): every shared-core entry and
	// every private plan/join entry is dropped instead of advanced over the
	// delta rows, and no aggregate state is retained across batches. Results
	// are bit-identical either way — the differential tests and the
	// append-then-query benchmarks sweep it. Note the wipe hits the SHARED
	// core, so flipping it on one executor degrades (never corrupts) its
	// core-sharing siblings; it is a test/bench knob, not a production mode.
	DisableDeltaMaintenance bool
	// DisableCompactStrings forces the word-parallel (SWAR) code kernels off:
	// predicate bitmaps fall back to the scalar per-code loops. It does
	// not change storage — compact tables stay compact; both kernel families
	// read the same code arrays — so the knob gives a clean like-for-like A/B.
	// Results are bit-identical either way (the differential tests sweep it).
	DisableCompactStrings bool

	// epoch is the scan-table epoch this executor's PRIVATE caches (plans,
	// joins, aggregate state) cover; the shared core tracks its own. Guarded
	// by core.fence.
	epoch uint64

	joinCache *JoinCache // train-side index sharing; ProcessJoinCache by default

	mu    sync.Mutex
	plans map[planKey]*planEntry
	joins map[joinKey]*joinEntry
	stats ExecutorStats
}

// ExecutorStats is a point-in-time snapshot of the executor's cache and scan
// counters, for perf observability (cmd/feataug -v surfaces it). Hits count
// lookups that found an existing entry; misses count entry creations;
// Evictions counts whole-cache drops of the bounded caches.
type ExecutorStats struct {
	GroupHits, GroupMisses int64 // per-key-set group indexes
	PredHits, PredMisses   int64 // per-predicate bitmaps
	MaskHits, MaskMisses   int64 // combined WHERE masks (bitmap + row list)
	PlanHits, PlanMisses   int64 // plan-group discovery results
	JoinHits, JoinMisses   int64 // per-executor join entries (rToD mappings)
	// Shared train-side index cache (JoinCache): lookups this executor made
	// that found an index another executor (or an earlier join entry) already
	// built, lookups that had to build one, and whole-cache drops this
	// executor triggered.
	SharedJoinHits, SharedJoinMisses int64
	SharedJoinEvictions              int64
	FusedScans                       int64 // shared scans run by the fused path
	FusedQueries                     int64 // queries answered through a fused plan group
	CoreQueries                      int64 // calls to the single-query entry points
	// Train-side scatter: full passes over the training table's rows vs
	// feature columns served by them. The fused scatter runs one pass per
	// (plan group, training table) writing every column of the group in the
	// same loop, so ScatterQueries / ScatterPasses is the sharing factor
	// (1.0 = no sharing, as in a single-query call).
	ScatterPasses, ScatterQueries int64
	CountingScans                 int64 // fused sorts served by the counting path
	// Dictionary encoding (see dict.go): DictEncodes counts first-use
	// dictionary builds charged to this executor's core, DictHits counts
	// lookups served by an existing encoding, and CodePredScans counts
	// predicate bitmaps built through the branch-free code kernels instead
	// of the row-at-a-time comparison loops.
	DictEncodes, DictHits int64
	CodePredScans         int64
	// Word-parallel kernels (PR 10, see swar.go): SwarPredScans counts
	// predicate bitmaps built 8×uint8 / 4×uint16 codes per 64-bit word (a
	// subset of CodePredScans — wide columns and DisableCompactStrings fall
	// back to the scalar code loops), and CountOnlyQueries counts COUNT
	// queries served straight from the plan's popcount-derived group counts
	// with no value pass at all.
	SwarPredScans    int64
	CountOnlyQueries int64
	// Cross-executor scan sharing (ScanScheduler): full-table passes this
	// executor ran to build a shared-core entry (group index, predicate
	// bitmap, float view, domain probe) vs lookups that subscribed to an entry
	// another executor over the same core had already built. k executors over
	// one table converge on one set of passes between them, so summed
	// SharedScanPasses stays near a single executor's count while
	// SharedScanSubscribers absorbs the rest.
	SharedScanPasses, SharedScanSubscribers int64
	// MorselsScanned counts the morsel segments the executor's scans walked
	// (discovery, attribute and scatter passes all run morsel by morsel).
	MorselsScanned int64
	Evictions      int64 // whole-cache drops across bounded caches
	// Delta maintenance (see delta.go): DeltaAppends counts append epochs
	// this executor absorbed, DeltaRowsScanned the appended rows its advance
	// scans visited (summed across the entries each advance touched),
	// DirtyGroupResorts the per-group sorted runs re-sorted because a delta
	// landed in the group, and FullRebuilds the advances that dropped caches
	// wholesale instead (DisableDeltaMaintenance, or a dictionary re-encode
	// shifting codes).
	DeltaAppends, DeltaRowsScanned int64
	DirtyGroupResorts              int64
	FullRebuilds                   int64
}

// Add returns the field-wise sum of two snapshots. Multi-table transformers
// run one executor per relevant table and report the merged counters.
func (s ExecutorStats) Add(o ExecutorStats) ExecutorStats {
	s.GroupHits += o.GroupHits
	s.GroupMisses += o.GroupMisses
	s.PredHits += o.PredHits
	s.PredMisses += o.PredMisses
	s.MaskHits += o.MaskHits
	s.MaskMisses += o.MaskMisses
	s.PlanHits += o.PlanHits
	s.PlanMisses += o.PlanMisses
	s.JoinHits += o.JoinHits
	s.JoinMisses += o.JoinMisses
	s.SharedJoinHits += o.SharedJoinHits
	s.SharedJoinMisses += o.SharedJoinMisses
	s.SharedJoinEvictions += o.SharedJoinEvictions
	s.FusedScans += o.FusedScans
	s.FusedQueries += o.FusedQueries
	s.CoreQueries += o.CoreQueries
	s.ScatterPasses += o.ScatterPasses
	s.ScatterQueries += o.ScatterQueries
	s.CountingScans += o.CountingScans
	s.DictEncodes += o.DictEncodes
	s.DictHits += o.DictHits
	s.CodePredScans += o.CodePredScans
	s.SwarPredScans += o.SwarPredScans
	s.CountOnlyQueries += o.CountOnlyQueries
	s.SharedScanPasses += o.SharedScanPasses
	s.SharedScanSubscribers += o.SharedScanSubscribers
	s.MorselsScanned += o.MorselsScanned
	s.Evictions += o.Evictions
	s.DeltaAppends += o.DeltaAppends
	s.DeltaRowsScanned += o.DeltaRowsScanned
	s.DirtyGroupResorts += o.DirtyGroupResorts
	s.FullRebuilds += o.FullRebuilds
	return s
}

// String renders the snapshot as one compact log line.
func (s ExecutorStats) String() string {
	return fmt.Sprintf(
		"groups %d/%d masks %d/%d preds %d/%d plans %d/%d joins %d/%d shared-joins %d/%d (hit/miss), fused %d queries over %d scans (%d counting), single %d calls (%d count-only), scatter %d queries over %d passes, dict %d encodes / %d hits (%d code preds, %d swar), shared-scans %d passes / %d subscribed, %d morsels, delta %d appends / %d rows (%d resorts, %d rebuilds), %d evictions",
		s.GroupHits, s.GroupMisses, s.MaskHits, s.MaskMisses, s.PredHits, s.PredMisses,
		s.PlanHits, s.PlanMisses, s.JoinHits, s.JoinMisses,
		s.SharedJoinHits, s.SharedJoinMisses,
		s.FusedQueries, s.FusedScans, s.CountingScans, s.CoreQueries, s.CountOnlyQueries,
		s.ScatterQueries, s.ScatterPasses,
		s.DictEncodes, s.DictHits, s.CodePredScans, s.SwarPredScans,
		s.SharedScanPasses, s.SharedScanSubscribers, s.MorselsScanned,
		s.DeltaAppends, s.DeltaRowsScanned, s.DirtyGroupResorts, s.FullRebuilds,
		s.Evictions+s.SharedJoinEvictions)
}

// Stats returns a snapshot of the executor's counters.
func (e *Executor) Stats() ExecutorStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// Cache bounds. Entries are pure caches, so when a bound is hit the whole map
// is dropped (the pattern the join cache established): in-flight holders keep
// their references, and the steady-state search workload — a few key-sets, a
// few dozen masks — never comes near the bounds. The bounds exist for
// long-lived serving executors fed unbounded query streams.
const (
	maxPredEntries = 2048
	maxMaskEntries = 512
	maxPlanEntries = 256
	maxJoinEntries = 64
)

type groupEntry struct {
	once  sync.Once
	owner *Executor // executor that created the entry (subscriber accounting)
	idx   *dataframe.GroupIndex
	err   error
}

// predEntry caches the full-table row bitmap of one predicate. p and nrows
// (the predicate it evaluates and the rows the bitmap covers) make the entry
// self-describing for delta advances: an append recomputes only the bitmap
// words at or after row nrows (see delta.go). nrows is written under the
// core's epoch fence after the once completes.
type predEntry struct {
	once  sync.Once
	owner *Executor
	p     Predicate
	bits  []uint64 // 1 bit per row, LSB-first within each word
	nrows int      // rows covered by bits
	err   error
}

// maskEntry caches one canonical WHERE clause: the intersected bitmap plus
// the materialised matching-row indices in ascending order, so a cached mask
// costs neither the intersection nor the bitmap walk again. preds holds the
// decomposed predicate list and nrows the coverage, for delta advances.
type maskEntry struct {
	once  sync.Once
	owner *Executor
	preds []Predicate // decomposed one-sided form
	bits  []uint64
	rows  []int
	nrows int
	err   error
}

// planKey identifies a plan group: one GROUP BY key-set combined with one
// canonical WHERE-mask signature.
type planKey struct {
	keys string
	sig  string
}

// planEntry caches the pass-1 group-discovery result of one plan group: which
// groups are non-empty under the mask, in first-seen row order, and how many
// matching rows each has. Every query of the plan group — across batches —
// shares it, so only the first query ever pays the discovery scan. All fields
// are read-only after the once completes, except under the core's epoch fence
// where delta advances extend them in place (keys/me/nrows describe what to
// advance; see delta.go), and aggs, the per-attribute aggregate state retained
// across batches, which is guarded by amu at query time.
type planEntry struct {
	once   sync.Once
	gi     *dataframe.GroupIndex
	keys   []string   // GROUP BY key-set (for re-deriving gi after drops)
	me     *maskEntry // WHERE mask the rows came from; nil = all rows
	rows   []int      // matching rows in scan order; identity list when mask-free
	segs   [][2]int   // morsel segments of rows (index ranges; see morselSegments)
	local  []int      // gid -> local index + 1; 0 = group empty under the mask
	repr   []int      // local -> representative (first matching) row
	counts []int      // local -> total matching rows
	nrows  int        // scan-table rows the discovery covers
	err    error

	amu  sync.Mutex
	aggs map[string]*attrState // per aggregation attribute (see delta.go)
}

// ExecutorOption configures NewExecutor.
type ExecutorOption func(*Executor)

// WithJoinCache makes the executor share train-side join indexes through the
// given cache instead of the process-level default. Multi-table transformers
// pass one cache to every per-source executor, so k executors serving one
// training table build its index once between them.
func WithJoinCache(c *JoinCache) ExecutorOption {
	return func(e *Executor) {
		if c != nil {
			e.joinCache = c
		}
	}
}

// NewExecutor builds an executor over one relevant table. The table must not
// be mutated while the executor is in use except through Append or a
// ScanScheduler's Append (caches index into its rows). The scan-side caches
// come from the WithScanScheduler scheduler's shared core of the table when
// one is given, else from a private core.
func NewExecutor(r *dataframe.Table, opts ...ExecutorOption) *Executor {
	e := &Executor{
		r:         r,
		joinCache: processJoins,
		plans:     map[planKey]*planEntry{},
	}
	for _, opt := range opts {
		opt(e)
	}
	if e.sched != nil {
		e.core = e.sched.coreFor(r)
	} else {
		e.core = newTableCore(r, e.optMorselRows)
	}
	// A fresh executor's (empty) private caches vacuously cover the current
	// epoch; the first scan advances the shared core if it is behind.
	e.epoch = r.Epoch()
	return e
}

// Table returns the relevant table the executor is bound to.
func (e *Executor) Table() *dataframe.Table { return e.r }

// countLookup records the outcome of one bounded-map lookup (coreGet's hit
// and evicted results) into the given hit/miss counters and Evictions.
// Caller must hold e.mu.
func (e *Executor) countLookup(hit, evicted bool, hits, misses *int64) {
	if hit {
		*hits++
	} else {
		*misses++
	}
	if evicted {
		e.stats.Evictions++
	}
}

// noteShared records the outcome of one shared-core cache lookup: hits count
// as usual and additionally as SharedScanSubscribers when the entry was built
// by a different executor over the same core; misses count as usual and, when
// the entry's build is a full-table pass (group index, predicate bitmap — not
// a mask intersection), as SharedScanPasses.
func (e *Executor) noteShared(hit, evicted bool, owner *Executor, hits, misses *int64, pass bool) {
	e.mu.Lock()
	e.countLookup(hit, evicted, hits, misses)
	if hit && owner != e {
		e.stats.SharedScanSubscribers++
	}
	if !hit && pass {
		e.stats.SharedScanPasses++
	}
	e.mu.Unlock()
}

// noteMorsel records one morsel segment walked by a scan.
func (e *Executor) noteMorsel() {
	e.mu.Lock()
	e.stats.MorselsScanned++
	e.mu.Unlock()
}

// groupIndex returns the cached GroupIndex for a key-set, building it on
// first use. Key order matters (it fixes the output column order), so the
// cache key preserves it. The index lives in the core and covers the whole
// table.
func (e *Executor) groupIndex(keys []string) (*dataframe.GroupIndex, error) {
	k := strings.Join(keys, "\x1f")
	c := e.core
	c.mu.Lock()
	ent, hit, evicted := coreGet(&c.groups, k, 1<<20,
		func() *groupEntry { return &groupEntry{owner: e} })
	c.mu.Unlock()
	e.noteShared(hit, evicted, ent.owner, &e.stats.GroupHits, &e.stats.GroupMisses, true)
	ent.once.Do(func() {
		if e.DisableDictEncoding {
			ent.idx, ent.err = c.t.BuildGroupIndexGeneric(keys...)
			return
		}
		// Route string key encodes through dictFor first, so the encode is
		// charged to the executor's counters before the build consumes it.
		for _, name := range keys {
			if kc := c.t.Column(name); kc != nil && kc.Kind() == dataframe.KindString {
				e.dictFor(kc)
			}
		}
		ent.idx, ent.err = c.t.BuildGroupIndex(keys...)
	})
	return ent.idx, ent.err
}

// predCacheKey is a canonical encoding of one predicate: attribute, operator
// and operand(s). Cheaper than Predicate.String (no fmt machinery) — it runs
// once per predicate per query on the hot path.
func predCacheKey(p Predicate) string {
	b := make([]byte, 0, len(p.Attr)+24)
	b = append(b, p.Attr...)
	switch p.Kind {
	case PredEq:
		// Both operand fields go into the key; the column's kind decides
		// which one Eval reads, so at worst two spellings of the same
		// predicate cache separate (identical) bitmaps.
		b = append(b, "=s"...)
		b = append(b, p.StrValue...)
		if p.BoolValue {
			b = append(b, "|b1"...)
		} else {
			b = append(b, "|b0"...)
		}
	case PredRange:
		if p.HasLo {
			b = append(b, '>')
			b = strconv.AppendFloat(b, p.Lo, 'g', -1, 64)
		}
		if p.HasHi {
			b = append(b, '<')
			b = strconv.AppendFloat(b, p.Hi, 'g', -1, 64)
		}
	}
	return string(b)
}

// predKey is predCacheKey specialised to the executor's table: the equality
// operand the column's kind cannot read is dropped, and when the column is
// dictionary-encoded the string operand collapses to its dictionary code —
// the canonical identity — so predicate spellings that differ only in the
// irrelevant operand (or quote to the same dictionary entry) share one cache
// entry and one mask signature. Predicates the table cannot resolve keep the
// generic encoding (they error later, in buildPredBits).
func (e *Executor) predKey(p Predicate) string {
	if p.Kind != PredEq {
		return predCacheKey(p)
	}
	col := e.core.t.Column(p.Attr)
	if col == nil {
		return predCacheKey(p)
	}
	b := make([]byte, 0, len(p.Attr)+16)
	b = append(b, p.Attr...)
	switch col.Kind() {
	case dataframe.KindString:
		if !e.DisableDictEncoding {
			if enc := e.dictFor(col); enc != nil {
				if code, ok := enc.CodeOf(p.StrValue); ok {
					b = append(b, "=c"...)
					return string(strconv.AppendUint(b, uint64(code), 10))
				}
				// Operands outside the dictionary select zero rows each;
				// distinct literals stay distinct (identical, empty) entries.
			}
		}
		b = append(b, "=s"...)
		return string(append(b, p.StrValue...))
	case dataframe.KindBool:
		if p.BoolValue {
			return string(append(b, "=b1"...))
		}
		return string(append(b, "=b0"...))
	}
	return predCacheKey(p)
}

// predMask returns the cached full-table row bitmap of one predicate,
// evaluating it on first use.
func (e *Executor) predMask(p Predicate) ([]uint64, error) {
	k := e.predKey(p)
	c := e.core
	c.mu.Lock()
	ent, hit, evicted := coreGet(&c.preds, k, maxPredEntries,
		func() *predEntry { return &predEntry{owner: e} })
	c.mu.Unlock()
	e.noteShared(hit, evicted, ent.owner, &e.stats.PredHits, &e.stats.PredMisses, true)
	ent.once.Do(func() {
		ent.p = p
		ent.bits, ent.err = e.buildPredBits(p)
		ent.nrows = e.core.t.NumRows()
	})
	return ent.bits, ent.err
}

// floatView returns a float64 materialisation of a numeric (or bool) column,
// coerced exactly as Column.AsFloat coerces — float columns share their
// backing slice, other kinds are converted once per executor and cached, so
// every scan reads a flat []float64 with no per-row kind dispatch. Values at
// NULL positions are unspecified; callers gate on the validity slice.
func (e *Executor) floatView(col *dataframe.Column) []float64 {
	if col.Kind() == dataframe.KindFloat {
		return col.FloatData()
	}
	c := e.core
	c.mu.Lock()
	if c.views == nil {
		c.views = map[string]*viewEntry{}
	}
	ent, hit := c.views[col.Name()]
	if !hit {
		ent = &viewEntry{}
		c.views[col.Name()] = ent
	}
	c.mu.Unlock()
	if !hit {
		// Materialising a view walks the whole table once.
		e.mu.Lock()
		e.stats.SharedScanPasses++
		e.mu.Unlock()
	}
	ent.once.Do(func() {
		v := make([]float64, col.Len())
		switch col.Kind() {
		case dataframe.KindInt, dataframe.KindTime:
			for i, x := range col.IntData() {
				v[i] = float64(x)
			}
		case dataframe.KindBool:
			for i, x := range col.BoolData() {
				if x {
					v[i] = 1
				}
			}
		}
		ent.vals = v
	})
	return ent.vals
}

// buildPredBits evaluates one predicate into a full-table bitmap through
// kind-specialised loops (direct slice access instead of Predicate.Eval's
// per-row AsFloat calls). Semantics match Eval exactly: NULL rows never
// match, bounds are inclusive.
//
// When the executor's dictionary kernels are enabled (the default), string
// equality resolves the operand to its code and compares narrow integers,
// and int/time ranges compare exact integer bounds — both branch-free, word
// at a time (see dict.go). The fallbacks below remain the reference
// semantics the differential tests sweep against.
func (e *Executor) buildPredBits(p Predicate) ([]uint64, error) {
	n := e.core.t.NumRows()
	bm := make([]uint64, (n+63)/64)
	if err := e.buildPredBitsFrom(p, 0, bm); err != nil {
		return nil, err
	}
	return bm, nil
}

// buildPredBitsFrom evaluates p into bm for rows [lo, n), where lo is
// word-aligned (a multiple of 64, or 0); words below lo/64 are left untouched
// and words at or above it are fully (re)written. Delta advances call it with
// the last partially-filled word's start so only appended rows are scanned
// (see delta.go); buildPredBits calls it with lo 0.
func (e *Executor) buildPredBitsFrom(p Predicate, lo int, bm []uint64) error {
	col := e.core.t.Column(p.Attr)
	if col == nil {
		return fmt.Errorf("query: predicate on missing column %q", p.Attr)
	}
	n := e.core.t.NumRows()
	set := func(i int) { bm[i>>6] |= 1 << uint(i&63) }
	valid := col.ValidData()
	switch p.Kind {
	case PredEq:
		switch col.Kind() {
		case dataframe.KindString:
			if !e.DisableDictEncoding {
				if enc := e.dictFor(col); enc != nil {
					e.noteCodePred()
					if code, ok := enc.CodeOf(p.StrValue); ok {
						if dictEqBitsFrom(enc, code, bm, lo, !e.DisableCompactStrings) {
							e.noteSwarPred()
						}
					}
					// Operand not in the dictionary: no row matches.
					return nil
				}
			}
			// col.Str decodes per row, so this fallback also serves compact
			// columns (whose StrData is nil) when encoding kernels are off.
			for i := lo; i < n; i++ {
				if valid[i] && col.Str(i) == p.StrValue {
					set(i)
				}
			}
		case dataframe.KindBool:
			bools := col.BoolData()
			for i := lo; i < n; i++ {
				if valid[i] && bools[i] == p.BoolValue {
					set(i)
				}
			}
		default:
			return fmt.Errorf("query: equality predicate on %s column %q", col.Kind(), p.Attr)
		}
	case PredRange:
		if !col.Kind().IsNumeric() {
			return fmt.Errorf("query: range predicate on %s column %q", col.Kind(), p.Attr)
		}
		if k := col.Kind(); !e.DisableDictEncoding && (p.HasLo || p.HasHi) &&
			(k == dataframe.KindInt || k == dataframe.KindTime) {
			if dom := e.domain(col); dom.intOK {
				e.noteCodePred()
				if intRangeBitsFrom(dom, p, bm, lo, !e.DisableCompactStrings) {
					e.noteSwarPred()
				}
				return nil
			}
		}
		vals := e.floatView(col)
		switch {
		case p.HasLo && p.HasHi:
			// Normally unreachable: whereEntry decomposes two-sided ranges
			// into their one-sided halves before the bitmap cache (so BETWEEN
			// masks are never cached whole). Kept correct for any future
			// caller that skips decomposition.
			for i := lo; i < n; i++ {
				if valid[i] && vals[i] >= p.Lo && vals[i] <= p.Hi {
					set(i)
				}
			}
		case p.HasLo:
			for i := lo; i < n; i++ {
				if valid[i] && vals[i] >= p.Lo {
					set(i)
				}
			}
		case p.HasHi:
			for i := lo; i < n; i++ {
				if valid[i] && vals[i] <= p.Hi {
					set(i)
				}
			}
		default: // trivial range: matches every non-NULL row, like Eval
			for i := lo; i < n; i++ {
				if valid[i] {
					set(i)
				}
			}
		}
	default:
		return fmt.Errorf("query: unknown predicate kind %d", p.Kind)
	}
	return nil
}

// decomposePreds rewrites a predicate list into its canonical one-sided form:
// two-sided ranges split into their one-sided halves before the cache lookup.
// A pool discretised over g grid points yields ~g² distinct (lo, hi) pairs
// per attribute but only ~2g one-sided bounds, so the bitmap cache converges
// after a handful of misses instead of one per bound pair. The intersection
// is exact — a NULL row fails both halves, matching SQL three-valued logic
// just like the combined predicate.
func decomposePreds(preds []Predicate) []Predicate {
	out := make([]Predicate, 0, len(preds)+2)
	for _, p := range preds {
		if p.Kind == PredRange && p.HasLo && p.HasHi {
			out = append(out,
				Predicate{Attr: p.Attr, Kind: PredRange, HasLo: true, Lo: p.Lo},
				Predicate{Attr: p.Attr, Kind: PredRange, HasHi: true, Hi: p.Hi})
			continue
		}
		out = append(out, p)
	}
	return out
}

// maskSignature is the canonical identity of a WHERE clause: the sorted,
// deduplicated cache keys of its decomposed predicates. Queries whose
// predicate sets select the same rows by construction — reordered conjuncts,
// a BETWEEN spelled as two one-sided ranges — share a signature and therefore
// a mask entry and a plan group. The empty signature means "all rows".
func maskSignature(preds []Predicate) string {
	return maskSigWith(preds, predCacheKey)
}

// maskSig is maskSignature through the executor's kind-aware predKey, so
// equality spellings that collapse to one dictionary code also collapse to
// one signature (and therefore one mask entry and plan group).
func (e *Executor) maskSig(preds []Predicate) string {
	return maskSigWith(preds, e.predKey)
}

func maskSigWith(preds []Predicate, key func(Predicate) string) string {
	if len(preds) == 0 {
		return ""
	}
	keys := make([]string, 0, len(preds)+2)
	for _, p := range decomposePreds(preds) {
		keys = append(keys, key(p))
	}
	sort.Strings(keys)
	uniq := keys[:1]
	for _, k := range keys[1:] {
		if k != uniq[len(uniq)-1] {
			uniq = append(uniq, k)
		}
	}
	return strings.Join(uniq, "\x1e")
}

// whereEntry returns the cached combined mask of a predicate list — bitmap
// plus matching-row indices — building it from the per-predicate bitmaps on
// first use. sig is the list's maskSig, computed once by the caller. A
// predicate-free query (sig "") returns (nil, nil): all rows.
func (e *Executor) whereEntry(preds []Predicate, sig string) (*maskEntry, error) {
	if sig == "" {
		return nil, nil
	}
	c := e.core
	c.mu.Lock()
	ent, hit, evicted := coreGet(&c.masks, sig, maxMaskEntries,
		func() *maskEntry { return &maskEntry{owner: e} })
	c.mu.Unlock()
	// Mask intersection is bitmap arithmetic, not a table pass (pass=false).
	e.noteShared(hit, evicted, ent.owner, &e.stats.MaskHits, &e.stats.MaskMisses, false)
	ent.once.Do(func() {
		ent.preds = decomposePreds(preds)
		var mask []uint64
		for _, p := range ent.preds {
			pm, err := e.predMask(p)
			if err != nil {
				ent.err = err
				return
			}
			if mask == nil {
				mask = make([]uint64, len(pm))
				copy(mask, pm)
				continue
			}
			for i := range mask {
				mask[i] &= pm[i]
			}
		}
		ent.bits = mask
		ent.rows = matchedRows(mask)
		ent.nrows = e.core.t.NumRows()
	})
	return ent, ent.err
}

// matchedRows materialises the row indices a bitmap selects, in ascending
// order. The popcount pass sizes the slice exactly, so the walk stores by
// index — no append bookkeeping, no realloc chain.
func matchedRows(mask []uint64) []int {
	cnt := 0
	for _, w := range mask {
		cnt += bits.OnesCount64(w)
	}
	rows := make([]int, cnt)
	ri := 0
	for wi, w := range mask {
		base := wi << 6
		for w != 0 {
			rows[ri] = base + bits.TrailingZeros64(w)
			ri++
			w &= w - 1
		}
	}
	return rows
}

// countScan bumps the shared-scan counter (one full pass over a plan group's
// matching rows).
func (e *Executor) countScan() {
	e.mu.Lock()
	e.stats.FusedScans++
	e.mu.Unlock()
}

// plan returns the cached plan-group entry for (keys, preds), running the
// group-discovery scan on first use: the non-empty groups under the WHERE
// mask in first-seen order over the matching rows (matching Query.Execute's
// output order), with total matching rows per group. Later queries on the
// same plan group — from any batch — skip straight to their value passes.
// The row list is pre-split into morsel segments, the unit every downstream
// scan walks. pk.sig is preds' maskSig.
func (e *Executor) plan(pk planKey, keys []string, preds []Predicate) (*planEntry, error) {
	gi, err := e.groupIndex(keys)
	if err != nil {
		return nil, err
	}
	me, err := e.whereEntry(preds, pk.sig)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	ent, hit, evicted := coreGet(&e.plans, pk, maxPlanEntries, func() *planEntry { return &planEntry{} })
	e.countLookup(hit, evicted, &e.stats.PlanHits, &e.stats.PlanMisses)
	e.mu.Unlock()
	ent.once.Do(func() {
		ent.gi = gi
		ent.keys = append([]string(nil), keys...)
		ent.me = me
		ent.nrows = e.core.t.NumRows()
		if me != nil {
			ent.rows = me.rows
		} else {
			ent.rows = e.core.rowIdentity()
		}
		ent.segs = morselSegments(ent.rows, e.core.morselRows)
		e.countScan()
		rowGID := gi.RowGroups()
		local := make([]int, gi.NumGroups())
		var repr, counts []int
		for _, sg := range ent.segs {
			e.noteMorsel()
			for _, i := range ent.rows[sg[0]:sg[1]] {
				gid := rowGID[i]
				li := local[gid]
				if li == 0 {
					repr = append(repr, i)
					counts = append(counts, 0)
					li = len(repr)
					local[gid] = li
				}
				counts[li-1]++
			}
		}
		ent.local, ent.repr, ent.counts = local, repr, counts
	})
	return ent, ent.err
}

// grabInts returns a zeroed length-n int slice backed by *buf, growing it as
// needed.
func grabInts(buf *[]int, n int) []int {
	if cap(*buf) < n {
		*buf = make([]int, n)
		return *buf
	}
	s := (*buf)[:n]
	clear(s)
	return s
}

// execResult is the group-level outcome of one query: the representative
// source row, aggregate value and validity per non-empty group, in first-seen
// order over the matching rows, plus the group index the query ran under.
// It may also carry the plan group's shared key columns. Slices can be shared
// across the queries of one plan group; they are read-only.
type execResult struct {
	gi      *dataframe.GroupIndex
	repr    []int
	vals    []float64
	valid   []bool
	keyCols []*dataframe.Column
}

// Execute evaluates one query against the executor's table, producing the
// same result table as Query.Execute — one row per non-empty group, in
// first-seen order over the matching rows — but through the shared caches,
// as a fused batch of one.
func (e *Executor) Execute(q Query, featureName string) (*dataframe.Table, error) {
	defer e.beginScan()()
	e.noteSingle()
	ers, err := e.executeGrouped(context.Background(), []Query{q}, nil, true, false)
	if err != nil {
		return nil, err
	}
	return resultTable(ers[0], featureName)
}

// noteSingle counts one call to a single-query entry point.
func (e *Executor) noteSingle() {
	e.mu.Lock()
	e.stats.CoreQueries++
	e.mu.Unlock()
}

// resultTable materialises an execution result as a (keys..., feature) table.
func resultTable(er execResult, featureName string) (*dataframe.Table, error) {
	out := dataframe.MustNewTable()
	for _, kc := range er.keyCols {
		if err := out.AddColumn(kc); err != nil {
			return nil, err
		}
	}
	if featureName == "" {
		featureName = "feature"
	}
	if err := out.AddColumn(dataframe.NewFloatColumn(featureName, er.vals, er.valid)); err != nil {
		return nil, err
	}
	return out, nil
}

// takeKeyCols materialises the group-key columns of a result (one row per
// non-empty group, representative-row values).
func takeKeyCols(gi *dataframe.GroupIndex, repr []int) []*dataframe.Column {
	cols := make([]*dataframe.Column, 0, len(gi.KeyColumns()))
	for _, kc := range gi.KeyColumns() {
		cols = append(cols, kc.Take(repr))
	}
	return cols
}

// joinEntry caches the training-table side of Augment's join for one
// (training table, key-set) pair: the train-side group index plus the
// mapping from relevant-table group ids to train-side group ids. With it,
// joining a query's feature onto the training table is pure integer
// indexing — the per-query string re-hash of the whole training table that
// LeftJoin would do is paid once per key-set instead. The index itself comes
// from the shared JoinCache (it depends only on d and the keys), so executors
// over different relevant tables reuse each other's build; only the rToD
// mapping is computed per executor.
type joinEntry struct {
	once   sync.Once
	keys   []string              // join key-set (for delta advances)
	idx    *dataframe.GroupIndex // over d's key columns, from the shared cache
	lookup map[string]int        // train key string -> train gid (retained for advances)
	rToD   []int                 // relevant gid -> train gid, -1 = no match
	err    error
}

type joinKey struct {
	d    *dataframe.Table
	keys string
}

func (e *Executor) joinIndex(d *dataframe.Table, keys []string) (*joinEntry, error) {
	k := joinKey{d: d, keys: strings.Join(keys, "\x1f")}
	e.mu.Lock()
	ent, hit, evicted := coreGet(&e.joins, k, maxJoinEntries, func() *joinEntry { return &joinEntry{} })
	e.countLookup(hit, evicted, &e.stats.JoinHits, &e.stats.JoinMisses)
	e.mu.Unlock()
	ent.once.Do(func() {
		idx, hit, evicted, err := e.joinCache.trainIndex(d, keys)
		e.mu.Lock()
		if hit {
			e.stats.SharedJoinHits++
		} else {
			e.stats.SharedJoinMisses++
		}
		if evicted {
			e.stats.SharedJoinEvictions++
		}
		e.mu.Unlock()
		if err != nil {
			ent.err = err
			return
		}
		ent.idx = idx
		ent.keys = append([]string(nil), keys...)
		rIdx, err := e.groupIndex(keys)
		if err != nil {
			ent.err = err
			return
		}
		// The lookup is retained: when appends grow the relevant-side index,
		// the delta advance maps only the NEW relevant groups through it (the
		// training table itself is epoch-frozen from the executor's view).
		lookup := make(map[string]int, ent.idx.NumGroups())
		for dg := 0; dg < ent.idx.NumGroups(); dg++ {
			lookup[ent.idx.Key(dg)] = dg
		}
		ent.lookup = lookup
		ent.rToD = make([]int, rIdx.NumGroups())
		for rg := 0; rg < rIdx.NumGroups(); rg++ {
			if dg, ok := lookup[rIdx.Key(rg)]; ok {
				ent.rToD[rg] = dg
			} else {
				ent.rToD[rg] = -1
			}
		}
	})
	return ent, ent.err
}

// AugmentValues evaluates the query and returns its feature aligned with
// d's rows (NULL on join miss, vals zeroed at NULL positions — the same
// convention Column.Floats yields), without materialising the joined table.
// This is the search loop's hot path: evaluators want the raw slices, not a
// Table. It runs as a fused batch of one into a one-column FeatureMatrix.
func (e *Executor) AugmentValues(d *dataframe.Table, q Query) ([]float64, []bool, error) {
	qs := []Query{q}
	if err := validateJoinKeys(d, qs); err != nil {
		return nil, nil, err
	}
	defer e.beginScan()()
	e.noteSingle()
	m, err := e.augmentMatrixCore(context.Background(), d, qs, false)
	if err != nil {
		return nil, nil, err
	}
	vals, valid := m.Col(0)
	return vals, valid, nil
}

// scatterScratch holds the per-plan-group train-group mapping and per-row
// local map of the scatter, recycled through a pool so it allocates neither
// O(train groups) nor O(rows(D)) scratch per use.
type scatterScratch struct {
	dgToLocal []int
	rowLocal  []int32
}

// grabInts32 returns a length-n int32 slice backed by *buf; contents are
// unspecified (callers overwrite every slot).
func grabInts32(buf *[]int32, n int) []int32 {
	if cap(*buf) < n {
		*buf = make([]int32, n)
		return *buf
	}
	return (*buf)[:n]
}

var scatterPool = sync.Pool{New: func() interface{} { return &scatterScratch{} }}

// Augment executes the query through the caches and left-joins the feature
// onto the training table d, mirroring Query.Augment: every d row appears
// exactly once, NULL on join miss, and the feature column is renamed with a
// "_r" suffix if d already has a column of that name (LeftJoin's rule).
func (e *Executor) Augment(d *dataframe.Table, q Query, featureName string) (*dataframe.Table, error) {
	vals, valid, err := e.AugmentValues(d, q)
	if err != nil {
		return nil, err
	}
	return augmentedTable(d, featureName, vals, valid)
}

// augmentedTable appends one feature column to d's columns under LeftJoin's
// renaming rule, sharing d's column storage.
func augmentedTable(d *dataframe.Table, featureName string, vals []float64, valid []bool) (*dataframe.Table, error) {
	if featureName == "" {
		featureName = "feature"
	}
	if d.HasColumn(featureName) {
		featureName += "_r"
	}
	out := dataframe.MustNewTable()
	for _, c := range d.Columns() {
		if err := out.AddColumn(c); err != nil {
			return nil, err
		}
	}
	if err := out.AddColumn(dataframe.NewFloatColumn(featureName, vals, valid)); err != nil {
		return nil, err
	}
	return out, nil
}

// ExecuteBatch evaluates a slice of candidate queries through the fused
// shared-scan path (see fused.go), preserving result order. The first error
// aborts the batch. Queries in a batch share group indexes, predicate
// bitmaps and plan groups, so a pool of similar queries — the shape every
// search procedure produces — pays the scan cost once per plan group instead
// of once per query.
func (e *Executor) ExecuteBatch(qs []Query, featureName string) ([]*dataframe.Table, error) {
	return e.ExecuteBatchContext(context.Background(), qs, featureName)
}

// ExecuteBatchContext is ExecuteBatch under a context: plan groups not yet
// started when the context is cancelled are skipped and the context error is
// returned, so a long batch aborts after at most the in-flight scans.
func (e *Executor) ExecuteBatchContext(ctx context.Context, qs []Query, featureName string) ([]*dataframe.Table, error) {
	defer e.beginScan()()
	ers, err := e.executeGrouped(ctx, qs, nil, true, true)
	if err != nil {
		return nil, err
	}
	results := make([]*dataframe.Table, len(qs))
	for i, er := range ers {
		res, err := resultTable(er, featureName)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", qs[i].SQL("R"), err)
		}
		results[i] = res
	}
	return results, nil
}

// AugmentBatch is ExecuteBatch followed by the left-join onto d, one result
// table per query.
func (e *Executor) AugmentBatch(d *dataframe.Table, qs []Query, featureName string) ([]*dataframe.Table, error) {
	return e.AugmentBatchContext(context.Background(), d, qs, featureName)
}

// AugmentBatchContext is AugmentBatch under a context (see
// ExecuteBatchContext for the cancellation contract).
func (e *Executor) AugmentBatchContext(ctx context.Context, d *dataframe.Table, qs []Query, featureName string) ([]*dataframe.Table, error) {
	vals, valid, err := e.AugmentValuesBatchContext(ctx, d, qs)
	if err != nil {
		return nil, err
	}
	results := make([]*dataframe.Table, len(qs))
	for i := range qs {
		res, err := augmentedTable(d, featureName, vals[i], valid[i])
		if err != nil {
			return nil, fmt.Errorf("%s: %w", qs[i].SQL("R"), err)
		}
		results[i] = res
	}
	return results, nil
}

// AugmentValuesBatch is AugmentValues over a slice of queries through the
// fused path: per-query feature slices aligned with d's rows, in input order.
// The returned slices are read-only views into one flat batch buffer (a
// FeatureMatrix), so retaining any one of them keeps the whole batch's buffer
// reachable; callers that keep a few columns of a large batch long-term
// should copy them out.
func (e *Executor) AugmentValuesBatch(d *dataframe.Table, qs []Query) ([][]float64, [][]bool, error) {
	return e.AugmentValuesBatchContext(context.Background(), d, qs)
}

// validateJoinKeys checks every query's join keys against the training
// table, shared by the batch augment entry points.
func validateJoinKeys(d *dataframe.Table, qs []Query) error {
	for _, q := range qs {
		for _, k := range q.Keys {
			if !d.HasColumn(k) {
				return fmt.Errorf("%s: query: training table has no join key %q", q.SQL("R"), k)
			}
		}
	}
	return nil
}

// AugmentValuesBatchContext is AugmentValuesBatch under a context (see
// ExecuteBatchContext for the cancellation contract).
func (e *Executor) AugmentValuesBatchContext(ctx context.Context, d *dataframe.Table, qs []Query) ([][]float64, [][]bool, error) {
	if err := validateJoinKeys(d, qs); err != nil {
		return nil, nil, err
	}
	defer e.beginScan()()
	// Every column lands in one flat matrix and the caller gets per-query
	// views into it — the same shared scatter as AugmentMatrix (keys were
	// validated above).
	m, err := e.augmentMatrixCore(ctx, d, qs, true)
	if err != nil {
		return nil, nil, err
	}
	vals := make([][]float64, len(qs))
	valid := make([][]bool, len(qs))
	for i := range qs {
		vals[i], valid[i] = m.Col(i)
	}
	return vals, valid, nil
}

// AugmentMatrix is AugmentValuesBatch with a columnar bulk output: every
// query's feature lands in one flat column-major buffer (see FeatureMatrix)
// instead of per-query slices, so downstream dataset assembly reads one
// allocation.
func (e *Executor) AugmentMatrix(d *dataframe.Table, qs []Query) (*FeatureMatrix, error) {
	return e.AugmentMatrixContext(context.Background(), d, qs)
}

// AugmentMatrixContext is AugmentMatrix under a context (see
// ExecuteBatchContext for the cancellation contract).
func (e *Executor) AugmentMatrixContext(ctx context.Context, d *dataframe.Table, qs []Query) (*FeatureMatrix, error) {
	if err := validateJoinKeys(d, qs); err != nil {
		return nil, err
	}
	defer e.beginScan()()
	return e.augmentMatrixCore(ctx, d, qs, true)
}

// augmentMatrixCore is AugmentMatrixContext after key validation; retain
// says whether plan groups keep their aggregate state (see runPlanGroup).
func (e *Executor) augmentMatrixCore(ctx context.Context, d *dataframe.Table, qs []Query, retain bool) (*FeatureMatrix, error) {
	m := newFeatureMatrix(d.NumRows(), len(qs))
	// One plan-group partition serves both stages: shared scans, then the
	// shared train-side scatter.
	order := e.groupBatch(qs)
	ers, err := e.executeGrouped(ctx, qs, order, false, retain)
	if err != nil {
		return nil, err
	}
	if err := e.scatterBatch(ctx, d, qs, ers, order, m); err != nil {
		return nil, err
	}
	return m, nil
}

// runBatch runs fn(0..n-1) on the executor's worker pool.
func (e *Executor) runBatch(ctx context.Context, n int, fn func(i int) error) error {
	return par.ForEachCtx(ctx, e.Parallelism, n, fn)
}
