package query

// The scan scheduler: cross-executor sharing of table-scan state. PRs 3/5
// fused scans *within* one executor; every executor still owned its group
// indexes, predicate bitmaps, WHERE masks, float views and domain probes
// privately, so k executors over one table ran k identical full-table
// passes. This file hoists that state into a tableCore — the scan-side cache
// of ONE table — and a ScanScheduler that hands executors a shared core keyed
// by the table's identity fingerprint (the JoinCache pattern, applied to the
// relevant-table side).
//
// An executor built WithScanScheduler takes the scheduler's core for its
// table; without one it owns a private core. The serving layer routes every
// bound executor through the process scheduler, so a plan's executors and
// its appends (Append / AppendStats) meet at one epoch fence. The
// ExecutorStats counters make the sharing observable: SharedScanPasses counts
// full-table passes this executor ran to build a core entry, and
// SharedScanSubscribers counts cache hits on entries another executor built.
// MorselsScanned counts the morsel segments its scans actually walked (scans
// run morsel by morsel; see dataframe.MorselBounds).

import (
	"sync"

	"repro/internal/dataframe"
)

// tableCore is the scan-side state of one table: every cache whose contents
// depend only on the table (not on the executor) lives here. Executors over the same core share entries; entries record the
// executor that created them so subscribers can be counted. All maps are
// guarded by mu; the entries themselves synchronise through their once.
type tableCore struct {
	t          *dataframe.Table
	morselRows int

	// Epoch fence (PR 9). Scans hold fence.RLock for their whole pass;
	// appends and delta advances hold fence.Lock, so readers never observe a
	// half-appended table or half-advanced entries. epoch is the table epoch
	// the core's entries cover, and shiftEpoch the last epoch whose advance
	// re-encoded a dictionary (shifting codes and wiping the code-keyed
	// predicate/mask maps); both are guarded by fence. The maps below stay
	// guarded by mu as before — fence orders scans against appends, mu orders
	// entry creation within a scan.
	fence      sync.RWMutex
	epoch      uint64
	shiftEpoch uint64

	mu      sync.Mutex
	groups  map[string]*groupEntry
	preds   map[string]*predEntry
	masks   map[string]*maskEntry
	views   map[string]*viewEntry   // per-column float views (int/time/bool)
	domains map[string]*domainEntry // per-column low-cardinality domain probes
	dicts   map[string]*dictEntry   // per-column dictionary encodings (see dict.go)
	allRows []int                   // lazily built identity row list
}

// viewEntry is one cached column float view (see Executor.floatView).
type viewEntry struct {
	once sync.Once
	vals []float64
}

func newTableCore(t *dataframe.Table, morselRows int) *tableCore {
	if morselRows <= 0 {
		morselRows = dataframe.DefaultMorselRows
	}
	return &tableCore{
		t:          t,
		morselRows: morselRows,
		epoch:      t.Epoch(), // empty caches vacuously cover the current epoch
		groups:     map[string]*groupEntry{},
		preds:      map[string]*predEntry{},
		masks:      map[string]*maskEntry{},
	}
}

// coreGet returns m's entry for k, creating it with mk on a miss and dropping
// the whole map first when the bound is hit (in-flight holders keep their
// references). It is the one bounded-cache primitive: the core maps and the
// executor's plan and join maps all go through it. Caller must hold the lock
// guarding m. hit reports whether the entry already existed; evicted whether
// this lookup overflowed the bound.
func coreGet[K comparable, V any](m *map[K]*V, k K, max int, mk func() *V) (ent *V, hit, evicted bool) {
	if *m == nil {
		*m = map[K]*V{}
	}
	if ent, ok := (*m)[k]; ok {
		return ent, true, false
	}
	if len(*m) >= max {
		*m = make(map[K]*V, max/4)
		evicted = true
	}
	ent = mk()
	(*m)[k] = ent
	return ent, false, evicted
}

// rowIdentity returns the core's shared 0..n-1 row list, built once, so
// predicate-free plans scan through the same []int-driven loops as masked
// plans without a per-query allocation.
func (c *tableCore) rowIdentity() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.allRows == nil {
		c.allRows = make([]int, c.t.NumRows())
		for i := range c.allRows {
			c.allRows[i] = i
		}
	}
	return c.allRows
}

// maxCoreEntries bounds the scheduler's core map; like the other bounded
// caches the whole map is dropped on overflow (executors keep their core
// references; only future executors rebuild).
const maxCoreEntries = 64

// ScanScheduler shares tableCores across executors, keyed by table identity
// fingerprint: two executors over the same table get the same core and
// therefore share every table pass. MorselRows sets the morsel size of cores
// built by this scheduler; 0 means dataframe.DefaultMorselRows. All methods
// are safe for concurrent use. Executors take a scheduler's core only when
// built WithScanScheduler.
type ScanScheduler struct {
	MorselRows int

	mu    sync.Mutex
	cores map[uint64]*tableCore
}

// NewScanScheduler builds an empty scheduler.
func NewScanScheduler() *ScanScheduler {
	return &ScanScheduler{cores: map[uint64]*tableCore{}}
}

// processScheduler is the process-level scheduler.
var processScheduler = NewScanScheduler()

// ProcessScanScheduler returns the process-level scheduler, for callers that
// want every executor over a table in the process to share one core.
func ProcessScanScheduler() *ScanScheduler { return processScheduler }

// coreFor returns the scheduler's shared core for t, building it on first use.
func (s *ScanScheduler) coreFor(t *dataframe.Table) *tableCore {
	fp := t.Fingerprint()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cores == nil {
		s.cores = map[uint64]*tableCore{}
	}
	if c, ok := s.cores[fp]; ok {
		return c
	}
	if len(s.cores) >= maxCoreEntries {
		s.cores = make(map[uint64]*tableCore, maxCoreEntries/4)
	}
	c := newTableCore(t, s.MorselRows)
	s.cores[fp] = c
	return c
}

// Append appends batch to t (see dataframe.Table.AppendRows) through the
// epoch fence of t's shared core: the append waits out in-flight scans by
// executors sharing this scheduler and blocks new ones, so concurrent
// transform traffic never observes a half-appended table. Cache entries
// advance lazily when the next scan finds the core behind the table's epoch;
// back-to-back appends coalesce into one advance. Consumers of t outside
// this scheduler are not fenced — the serving daemon routes every bound
// executor through the process scheduler for exactly this reason.
func (s *ScanScheduler) Append(t, batch *dataframe.Table) error {
	c := s.coreFor(t)
	c.fence.Lock()
	defer c.fence.Unlock()
	return t.AppendRows(batch)
}

// AppendStats is Append reporting, under the same fence, the table's
// post-append epoch and total row count — the serving layer's append response.
// (Reading them outside the fence would race with concurrent appends; Epoch
// alone is atomic, but the row count is not.)
func (s *ScanScheduler) AppendStats(t, batch *dataframe.Table) (epoch uint64, rows int, err error) {
	c := s.coreFor(t)
	c.fence.Lock()
	defer c.fence.Unlock()
	err = t.AppendRows(batch)
	return t.Epoch(), t.NumRows(), err
}

// Len returns the number of shared cores (for tests).
func (s *ScanScheduler) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.cores)
}

// WithScanScheduler makes the executor take its scan-side caches from the
// given scheduler's shared core instead of a private one, so executors over
// the same table share group indexes, predicate bitmaps, masks, float views
// and domain probes. nil is ignored.
func WithScanScheduler(s *ScanScheduler) ExecutorOption {
	return func(e *Executor) {
		if s != nil {
			e.sched = s
		}
	}
}

// WithMorselRows sets the morsel size of the executor's PRIVATE scan core
// (n <= 0 means dataframe.DefaultMorselRows). Executors on a shared core take
// the scheduler's MorselRows instead — set it there. Differential tests use
// small sizes to exercise morsel boundaries; production callers leave the
// default.
func WithMorselRows(n int) ExecutorOption {
	return func(e *Executor) {
		e.optMorselRows = n
	}
}

// morselSegments splits a matching-row list into maximal runs that stay
// within one morsel of the scan table: segs[i] = [lo, hi) index range into
// rows. Scans walk the list segment by segment — the per-morsel unit at which
// they observe cancellation and count MorselsScanned — while their
// accumulators carry across segments in row order, which keeps every
// floating-point accumulation bit-identical to the flat loop (an independent
// per-morsel partial + merge would reassociate the sums).
func morselSegments(rows []int, size int) [][2]int {
	if len(rows) == 0 {
		return nil
	}
	segs := make([][2]int, 0, len(rows)/size+1)
	start := 0
	cur := rows[0] / size
	for i := 1; i < len(rows); i++ {
		if b := rows[i] / size; b != cur {
			segs = append(segs, [2]int{start, i})
			start, cur = i, b
		}
	}
	return append(segs, [2]int{start, len(rows)})
}
