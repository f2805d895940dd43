package dataframe

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync/atomic"
)

// Table is an ordered collection of equally sized columns.
type Table struct {
	cols  []*Column
	index map[string]int
	nrows int
	fp    atomic.Uint64 // lazily assigned identity fingerprint; 0 = unassigned

	// Epoch state (AppendRows): epoch counts completed append batches and
	// epochRows[e] is the row count as of epoch e (nil until the first
	// append, meaning epoch 0 with the current row count).
	epoch     atomic.Uint64
	epochRows []int
}

// NewTable builds a table from columns, which must share a length and have
// distinct names.
func NewTable(cols ...*Column) (*Table, error) {
	t := &Table{index: map[string]int{}}
	for _, c := range cols {
		if err := t.AddColumn(c); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// MustNewTable is NewTable but panics on error; intended for tests and
// generators with statically correct shapes.
func MustNewTable(cols ...*Column) *Table {
	t, err := NewTable(cols...)
	if err != nil {
		panic(err)
	}
	return t
}

// NumRows returns the number of rows.
func (t *Table) NumRows() int { return t.nrows }

// NumCols returns the number of columns.
func (t *Table) NumCols() int { return len(t.cols) }

// Columns returns the column list in declaration order. The slice is shared;
// callers must not mutate it.
func (t *Table) Columns() []*Column { return t.cols }

// ColumnNames returns the names in declaration order.
func (t *Table) ColumnNames() []string {
	names := make([]string, len(t.cols))
	for i, c := range t.cols {
		names[i] = c.name
	}
	return names
}

// Column returns the named column or nil.
func (t *Table) Column(name string) *Column {
	if i, ok := t.index[name]; ok {
		return t.cols[i]
	}
	return nil
}

// HasColumn reports whether a column with the given name exists.
func (t *Table) HasColumn(name string) bool {
	_, ok := t.index[name]
	return ok
}

// AddColumn appends a column. It fails on duplicate names or row-count
// mismatches (except when the table is empty).
func (t *Table) AddColumn(c *Column) error {
	if _, ok := t.index[c.name]; ok {
		return fmt.Errorf("dataframe: duplicate column %q", c.name)
	}
	if len(t.cols) > 0 && c.Len() != t.nrows {
		return fmt.Errorf("dataframe: column %q has %d rows, table has %d", c.name, c.Len(), t.nrows)
	}
	if len(t.cols) == 0 {
		t.nrows = c.Len()
	}
	t.index[c.name] = len(t.cols)
	t.cols = append(t.cols, c)
	return nil
}

// fingerprints hands out process-unique table identity tokens.
var fingerprints atomic.Uint64

// Fingerprint returns a process-unique identity token for the table, assigned
// lazily on first call and stable for the table's lifetime. Two distinct
// Table values never share a fingerprint, and derived tables (Take, Clone,
// ...) get identities of their own, so the token is safe to use as the key of
// cross-executor caches over table-derived artefacts (the train-side join
// index cache keys on it). Tables used that way must not be mutated after the
// first keyed use — the same contract executors already impose.
func (t *Table) Fingerprint() uint64 {
	if v := t.fp.Load(); v != 0 {
		return v
	}
	next := fingerprints.Add(1)
	if t.fp.CompareAndSwap(0, next) {
		return next
	}
	return t.fp.Load()
}

// Epoch returns the table's append epoch: 0 at construction, +1 per
// AppendRows batch. Fingerprint stays the cache identity of the table;
// Epoch versions its grow-only content, so a cache entry keyed on the
// fingerprint can tell how many rows it has already absorbed via
// RowsAtEpoch and advance over just the delta. Safe for concurrent use.
func (t *Table) Epoch() uint64 { return t.epoch.Load() }

// RowsAtEpoch returns the table's row count as of epoch e. It panics when e
// exceeds the current epoch.
func (t *Table) RowsAtEpoch(e uint64) int {
	if t.epochRows == nil {
		if e != 0 {
			panic(fmt.Sprintf("dataframe: epoch %d beyond table epoch 0", e))
		}
		return t.nrows
	}
	return t.epochRows[e]
}

// AppendRows appends every row of batch to the table and bumps the epoch.
// The batch must carry exactly the table's columns by name and kind (any
// order); extra or missing columns fail without mutating the table. Existing
// rows keep their positions and values — columns grow by a stable prefix —
// so caches built at an earlier epoch remain valid over rows
// [0, RowsAtEpoch(thatEpoch)) and only need to scan the appended suffix.
//
// Appends are mutations: the caller must hold exclusive access to the table
// (no scans in flight), the same contract as the per-value Append* methods.
// Query-layer consumers go through their scheduler's epoch fence instead of
// calling this directly. Tables sharing columns with a larger table
// (SelectColumns views) must not be appended through.
func (t *Table) AppendRows(batch *Table) error {
	src := make([]*Column, len(t.cols))
	for i, c := range t.cols {
		bc := batch.Column(c.name)
		if bc == nil {
			return fmt.Errorf("dataframe: append batch is missing column %q", c.name)
		}
		if bc.kind != c.kind {
			return fmt.Errorf("dataframe: append batch column %q is %s, table has %s", c.name, bc.kind, c.kind)
		}
		src[i] = bc
	}
	if batch.NumCols() != len(t.cols) {
		return fmt.Errorf("dataframe: append batch has %d columns, table has %d", batch.NumCols(), len(t.cols))
	}
	if batch.NumRows() == 0 {
		return nil
	}
	for i, c := range t.cols {
		c.appendFrom(src[i])
	}
	t.recordEpoch(batch.NumRows())
	return nil
}

// recordEpoch advances the epoch ledger after rows appended rows landed.
func (t *Table) recordEpoch(rows int) {
	if t.epochRows == nil {
		t.epochRows = append(t.epochRows, t.nrows)
	}
	t.nrows += rows
	t.epochRows = append(t.epochRows, t.nrows)
	t.epoch.Add(1)
}

// AddFloatColumnsFlat appends len(names) float columns backed by one flat
// column-major buffer: column j is vals[j*n : (j+1)*n] with validity
// valid[j*n : (j+1)*n], where n is the table's row count. The buffers are
// adopted, not copied (the bulk counterpart of AddColumn + NewFloatColumn for
// columnar batch outputs such as a feature matrix): NaN values are marked
// null in place, and callers must not reuse the buffers afterwards. On an
// empty table the row count is inferred from len(vals)/len(names).
func (t *Table) AddFloatColumnsFlat(names []string, vals []float64, valid []bool) error {
	n := t.nrows
	if len(t.cols) == 0 && len(names) > 0 {
		n = len(vals) / len(names)
	}
	if len(vals) != n*len(names) || len(valid) != n*len(names) {
		return fmt.Errorf("dataframe: flat buffer holds %d values, want %d columns x %d rows",
			len(vals), len(names), n)
	}
	for j, name := range names {
		v := vals[j*n : (j+1)*n : (j+1)*n]
		ok := valid[j*n : (j+1)*n : (j+1)*n]
		for i, x := range v {
			if math.IsNaN(x) {
				ok[i] = false
			}
		}
		if err := t.AddColumn(&Column{name: name, kind: KindFloat, floats: v, valid: ok}); err != nil {
			return err
		}
	}
	return nil
}

// DropColumn removes the named column; it is a no-op when absent.
func (t *Table) DropColumn(name string) {
	i, ok := t.index[name]
	if !ok {
		return
	}
	t.cols = append(t.cols[:i], t.cols[i+1:]...)
	delete(t.index, name)
	for j := i; j < len(t.cols); j++ {
		t.index[t.cols[j].name] = j
	}
	if len(t.cols) == 0 {
		t.nrows = 0
	}
}

// SelectColumns returns a new table sharing the named columns.
func (t *Table) SelectColumns(names ...string) (*Table, error) {
	out := &Table{index: map[string]int{}}
	for _, n := range names {
		c := t.Column(n)
		if c == nil {
			return nil, fmt.Errorf("dataframe: no column %q", n)
		}
		if err := out.AddColumn(c); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Take returns a new table containing the rows listed in idx, in order.
func (t *Table) Take(idx []int) *Table {
	out := &Table{index: map[string]int{}, nrows: len(idx)}
	for _, c := range t.cols {
		taken := c.Take(idx)
		out.index[taken.name] = len(out.cols)
		out.cols = append(out.cols, taken)
	}
	return out
}

// Filter returns the rows for which keep returns true.
func (t *Table) Filter(keep func(row int) bool) *Table {
	var idx []int
	for i := 0; i < t.nrows; i++ {
		if keep(i) {
			idx = append(idx, i)
		}
	}
	return t.Take(idx)
}

// FilterMask returns the rows where mask[i] is true. The mask length must
// equal the row count.
func (t *Table) FilterMask(mask []bool) *Table {
	idx := make([]int, 0, len(mask))
	for i, m := range mask {
		if m {
			idx = append(idx, i)
		}
	}
	return t.Take(idx)
}

// Head returns the first n rows (or fewer).
func (t *Table) Head(n int) *Table {
	if n > t.nrows {
		n = t.nrows
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return t.Take(idx)
}

// Clone deep-copies the table.
func (t *Table) Clone() *Table {
	out := &Table{index: map[string]int{}, nrows: t.nrows}
	for _, c := range t.cols {
		cc := c.Clone()
		out.index[cc.name] = len(out.cols)
		out.cols = append(out.cols, cc)
	}
	return out
}

// SortBy returns a copy of the table sorted ascending by the named column;
// NULLs sort last. Only numeric and string columns are supported.
func (t *Table) SortBy(name string) (*Table, error) {
	c := t.Column(name)
	if c == nil {
		return nil, fmt.Errorf("dataframe: no column %q", name)
	}
	idx := make([]int, t.nrows)
	for i := range idx {
		idx[i] = i
	}
	switch {
	case c.kind.IsNumeric() || c.kind == KindBool:
		sort.SliceStable(idx, func(a, b int) bool {
			va, oka := c.AsFloat(idx[a])
			vb, okb := c.AsFloat(idx[b])
			if oka != okb {
				return oka // non-null first
			}
			return va < vb
		})
	case c.kind == KindString:
		if c.compact {
			// Codes rank in domain order and the domain is sorted, so code
			// compares give the exact string order without materialising.
			codes := c.dict.enc.codes
			sort.SliceStable(idx, func(a, b int) bool {
				ia, ib := idx[a], idx[b]
				if c.valid[ia] != c.valid[ib] {
					return c.valid[ia]
				}
				return codes[ia] < codes[ib]
			})
			break
		}
		sort.SliceStable(idx, func(a, b int) bool {
			ia, ib := idx[a], idx[b]
			if c.valid[ia] != c.valid[ib] {
				return c.valid[ia]
			}
			if !c.valid[ia] {
				return false // NULL rows are unreadable: keep input order
			}
			return c.strs[ia] < c.strs[ib]
		})
	default:
		return nil, fmt.Errorf("dataframe: cannot sort by %s column %q", c.kind, name)
	}
	return t.Take(idx), nil
}

// RowKey builds the composite group/join key for a row over the given
// columns.
func (t *Table) RowKey(row int, cols []*Column) string {
	return string(appendRowKey(nil, row, cols))
}

// appendRowKey is RowKey into a reusable buffer, for hot grouping loops.
func appendRowKey(b []byte, row int, cols []*Column) []byte {
	for j, c := range cols {
		if j > 0 {
			b = append(b, '\x1f')
		}
		b = c.AppendKey(b, row)
	}
	return b
}

// resolveColumns maps names to columns, failing on the first unknown name.
func (t *Table) resolveColumns(names []string) ([]*Column, error) {
	cols := make([]*Column, len(names))
	for i, n := range names {
		c := t.Column(n)
		if c == nil {
			return nil, fmt.Errorf("dataframe: no column %q", n)
		}
		cols[i] = c
	}
	return cols, nil
}

// String renders up to 10 rows for debugging.
func (t *Table) String() string {
	var sb strings.Builder
	sb.WriteString(strings.Join(t.ColumnNames(), "\t"))
	sb.WriteByte('\n')
	n := t.nrows
	if n > 10 {
		n = 10
	}
	for i := 0; i < n; i++ {
		for j, c := range t.cols {
			if j > 0 {
				sb.WriteByte('\t')
			}
			if c.IsNull(i) {
				sb.WriteString("NULL")
			} else {
				fmt.Fprintf(&sb, "%v", c.Value(i))
			}
		}
		sb.WriteByte('\n')
	}
	if t.nrows > n {
		fmt.Fprintf(&sb, "... (%d rows)\n", t.nrows)
	}
	return sb.String()
}
