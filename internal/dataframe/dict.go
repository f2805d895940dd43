package dataframe

// Dictionary encoding is the one storage of every string column. A
// DictEncoding holds the column's distinct non-null values (the domain) and
// one integer code per row; there is no []string backing, and a NULL row
// reads as "". Predicates become integer compares, grouping becomes
// dense-array arithmetic, and the counting-sort path reads the codes
// directly.
//
// Codes are assigned in first-seen order, so an append never changes an
// existing row's code: a new value simply takes the next code. Readers that
// need sorted order (CodeOf, DistinctStrings, Floats, Table.SortBy, the
// counting sort, MODE/ENTROPY tie order) read the sorted permutation and the
// rank array kept beside the domain. Appends that grow the domain merge the
// new values into freshly allocated sorted/rank slices under the column
// mutation contract (no scans in flight), so no reader ever builds them.
//
// Take, Clone and Concat share a domain between columns. The shared values
// slice is handed out with its capacity clipped, so growth on either side
// reallocates instead of writing into the sibling's backing array, and
// sorted/rank are replaced, never written in place. Sibling columns therefore
// never write each other's slices.

import (
	"cmp"
	"slices"
	"sort"
)

// DictEncoding is the code storage of one string column: the domain in
// first-seen order, its sorted permutation and rank array, a per-row []uint32
// code (0 at NULL rows), a validity bitmap (LSB-first within each word,
// matching the query layer's predicate bitmaps) and, when the cardinality
// admits, a narrow uint8 or uint16 mirror of the codes for width-specialised
// kernels.
type DictEncoding struct {
	values    []string // distinct non-null values; code c decodes to values[c]
	sorted    []uint32 // codes in ascending value order
	rank      []uint32 // rank[c] is code c's position in sorted
	codes     []uint32
	codes8    []uint8  // non-nil when Cardinality() <= 256
	codes16   []uint16 // non-nil when Cardinality() in (256, 65536]
	validBits []uint64
	nulls     int
}

// Values returns the domain in code order; code c decodes to Values()[c].
// The slice is shared and read-only.
func (d *DictEncoding) Values() []string { return d.values }

// Sorted returns the codes in ascending value order. The slice is shared and
// read-only.
func (d *DictEncoding) Sorted() []uint32 { return d.sorted }

// Rank returns, per code, its position in ascending value order. The slice
// is shared and read-only.
func (d *DictEncoding) Rank() []uint32 { return d.rank }

// Codes returns the per-row codes. Values at NULL rows are 0; callers gate on
// ValidBits. The slice is shared and read-only.
func (d *DictEncoding) Codes() []uint32 { return d.codes }

// Codes8 returns the uint8 mirror of Codes, or nil when the cardinality
// exceeds the uint8 range.
func (d *DictEncoding) Codes8() []uint8 { return d.codes8 }

// Codes16 returns the uint16 mirror of Codes, or nil when a narrower or no
// mirror exists.
func (d *DictEncoding) Codes16() []uint16 { return d.codes16 }

// ValidBits returns the validity bitmap: bit i (LSB-first within word i/64)
// is set iff row i is non-NULL. The slice is shared and read-only.
func (d *DictEncoding) ValidBits() []uint64 { return d.validBits }

// Cardinality returns the number of values in the domain. A domain shared
// through Take may list values absent from the column's rows.
func (d *DictEncoding) Cardinality() int { return len(d.values) }

// NullCount returns the number of NULL rows.
func (d *DictEncoding) NullCount() int { return d.nulls }

// NumRows returns the number of rows the encoding covers.
func (d *DictEncoding) NumRows() int { return len(d.codes) }

// CodeOf returns the code of value s and whether s is in the domain, by
// binary search over the sorted permutation.
func (d *DictEncoding) CodeOf(s string) (uint32, bool) {
	i := sort.Search(len(d.sorted), func(i int) bool { return d.values[d.sorted[i]] >= s })
	if i < len(d.sorted) && d.values[d.sorted[i]] == s {
		return d.sorted[i], true
	}
	return 0, false
}

// Dict returns the dictionary encoding of a string column, or nil for other
// kinds. It is the column's storage, not a cache.
func (c *Column) Dict() *DictEncoding {
	if c.kind != KindString {
		return nil
	}
	return c.dict
}

// encodeStrings builds the encoding of a string column in one pass (see
// encoder).
func encodeStrings(values []string, valid []bool) *DictEncoding {
	e := newEncoder(len(values))
	for i, s := range values {
		e.add(s, valid[i])
	}
	return e.finish()
}

// encoder is the bulk builder of one string column: codes in first-seen
// order through a transient value→code map, then one sort of the domain in
// finish. Bulk paths use it so a column of many distinct values encodes in
// O(n + d log d).
type encoder struct {
	d     *DictEncoding
	index map[string]uint32
}

func newEncoder(rows int) *encoder {
	return &encoder{
		d:     &DictEncoding{codes: make([]uint32, 0, rows), validBits: make([]uint64, 0, (rows+63)/64)},
		index: make(map[string]uint32),
	}
}

// add appends one row: s when ok, else a NULL.
func (e *encoder) add(s string, ok bool) {
	d := e.d
	i := len(d.codes)
	if i&63 == 0 {
		d.validBits = append(d.validBits, 0)
	}
	if !ok {
		d.codes = append(d.codes, 0)
		d.nulls++
		return
	}
	code, seen := e.index[s]
	if !seen {
		code = uint32(len(d.values))
		e.index[s] = code
		d.values = append(d.values, s)
	}
	d.codes = append(d.codes, code)
	d.validBits[i>>6] |= 1 << uint(i&63)
}

// finish sorts the domain, derives the narrow mirror and returns the
// encoding.
func (e *encoder) finish() *DictEncoding {
	e.d.mergeSorted(0)
	e.d.rebuildMirrors()
	return e.d
}

// share returns an empty encoding over d's domain, for a column derived from
// d's (Take, Clone). The values slice is clipped to its length so either side
// reallocates when it grows; sorted and rank are only ever replaced.
func (d *DictEncoding) share(rows int) *DictEncoding {
	nv := len(d.values)
	return &DictEncoding{
		values:    d.values[:nv:nv],
		sorted:    d.sorted,
		rank:      d.rank,
		codes:     make([]uint32, 0, rows),
		validBits: make([]uint64, 0, (rows+63)/64),
	}
}

// mergeSorted folds the codes from old onward (values appended since the
// sorted permutation last covered old codes) into freshly allocated sorted
// and rank slices: sort the new codes by value, then one merge pass.
func (d *DictEncoding) mergeSorted(old int) {
	if old == len(d.values) && d.sorted != nil {
		return
	}
	fresh := make([]uint32, len(d.values)-old)
	for i := range fresh {
		fresh[i] = uint32(old + i)
	}
	slices.SortFunc(fresh, func(a, b uint32) int { return cmp.Compare(d.values[a], d.values[b]) })
	merged := make([]uint32, 0, len(d.values))
	prev := d.sorted
	for len(prev) > 0 && len(fresh) > 0 {
		if d.values[fresh[0]] < d.values[prev[0]] {
			merged, fresh = append(merged, fresh[0]), fresh[1:]
		} else {
			merged, prev = append(merged, prev[0]), prev[1:]
		}
	}
	merged = append(append(merged, prev...), fresh...)
	d.sorted = merged
	d.rank = make([]uint32, len(merged))
	for r, code := range merged {
		d.rank[code] = uint32(r)
	}
}

// appendCode appends one row to the encoding: its code (pass 0 for NULL)
// and validity, growing the validity bitmap and keeping the narrow code
// mirror in step, including rebuilding it when the domain crosses a width
// boundary.
func (d *DictEncoding) appendCode(code uint32, valid bool) {
	i := len(d.codes)
	d.codes = append(d.codes, code)
	if i&63 == 0 {
		d.validBits = append(d.validBits, 0)
	}
	if valid {
		d.validBits[i>>6] |= 1 << uint(i&63)
	} else {
		d.nulls++
	}
	card := len(d.values)
	switch {
	case d.codes8 != nil && card <= 1<<8:
		d.codes8 = append(d.codes8, uint8(code))
	case d.codes16 != nil && card <= 1<<16:
		d.codes16 = append(d.codes16, uint16(code))
	case d.codes8 == nil && d.codes16 == nil && card > 1<<16:
		// Wide domain: the []uint32 codes are the only lane.
	default:
		d.rebuildMirrors()
	}
}

// rebuildMirrors re-derives the narrow code mirror from the full-width codes
// after the domain crossed a width boundary.
func (d *DictEncoding) rebuildMirrors() {
	n := len(d.codes)
	d.codes8, d.codes16 = nil, nil
	switch {
	case len(d.values) <= 1<<8:
		d.codes8 = make([]uint8, n)
		for i, c := range d.codes {
			d.codes8[i] = uint8(c)
		}
	case len(d.values) <= 1<<16:
		d.codes16 = make([]uint16, n)
		for i, c := range d.codes {
			d.codes16[i] = uint16(c)
		}
	}
}

// appendValue appends one non-null row holding s, giving s the next code
// when it is new to the domain.
func (d *DictEncoding) appendValue(s string) {
	code, ok := d.CodeOf(s)
	if !ok {
		code = uint32(len(d.values))
		d.values = append(d.values, s)
		d.mergeSorted(int(code))
	}
	d.appendCode(code, true)
}

// appendFrom appends every row of o. Each of o's codes present in its rows
// is translated once (values new to d take the next codes, in o's row order)
// and the translated codes append per row. When d's domain extends o's, the
// codes carry over unchanged.
func (d *DictEncoding) appendFrom(o *DictEncoding, valid []bool) {
	old := len(d.values)
	var trans []uint32
	if len(o.values) > old || !slices.Equal(o.values, d.values[:len(o.values)]) {
		trans = make([]uint32, len(o.values))
		seen := make([]bool, len(o.values))
		for i, oc := range o.codes {
			if !valid[i] || seen[oc] {
				continue
			}
			seen[oc] = true
			code, ok := d.CodeOf(o.values[oc])
			if !ok {
				code = uint32(len(d.values))
				d.values = append(d.values, o.values[oc])
			}
			trans[oc] = code
		}
		// CodeOf above read a sorted permutation that did not yet cover the
		// fresh values; they are distinct from each other by construction.
		d.mergeSorted(old)
	}
	for i, oc := range o.codes {
		if !valid[i] {
			d.appendCode(0, false)
			continue
		}
		if trans != nil {
			oc = trans[oc]
		}
		d.appendCode(oc, true)
	}
}

// presenceRanks assigns each code present among the column's valid rows its
// rank among the present codes in ascending value order, and -1 to codes
// absent from the rows (a domain shared through Take may list them).
func presenceRanks(d *DictEncoding, valid []bool) []int {
	rank := make([]int, len(d.values))
	for i := range rank {
		rank[i] = -1
	}
	for i, code := range d.codes {
		if valid[i] {
			rank[code] = 0
		}
	}
	r := 0
	for _, code := range d.sorted {
		if rank[code] == 0 {
			rank[code] = r
			r++
		}
	}
	return rank
}
