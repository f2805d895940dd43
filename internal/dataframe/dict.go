package dataframe

// Dictionary encoding of string columns. A DictEncoding replaces per-row Go
// strings with small integer codes over the sorted distinct domain: predicates
// become integer compares, grouping becomes dense-array arithmetic, and the
// counting-sort path reads the codes it used to re-derive per probe. The
// encoding is cached on the column behind a sync.Once, so every consumer of
// the same column — executors, scan cores, served plans — shares one
// encode pass.
//
// Appends (PR 9) extend a built encoding IN PLACE whenever the delta keeps
// existing codes stable: appended values already in the domain reuse their
// code, and values sorting strictly after the current maximum join the end
// of the sorted domain with the next codes — in both cases the extended
// encoding is exactly what a from-scratch encode of the grown column would
// produce, and the *DictEncoding pointer is unchanged (the query layer reads
// pointer stability as "codes did not shift"). A mid-domain value would
// shift every code at or after its rank, so it swaps in a fresh holder for a
// lazy full re-encode (new pointer); a delta pushing the cardinality past
// MaxDictCardinality sets the encoding to nil, matching the from-scratch
// result. Columns follow the engine-wide contract that they are not mutated
// while scans are in flight.

import (
	"slices"
	"sort"
	"sync"
)

// MaxDictCardinality bounds the distinct non-null values a dictionary holds;
// columns above the cap stay unencoded (Dict returns nil) and every consumer
// falls back to its generic string path. The bound matches the counting-sort
// domain cap, so "dictionary exists" and "counting-eligible domain" coincide
// for string columns.
const MaxDictCardinality = 1024

// DictEncoding is the immutable dictionary form of one string column: the
// sorted distinct non-null values, a per-row []uint32 code (rank in the
// sorted domain; unspecified at NULL rows), a validity bitmap (LSB-first
// within each word, matching the query layer's predicate bitmaps), and —
// when the cardinality admits — a narrow uint8 or uint16 mirror of the codes
// for width-specialised kernels.
type DictEncoding struct {
	values    []string
	codes     []uint32
	codes8    []uint8  // non-nil when Cardinality() <= 256
	codes16   []uint16 // non-nil when Cardinality() in (256, 65536]
	validBits []uint64
	nulls     int
}

// Values returns the sorted distinct non-null values; code c decodes to
// Values()[c]. The slice is shared and read-only.
func (d *DictEncoding) Values() []string { return d.values }

// Codes returns the per-row codes. Values at NULL rows are unspecified;
// callers gate on ValidBits. The slice is shared and read-only.
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

// Cardinality returns the number of distinct non-null values.
func (d *DictEncoding) Cardinality() int { return len(d.values) }

// NullCount returns the number of NULL rows the encoding observed.
func (d *DictEncoding) NullCount() int { return d.nulls }

// NumRows returns the number of rows the encoding covers.
func (d *DictEncoding) NumRows() int { return len(d.codes) }

// CodeOf returns the code of value s and whether s is in the dictionary.
func (d *DictEncoding) CodeOf(s string) (uint32, bool) {
	i := sort.SearchStrings(d.values, s)
	if i < len(d.values) && d.values[i] == s {
		return uint32(i), true
	}
	return 0, false
}

// dictLazy is the column's once-guarded dictionary holder. built is written
// inside the once and read only under the column mutation contract (exclusive
// access), where it tells Append* whether an encoding exists to extend.
type dictLazy struct {
	once  sync.Once
	built bool
	enc   *DictEncoding
}

// Dict returns the column's dictionary encoding, building it on first use
// ("lazily on first scan"). It returns nil for non-string columns, for
// columns above MaxDictCardinality, and for string columns assembled outside
// the package constructors (no holder — they simply stay unencoded). Safe for
// concurrent use; all callers share one build.
func (c *Column) Dict() *DictEncoding {
	if c.kind != KindString || c.dict == nil {
		return nil
	}
	d := c.dict
	d.once.Do(func() {
		d.built = true
		d.enc = c.buildDictEncoding(MaxDictCardinality)
	})
	return d.enc
}

// buildDictEncoding scans the column once for its distinct domain and once
// more for the codes. maxCard above the cap returns nil. An all-NULL (or
// empty) column yields a valid encoding with an empty dictionary.
func (c *Column) buildDictEncoding(maxCard int) *DictEncoding {
	ranks := make(map[string]uint32)
	for i, s := range c.strs {
		if !c.valid[i] {
			continue
		}
		if _, dup := ranks[s]; !dup {
			if len(ranks) >= maxCard {
				return nil
			}
			ranks[s] = 0
		}
	}
	values := make([]string, 0, len(ranks))
	for s := range ranks {
		values = append(values, s)
	}
	slices.Sort(values)
	for rank, s := range values {
		ranks[s] = uint32(rank)
	}

	n := len(c.strs)
	d := &DictEncoding{
		values:    values,
		codes:     make([]uint32, n),
		validBits: make([]uint64, (n+63)/64),
	}
	switch {
	case len(values) <= 1<<8:
		d.codes8 = make([]uint8, n)
	case len(values) <= 1<<16:
		d.codes16 = make([]uint16, n)
	}
	for i, s := range c.strs {
		if !c.valid[i] {
			d.nulls++
			continue
		}
		code := ranks[s]
		d.codes[i] = code
		d.validBits[i>>6] |= 1 << uint(i&63)
		if d.codes8 != nil {
			d.codes8[i] = uint8(code)
		} else if d.codes16 != nil {
			d.codes16[i] = uint16(code)
		}
	}
	return d
}

// appendCode appends one row to the encoding: its code (pass 0 for NULL)
// and validity, growing the validity bitmap and keeping the narrow code
// mirrors in step — including rebuilding them when an extended domain
// crosses a width boundary.
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
	default:
		d.rebuildMirrors()
	}
}

// rebuildMirrors re-derives the narrow code mirrors from the full-width
// codes after a cardinality crossing.
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

// extendDictStr absorbs one appended value into a built encoding in place
// when existing codes stay stable (value in-domain, or sorting after the
// current maximum with room under the cap); otherwise it swaps in a fresh
// holder (mid-domain value) or nils the encoding (cap crossed). Called by
// AppendStr before the value lands in strs.
func (c *Column) extendDictStr(v string) {
	d := c.dict
	if d == nil {
		c.dict = &dictLazy{} // zero-value column grown by appends
		return
	}
	if !d.built || d.enc == nil {
		return // unbuilt: the lazy build covers the new row; nil: stays nil
	}
	enc := d.enc
	code, ok := enc.CodeOf(v)
	if !ok {
		if n := len(enc.values); n > 0 && v < enc.values[n-1] {
			c.rematerialize()    // compact columns need strs back before the encoding goes
			c.dict = &dictLazy{} // mid-domain value shifts codes: full re-encode
			return
		}
		if len(enc.values) >= MaxDictCardinality {
			c.rematerialize()
			d.enc = nil // from-scratch over the grown column is unencodable too
			return
		}
		code = uint32(len(enc.values))
		enc.values = append(enc.values, v)
	}
	enc.appendCode(code, true)
}

// extendDictNull is extendDictStr for an appended NULL, which never shifts
// codes.
func (c *Column) extendDictNull() {
	d := c.dict
	if d == nil {
		c.dict = &dictLazy{}
		return
	}
	if !d.built || d.enc == nil {
		return
	}
	d.enc.appendCode(0, false)
}

// extendDictBulk is the batch form of extendDictStr used by appendFrom: one
// pass classifies the delta (all values in-domain or strictly above the
// current maximum → extend in place; cap crossed → nil; mid-domain value →
// fresh holder), a second appends the per-row codes.
func (c *Column) extendDictBulk(vals []string, valid []bool) {
	d := c.dict
	if d == nil {
		c.dict = &dictLazy{}
		return
	}
	if !d.built || d.enc == nil {
		return
	}
	enc := d.enc
	var fresh []string
	for i, s := range vals {
		if !valid[i] {
			continue
		}
		if _, ok := enc.CodeOf(s); !ok {
			fresh = append(fresh, s)
		}
	}
	if len(fresh) > 0 {
		slices.Sort(fresh)
		fresh = slices.Compact(fresh)
		if len(enc.values)+len(fresh) > MaxDictCardinality {
			c.rematerialize()
			d.enc = nil
			return
		}
		if n := len(enc.values); n > 0 && fresh[0] < enc.values[n-1] {
			c.rematerialize()
			c.dict = &dictLazy{}
			return
		}
		enc.values = append(enc.values, fresh...)
	}
	for i, s := range vals {
		if !valid[i] {
			enc.appendCode(0, false)
			continue
		}
		code, _ := enc.CodeOf(s)
		enc.appendCode(code, true)
	}
}

// EncodeDicts eagerly builds the dictionary of every string column ("eagerly
// at load"): long-lived consumers — the serving daemon binding a plan, a CLI
// about to run a large batch — call it once so no query pays the first-scan
// encode. Columns above the cardinality cap are skipped. It returns the
// number of columns now carrying an encoding.
func (t *Table) EncodeDicts() int {
	n := 0
	for _, c := range t.cols {
		if c.Dict() != nil {
			n++
		}
	}
	return n
}
