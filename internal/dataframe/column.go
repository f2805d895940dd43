// Package dataframe implements a small columnar table engine: typed columns
// with null bitmaps, filtering, sorting, group-by aggregation and left joins.
// It is the relational substrate FeatAug executes predicate-aware queries on,
// playing the role pandas plays in the original paper.
package dataframe

import (
	"fmt"
	"math"
	"strconv"
	"time"
)

// Kind identifies the physical type of a Column.
type Kind int

// Supported column kinds.
const (
	KindInt Kind = iota
	KindFloat
	KindString
	KindTime
	KindBool
)

// String returns the lower-case kind name ("int", "float", ...).
func (k Kind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindTime:
		return "time"
	case KindBool:
		return "bool"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// IsNumeric reports whether the kind holds ordered numeric data.
// Time counts as numeric because range predicates apply to it.
func (k Kind) IsNumeric() bool {
	return k == KindInt || k == KindFloat || k == KindTime
}

// Column is a typed vector of values with a validity (non-null) bitmap.
// The zero value is an empty int column named "".
type Column struct {
	name   string
	kind   Kind
	ints   []int64   // KindInt and KindTime (unix seconds)
	floats []float64 // KindFloat
	bools  []bool    // KindBool
	valid  []bool    // valid[i] == false means NULL
	// dict is the storage of a KindString column (see dict.go): the domain,
	// its sorted permutation and rank, and one code per row. There is no
	// []string backing. By-value copies (Rename) share it.
	dict *DictEncoding
}

// NewIntColumn builds an int column. A nil valid slice means all values are
// present.
func NewIntColumn(name string, values []int64, valid []bool) *Column {
	return &Column{name: name, kind: KindInt, ints: values, valid: normValid(valid, len(values))}
}

// NewFloatColumn builds a float column. NaN values are marked null.
func NewFloatColumn(name string, values []float64, valid []bool) *Column {
	v := normValid(valid, len(values))
	for i, x := range values {
		if math.IsNaN(x) {
			v[i] = false
		}
	}
	return &Column{name: name, kind: KindFloat, floats: values, valid: v}
}

// NewStringColumn builds a string column, dictionary-encoding values in one
// pass. Values at NULL rows are ignored.
func NewStringColumn(name string, values []string, valid []bool) *Column {
	v := normValid(valid, len(values))
	return &Column{name: name, kind: KindString, valid: v, dict: encodeStrings(values, v)}
}

// NewTimeColumn builds a time column from unix-seconds timestamps.
func NewTimeColumn(name string, unixSecs []int64, valid []bool) *Column {
	return &Column{name: name, kind: KindTime, ints: unixSecs, valid: normValid(valid, len(unixSecs))}
}

// NewBoolColumn builds a bool column.
func NewBoolColumn(name string, values []bool, valid []bool) *Column {
	return &Column{name: name, kind: KindBool, bools: values, valid: normValid(valid, len(values))}
}

func normValid(valid []bool, n int) []bool {
	if valid == nil {
		valid = make([]bool, n)
		for i := range valid {
			valid[i] = true
		}
		return valid
	}
	if len(valid) != n {
		panic(fmt.Sprintf("dataframe: valid length %d != values length %d", len(valid), n))
	}
	out := make([]bool, n)
	copy(out, valid)
	return out
}

// Name returns the column name.
func (c *Column) Name() string { return c.name }

// Kind returns the physical type of the column.
func (c *Column) Kind() Kind { return c.kind }

// Len returns the number of rows.
func (c *Column) Len() int { return len(c.valid) }

// Rename returns a copy of the column metadata under a new name, sharing the
// underlying data.
func (c *Column) Rename(name string) *Column {
	cp := *c
	cp.name = name
	return &cp
}

// IsNull reports whether the value at row i is NULL.
func (c *Column) IsNull(i int) bool { return !c.valid[i] }

// NullCount returns the number of NULL entries.
func (c *Column) NullCount() int {
	n := 0
	for _, v := range c.valid {
		if !v {
			n++
		}
	}
	return n
}

// Int returns the int64 value at row i. Valid for KindInt and KindTime.
func (c *Column) Int(i int) int64 {
	if c.kind != KindInt && c.kind != KindTime {
		panic("dataframe: Int on " + c.kind.String() + " column " + c.name)
	}
	return c.ints[i]
}

// Float returns the float64 value at row i. Valid for KindFloat.
func (c *Column) Float(i int) float64 {
	if c.kind != KindFloat {
		panic("dataframe: Float on " + c.kind.String() + " column " + c.name)
	}
	return c.floats[i]
}

// Str returns the string value at row i, decoded from the dictionary domain
// ("" at NULL rows). Valid for KindString.
func (c *Column) Str(i int) string {
	if c.kind != KindString {
		panic("dataframe: Str on " + c.kind.String() + " column " + c.name)
	}
	return c.strAt(i)
}

// strAt is the kind-unchecked per-row string read.
func (c *Column) strAt(i int) string {
	if !c.valid[i] {
		return ""
	}
	return c.dict.values[c.dict.codes[i]]
}

// Bool returns the bool value at row i. Valid for KindBool.
func (c *Column) Bool(i int) bool {
	if c.kind != KindBool {
		panic("dataframe: Bool on " + c.kind.String() + " column " + c.name)
	}
	return c.bools[i]
}

// Time returns the time value at row i. Valid for KindTime.
func (c *Column) Time(i int) time.Time {
	if c.kind != KindTime {
		panic("dataframe: Time on " + c.kind.String() + " column " + c.name)
	}
	return time.Unix(c.ints[i], 0).UTC()
}

// AsFloat returns the value at row i coerced to float64, and whether it is
// non-null. Strings and bools convert as: bool → 0/1, string → NaN/false.
func (c *Column) AsFloat(i int) (float64, bool) {
	if !c.valid[i] {
		return 0, false
	}
	switch c.kind {
	case KindInt, KindTime:
		return float64(c.ints[i]), true
	case KindFloat:
		return c.floats[i], true
	case KindBool:
		if c.bools[i] {
			return 1, true
		}
		return 0, true
	default:
		return math.NaN(), false
	}
}

// Value returns the value at row i as an interface, or nil when NULL.
func (c *Column) Value(i int) interface{} {
	if !c.valid[i] {
		return nil
	}
	switch c.kind {
	case KindInt:
		return c.ints[i]
	case KindFloat:
		return c.floats[i]
	case KindString:
		return c.strAt(i)
	case KindTime:
		return time.Unix(c.ints[i], 0).UTC()
	case KindBool:
		return c.bools[i]
	}
	return nil
}

// KeyString returns a canonical string for group-by / join hashing, with a
// sentinel for NULL.
func (c *Column) KeyString(i int) string {
	return string(c.AppendKey(nil, i))
}

// AppendKey appends the canonical key form of row i to b — KeyString without
// the per-call allocation, for hot grouping and join loops.
func (c *Column) AppendKey(b []byte, i int) []byte {
	if !c.valid[i] {
		return append(b, "\x00NULL"...)
	}
	switch c.kind {
	case KindInt, KindTime:
		b = append(b, 'i')
		return strconv.AppendInt(b, c.ints[i], 10)
	case KindFloat:
		b = append(b, 'f')
		return strconv.AppendFloat(b, c.floats[i], 'g', -1, 64)
	case KindString:
		b = append(b, 's')
		return append(b, c.strAt(i)...)
	case KindBool:
		if c.bools[i] {
			return append(b, "b1"...)
		}
		return append(b, "b0"...)
	}
	return b
}

// Bulk accessors expose the column's backing slices without copying, for hot
// loops (the fused query executor's shared scans) that would otherwise pay a
// kind switch and bounds checks per row through AsFloat/IsNull. The returned
// slices are the live backing store: callers must treat them as read-only and
// must check Kind first — a slice that does not back the column's kind is nil.

// IntData returns the backing int64 slice of a KindInt or KindTime column.
func (c *Column) IntData() []int64 { return c.ints }

// FloatData returns the backing float64 slice of a KindFloat column.
func (c *Column) FloatData() []float64 { return c.floats }

// BoolData returns the backing bool slice of a KindBool column.
func (c *Column) BoolData() []bool { return c.bools }

// ValidData returns the backing validity slice: valid[i] == false means NULL.
// Present for every kind.
func (c *Column) ValidData() []bool { return c.valid }

// Take returns a new column containing the rows listed in idx, in order. A
// taken string column shares the source's domain, which may then list values
// absent from the taken rows.
func (c *Column) Take(idx []int) *Column {
	return c.take(idx)
}

// take is Take where a negative index yields a NULL row (the join's miss).
func (c *Column) take(idx []int) *Column {
	out := &Column{name: c.name, kind: c.kind, valid: make([]bool, len(idx))}
	for j, i := range idx {
		out.valid[j] = i >= 0 && c.valid[i]
	}
	switch c.kind {
	case KindInt, KindTime:
		out.ints = make([]int64, len(idx))
		for j, i := range idx {
			if i >= 0 {
				out.ints[j] = c.ints[i]
			}
		}
	case KindFloat:
		out.floats = make([]float64, len(idx))
		for j, i := range idx {
			if i >= 0 {
				out.floats[j] = c.floats[i]
			}
		}
	case KindString:
		out.dict = c.dict.share(len(idx))
		for j, i := range idx {
			var code uint32
			if out.valid[j] {
				code = c.dict.codes[i]
			}
			out.dict.appendCode(code, out.valid[j])
		}
	case KindBool:
		out.bools = make([]bool, len(idx))
		for j, i := range idx {
			if i >= 0 {
				out.bools[j] = c.bools[i]
			}
		}
	}
	return out
}

// Floats materialises the column as a float64 slice plus a validity slice,
// coercing ints, times and bools. String columns yield ordinal codes over the
// sorted distinct domain so that downstream numeric consumers (ML models,
// MI estimators) can handle them.
func (c *Column) Floats() ([]float64, []bool) {
	out := make([]float64, c.Len())
	valid := make([]bool, c.Len())
	if c.kind == KindString {
		codes := c.ordinalCodes()
		for i := range out {
			out[i] = float64(codes[i])
			valid[i] = c.valid[i]
		}
		return out, valid
	}
	for i := range out {
		out[i], valid[i] = c.AsFloat(i)
	}
	return out, valid
}

// ordinalCodes maps each string value to its rank among the column's
// distinct non-null values in sorted order. NULLs get code -1.
func (c *Column) ordinalCodes() []int {
	rank := presenceRanks(c.dict, c.valid)
	codes := make([]int, len(c.dict.codes))
	for i, code := range c.dict.codes {
		if !c.valid[i] {
			codes[i] = -1
			continue
		}
		codes[i] = rank[code]
	}
	return codes
}

// AppendNull extends the column with one NULL row.
func (c *Column) AppendNull() {
	c.valid = append(c.valid, false)
	switch c.kind {
	case KindInt, KindTime:
		c.ints = append(c.ints, 0)
	case KindFloat:
		c.floats = append(c.floats, 0)
	case KindString:
		c.strDict().appendCode(0, false)
	case KindBool:
		c.bools = append(c.bools, false)
	}
}

// strDict returns the string column's encoding, creating an empty one for a
// column assembled without a constructor (the append paths' entry).
func (c *Column) strDict() *DictEncoding {
	if c.dict == nil {
		c.dict = &DictEncoding{}
	}
	return c.dict
}

// AppendInt extends an int or time column with a value.
func (c *Column) AppendInt(v int64) {
	if c.kind != KindInt && c.kind != KindTime {
		panic("dataframe: AppendInt on " + c.kind.String())
	}
	c.ints = append(c.ints, v)
	c.valid = append(c.valid, true)
}

// AppendFloat extends a float column with a value.
func (c *Column) AppendFloat(v float64) {
	if c.kind != KindFloat {
		panic("dataframe: AppendFloat on " + c.kind.String())
	}
	c.floats = append(c.floats, v)
	c.valid = append(c.valid, !math.IsNaN(v))
}

// AppendStr extends a string column with a value.
func (c *Column) AppendStr(v string) {
	if c.kind != KindString {
		panic("dataframe: AppendStr on " + c.kind.String())
	}
	c.strDict().appendValue(v)
	c.valid = append(c.valid, true)
}

// AppendBool extends a bool column with a value.
func (c *Column) AppendBool(v bool) {
	if c.kind != KindBool {
		panic("dataframe: AppendBool on " + c.kind.String())
	}
	c.bools = append(c.bools, v)
	c.valid = append(c.valid, true)
}

// appendFrom bulk-appends every row of o (same kind, checked by the caller),
// the column half of Table.AppendRows and Concat. Existing rows keep their
// positions, values and codes; string columns translate o's codes into the
// column's domain once per distinct value (see DictEncoding.appendFrom).
func (c *Column) appendFrom(o *Column) {
	switch c.kind {
	case KindInt, KindTime:
		c.ints = append(c.ints, o.ints...)
	case KindFloat:
		c.floats = append(c.floats, o.floats...)
	case KindString:
		if o.dict != nil { // nil only on a row-less column
			c.strDict().appendFrom(o.dict, o.valid)
		}
	case KindBool:
		c.bools = append(c.bools, o.bools...)
	}
	c.valid = append(c.valid, o.valid...)
}

// Clone deep-copies the column. A string column copies its codes and shares
// its domain (see DictEncoding.share).
func (c *Column) Clone() *Column {
	out := &Column{name: c.name, kind: c.kind}
	if c.kind == KindString {
		out.dict = c.dict.share(c.Len())
		out.dict.codes = append(out.dict.codes, c.dict.codes...)
		out.dict.validBits = append(out.dict.validBits, c.dict.validBits...)
		out.dict.nulls = c.dict.nulls
		out.dict.rebuildMirrors()
	}
	out.valid = append([]bool(nil), c.valid...)
	out.ints = append([]int64(nil), c.ints...)
	out.floats = append([]float64(nil), c.floats...)
	out.bools = append([]bool(nil), c.bools...)
	return out
}

// DistinctStrings returns the sorted distinct non-null values of a string
// column, capped at limit (0 = no cap): a presence scan over the codes, then
// the present values in sorted-permutation order.
func (c *Column) DistinctStrings(limit int) []string {
	if c.kind != KindString {
		panic("dataframe: DistinctStrings on " + c.kind.String())
	}
	enc := c.dict
	present := make([]bool, len(enc.values))
	for i, code := range enc.codes {
		if c.valid[i] {
			present[code] = true
		}
	}
	var out []string
	for _, code := range enc.sorted {
		if !present[code] {
			continue
		}
		out = append(out, enc.values[code])
		if limit > 0 && len(out) == limit {
			break
		}
	}
	return out
}

// MemBytes estimates the column's resident heap bytes: value storage plus
// validity plus, for string columns, the dictionary encoding (codes, narrow
// mirror, validity bitmap, sorted permutation, rank and domain). Domain
// strings count 16 bytes of header (8-byte pointer + 8-byte length on
// 64-bit) plus payload.
func (c *Column) MemBytes() int64 {
	b := int64(len(c.valid))
	switch c.kind {
	case KindInt, KindTime:
		b += 8 * int64(len(c.ints))
	case KindFloat:
		b += 8 * int64(len(c.floats))
	case KindBool:
		b += int64(len(c.bools))
	case KindString:
		d := c.dict
		b += 4*int64(len(d.codes)) + int64(len(d.codes8)) + 2*int64(len(d.codes16))
		b += 8*int64(len(d.validBits)) + 4*int64(len(d.sorted)+len(d.rank))
		for _, s := range d.values {
			b += 16 + int64(len(s))
		}
	}
	return b
}

// MinMaxFloat returns the minimum and maximum non-null values of a numeric
// column, and false when the column has no non-null values.
func (c *Column) MinMaxFloat() (lo, hi float64, ok bool) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for i := 0; i < c.Len(); i++ {
		v, valid := c.AsFloat(i)
		if !valid {
			continue
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
		ok = true
	}
	return lo, hi, ok
}
