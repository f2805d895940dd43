package dataframe

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"testing"
)

// strModel is the plain reference for a string column: one Go string per row
// plus validity, the representation the code storage must be
// indistinguishable from through the public readers.
type strModel struct {
	s     []string
	valid []bool
}

// modelTable builds a random string-bearing table and its model; the x
// column numbers the rows so permutations are observable.
func modelTable(n int, seed int64) (*Table, strModel) {
	rng := rand.New(rand.NewSource(seed))
	cats := []string{"a", "aa", "b", "c", "dd", "e"}
	m := strModel{s: make([]string, n), valid: make([]bool, n)}
	x := make([]int64, n)
	for i := 0; i < n; i++ {
		m.valid[i] = rng.Float64() > 0.2
		if m.valid[i] {
			m.s[i] = cats[rng.Intn(len(cats))]
		}
		x[i] = int64(i)
	}
	return MustNewTable(NewStringColumn("s", m.s, m.valid), NewIntColumn("x", x, nil)), m
}

// take returns the model of Take(idx).
func (m strModel) take(idx []int) strModel {
	out := strModel{s: make([]string, len(idx)), valid: make([]bool, len(idx))}
	for j, i := range idx {
		out.s[j], out.valid[j] = m.s[i], m.valid[i]
	}
	return out
}

// distinct returns the model's sorted distinct non-null values.
func (m strModel) distinct() []string {
	var out []string
	for i, s := range m.s {
		if m.valid[i] {
			out = append(out, s)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// sameAsModel requires a column to agree row for row with its model through
// the public readers (Str, Value, IsNull); NULL rows read as "".
func sameAsModel(t *testing.T, label string, m strModel, c *Column) {
	t.Helper()
	if len(m.s) != c.Len() {
		t.Fatalf("%s: %d rows vs model %d", label, c.Len(), len(m.s))
	}
	for i := range m.s {
		if c.IsNull(i) != !m.valid[i] {
			t.Fatalf("%s row %d: null %v vs model %v", label, i, c.IsNull(i), !m.valid[i])
		}
		if !m.valid[i] {
			if c.Str(i) != "" || c.Value(i) != nil {
				t.Fatalf("%s row %d: NULL reads %q", label, i, c.Str(i))
			}
			continue
		}
		if c.Str(i) != m.s[i] || c.Value(i) != m.s[i] {
			t.Fatalf("%s row %d: %q vs model %q", label, i, c.Str(i), m.s[i])
		}
	}
}

// TestCompactBasics checks that every string column is code-backed at
// construction, at any cardinality, and reads back its values.
func TestCompactBasics(t *testing.T) {
	tbl, m := modelTable(300, 1)
	sc := tbl.Column("s")
	if sc.Dict() == nil || sc.Dict().NumRows() != 300 {
		t.Fatal("string column is not code-backed")
	}
	sameAsModel(t, "codes", m, sc)
	hi := make([]string, 2000)
	for i := range hi {
		hi[i] = fmt.Sprintf("u%05d", (i*7919)%2000)
	}
	hc := NewStringColumn("hc", hi, nil)
	if hc.Dict().Cardinality() != 2000 || hc.Str(7) != hi[7] {
		t.Error("a 2000-value column must encode like any other")
	}
}

// TestCompactAppendSemantics pins the append contract: in-domain values,
// mid-domain values, NULLs and a delta pushing the domain past 1024 values
// all extend the codes in place, and no existing row's code changes.
func TestCompactAppendSemantics(t *testing.T) {
	c := NewStringColumn("s", []string{"a", "b", "d", "b"}, nil)
	enc := c.Dict()
	before := slices.Clone(enc.Codes())
	c.AppendStr("d")
	c.AppendNull()
	c.AppendStr("c") // sorts inside {a,b,d}: takes the next code anyway
	c.AppendStr("a")
	for i, w := range []string{"a", "b", "d", "b", "d", "", "c", "a"} {
		if c.Str(i) != w {
			t.Fatalf("row %d = %q, want %q", i, c.Str(i), w)
		}
	}
	if !slices.Equal(enc.Codes()[:4], before) {
		t.Fatal("append changed existing codes")
	}
	if code, ok := enc.CodeOf("c"); !ok || code != 3 {
		t.Fatalf("CodeOf(c) = %d,%v, want 3,true", code, ok)
	}

	other := make([]string, 1200)
	for i := range other {
		other[i] = fmt.Sprintf("v%04d", 1199-i)
	}
	tb := MustNewTable(c)
	before = slices.Clone(enc.Codes())
	if err := tb.AppendRows(MustNewTable(NewStringColumn("s", other, nil))); err != nil {
		t.Fatal(err)
	}
	if c.Dict() != enc || !slices.Equal(enc.Codes()[:len(before)], before) {
		t.Fatal("crossing 1024 values replaced the encoding or changed codes")
	}
	if enc.Codes8() != nil || enc.Codes16() == nil {
		t.Fatal("1204-value domain must carry the uint16 mirror")
	}
	if c.Str(0) != "a" || c.Str(3) != "b" || c.Str(8) != "v1199" || c.Str(8+1199) != "v0000" {
		t.Fatal("rows corrupted across the domain growth")
	}
	if got := c.DistinctStrings(3); !slices.Equal(got, []string{"a", "b", "c"}) {
		t.Fatalf("DistinctStrings(3) = %v", got)
	}
}

// TestCompactTakeCloneSort checks the derived-column paths against the
// model, and that columns sharing a domain never see each other's appends.
func TestCompactTakeCloneSort(t *testing.T) {
	tbl, m := modelTable(400, 2)
	idx := []int{5, 0, 399, 17, 17, 250, 3}
	taken := tbl.Take(idx)
	sameAsModel(t, "take", m.take(idx), taken.Column("s"))

	cc := tbl.Column("s").Clone()
	sameAsModel(t, "clone", m, cc)
	// Appending new values to the clone and the taken column must not touch
	// the original or each other (the domain is shared, append-safe).
	cc.AppendStr("zz")
	cc.AppendStr("0")
	taken.Column("s").AppendStr("q")
	sameAsModel(t, "original after sibling appends", m, tbl.Column("s"))
	if _, ok := tbl.Column("s").Dict().CodeOf("zz"); ok {
		t.Fatal("clone's new value leaked into the original's domain")
	}
	if cc.Str(400) != "zz" || cc.Str(401) != "0" || taken.Column("s").Str(7) != "q" {
		t.Fatal("sibling appends misread")
	}

	sorted, err := tbl.SortBy("s")
	if err != nil {
		t.Fatal(err)
	}
	// The model's order: non-null values ascending, ties and NULLs in input
	// order, NULLs last.
	order := make([]int, len(m.s))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		switch {
		case m.valid[a] != m.valid[b]:
			if m.valid[a] {
				return -1
			}
			return 1
		case !m.valid[a]:
			return 0
		case m.s[a] < m.s[b]:
			return -1
		case m.s[a] > m.s[b]:
			return 1
		}
		return 0
	})
	for i, want := range order {
		if got := sorted.Column("x").Int(i); got != int64(want) {
			t.Fatalf("SortBy row %d = source row %d, want %d", i, got, want)
		}
	}
}

// TestConcatCompactSplice checks Concat over equal and unequal domains
// against the model: equal-domain inputs splice their codes unchanged,
// unequal ones translate, and the output shares no per-row state with its
// inputs.
func TestConcatCompactSplice(t *testing.T) {
	a, ma := modelTable(120, 3)
	b := a.Take([]int{7, 3, 100, 0, 55}) // shares a's domain
	mb := ma.take([]int{7, 3, 100, 0, 55})
	got, err := Concat(a, b)
	if err != nil {
		t.Fatal(err)
	}
	both := strModel{s: append(slices.Clone(ma.s), mb.s...), valid: append(slices.Clone(ma.valid), mb.valid...)}
	sameAsModel(t, "splice", both, got.Column("s"))
	if !slices.Equal(got.Column("s").Dict().Codes()[120:], b.Column("s").Dict().Codes()) {
		t.Error("equal-domain concat did not carry the codes over unchanged")
	}
	got.Column("s").AppendStr("new")
	sameAsModel(t, "input after output append", ma, a.Column("s"))

	d1 := MustNewTable(NewStringColumn("s", []string{"b", "a", "b"}, nil), NewIntColumn("x", []int64{1, 2, 3}, nil))
	d2 := MustNewTable(NewStringColumn("s", []string{"zz", "a", "", "zz"}, []bool{true, true, false, true}), NewIntColumn("x", []int64{4, 5, 6, 7}, nil))
	uneq, err := Concat(d1, d2)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range []string{"b", "a", "b", "zz", "a", "", "zz"} {
		if uneq.Column("s").Str(i) != w {
			t.Fatalf("unequal-domain concat row %d = %q, want %q", i, uneq.Column("s").Str(i), w)
		}
	}
	if enc := uneq.Column("s").Dict(); !slices.Equal(enc.Values(), []string{"b", "a", "zz"}) {
		t.Errorf("unequal-domain concat domain = %v, want first-seen [b a zz]", enc.Values())
	}
}

// TestDistinctStringsFromDomain checks the presence-scanned distinct values:
// sorted, capped by limit, and free of domain values a Take-derived column
// inherited but does not hold.
func TestDistinctStringsFromDomain(t *testing.T) {
	tbl, m := modelTable(200, 7)
	want := m.distinct()
	if got := tbl.Column("s").DistinctStrings(0); !slices.Equal(got, want) {
		t.Fatalf("DistinctStrings = %v, want %v", got, want)
	}
	if lim := tbl.Column("s").DistinctStrings(2); !slices.Equal(lim, want[:2]) {
		t.Fatalf("limited DistinctStrings = %v, want %v", lim, want[:2])
	}
	var idx []int
	for i := range m.s {
		if m.valid[i] && (m.s[i] == "aa" || m.s[i] == "dd") {
			idx = append(idx, i)
		}
	}
	sub := tbl.Take(idx).Column("s")
	if sub.Dict().Cardinality() != len(want) {
		t.Fatalf("taken column should inherit the %d-value domain", len(want))
	}
	if got := sub.DistinctStrings(0); !slices.Equal(got, []string{"aa", "dd"}) {
		t.Fatalf("inherited-domain DistinctStrings = %v, want [aa dd]", got)
	}
	// Floats: ranks among the values the rows hold, not the inherited domain.
	vals, valid := sub.Floats()
	for i := range vals {
		w := 0.0
		if sub.Str(i) == "dd" {
			w = 1
		}
		if !valid[i] || vals[i] != w {
			t.Fatalf("Floats row %d = %v,%v, want %v", i, vals[i], valid[i], w)
		}
	}
}

// TestCompactCSVAndGrouping covers CSV in both directions, grouping and join
// keys over code-backed columns against the model.
func TestCompactCSVAndGrouping(t *testing.T) {
	tbl, m := modelTable(150, 8)
	var buf bytes.Buffer
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(bytes.NewReader(buf.Bytes())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range recs[1:] {
		if rec[0] != m.s[i] || rec[1] != strconv.Itoa(i) {
			t.Fatalf("CSV row %d = %v, want [%q %d]", i, rec, m.s[i], i)
		}
	}
	back, err := ReadCSV(bytes.NewReader(buf.Bytes()), []ColumnSpec{{"s", KindString}, {"x", KindInt}})
	if err != nil {
		t.Fatal(err)
	}
	sameAsModel(t, "csv round trip", m, back.Column("s"))

	g, err := tbl.GroupBy("s")
	if err != nil {
		t.Fatal(err)
	}
	sizes := map[string]int{}
	for i := range m.s {
		sizes[tbl.Column("s").KeyString(i)]++
	}
	n := 0
	g.Each(func(key string, rows []int) {
		if sizes[key] != len(rows) {
			t.Errorf("group %q: %d rows vs model %d", key, len(rows), sizes[key])
		}
		n++
	})
	if n != len(sizes) {
		t.Fatalf("group count %d vs model %d", n, len(sizes))
	}

	right := MustNewTable(
		NewStringColumn("s", []string{"c", "a", "b"}, nil),
		NewFloatColumn("w", []float64{3, 1, 2}, nil),
	)
	j, err := tbl.LeftJoin(right, []string{"s"}, []string{"s"})
	if err != nil {
		t.Fatal(err)
	}
	weight := map[string]float64{"a": 1, "b": 2, "c": 3}
	for i := range m.s {
		w, hit := weight[m.s[i]]
		hit = hit && m.valid[i]
		if j.Column("w").IsNull(i) == hit || (hit && j.Column("w").Float(i) != w) {
			t.Fatalf("join row %d diverges", i)
		}
	}
}

// TestMemBytesCompactReduction is the memory-observability check: a string
// column's resident bytes must be at most half of what one Go string per row
// (16 header bytes plus payload) would cost.
func TestMemBytesCompactReduction(t *testing.T) {
	tbl, m := modelTable(4096, 9)
	total, cols := tbl.MemBytes()
	if total <= 0 || len(cols) != 2 {
		t.Fatalf("MemBytes shape: %d bytes, %d cols", total, len(cols))
	}
	var perRowStrings int64
	for _, s := range m.s {
		perRowStrings += 16 + int64(len(s)) + 1 // + validity
	}
	var sBytes int64
	for _, cm := range cols {
		if cm.Name == "s" {
			sBytes = cm.Bytes
		}
	}
	if perRowStrings < 2*sBytes {
		t.Errorf("string column bytes %d vs []string layout %d, want >= 2x reduction", sBytes, perRowStrings)
	}
	if tbl.Column("x").MemBytes() != 4096*9 {
		t.Error("int column accounting changed")
	}
}
