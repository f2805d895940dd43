package dataframe

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// TestDictEncodingBuild pins the encoding of a small column with NULLs:
// first-seen codes, the sorted permutation and rank, narrow mirror, validity
// bitmap and null count.
func TestDictEncodingBuild(t *testing.T) {
	c := NewStringColumn("s",
		[]string{"pear", "apple", "", "pear", "fig", "apple"},
		[]bool{true, true, false, true, true, true})
	enc := c.Dict()
	if enc == nil {
		t.Fatal("Dict() = nil for a string column")
	}
	if got := enc.Values(); !slices.Equal(got, []string{"pear", "apple", "fig"}) {
		t.Fatalf("Values() = %v, want first-seen [pear apple fig]", got)
	}
	if got := enc.Sorted(); !slices.Equal(got, []uint32{1, 2, 0}) {
		t.Fatalf("Sorted() = %v, want [1 2 0] (apple fig pear)", got)
	}
	if got := enc.Rank(); !slices.Equal(got, []uint32{2, 0, 1}) {
		t.Fatalf("Rank() = %v, want [2 0 1]", got)
	}
	if enc.Cardinality() != 3 || enc.NullCount() != 1 || enc.NumRows() != 6 {
		t.Fatalf("card/nulls/rows = %d/%d/%d, want 3/1/6", enc.Cardinality(), enc.NullCount(), enc.NumRows())
	}
	wantCodes := []uint32{0, 1, 0, 0, 2, 1} // row 2 is NULL: code 0
	for i, w := range wantCodes {
		if enc.Codes()[i] != w {
			t.Errorf("Codes()[%d] = %d, want %d", i, enc.Codes()[i], w)
		}
		if enc.Codes8() == nil || uint32(enc.Codes8()[i]) != w {
			t.Errorf("Codes8()[%d] mismatch", i)
		}
	}
	if enc.Codes16() != nil {
		t.Error("Codes16() non-nil alongside Codes8()")
	}
	if want := uint64(0b111011); enc.ValidBits()[0] != want {
		t.Errorf("ValidBits()[0] = %b, want %b", enc.ValidBits()[0], want)
	}
	for _, tc := range []struct {
		s    string
		code uint32
		ok   bool
	}{{"pear", 0, true}, {"apple", 1, true}, {"fig", 2, true}, {"plum", 0, false}, {"", 0, false}, {"a", 0, false}} {
		code, ok := enc.CodeOf(tc.s)
		if code != tc.code || ok != tc.ok {
			t.Errorf("CodeOf(%q) = %d,%v want %d,%v", tc.s, code, ok, tc.code, tc.ok)
		}
	}
	if c.Str(2) != "" || c.Value(2) != nil {
		t.Error("NULL row must read as \"\" / nil")
	}
}

// TestDictEncodingWidths checks the narrow-mirror selection at the uint8 and
// uint16 boundaries, and that a domain above both keeps only the uint32
// codes. There is no cardinality cap.
func TestDictEncodingWidths(t *testing.T) {
	mk := func(card int) *Column {
		vals := make([]string, card)
		for i := range vals {
			vals[i] = fmt.Sprintf("v%06d", i)
		}
		return NewStringColumn("s", vals, nil)
	}
	if enc := mk(256).Dict(); enc.Codes8() == nil || enc.Codes16() != nil {
		t.Error("card 256: want a uint8 mirror")
	}
	if enc := mk(257).Dict(); enc.Codes8() != nil || enc.Codes16() == nil {
		t.Error("card 257: want a uint16 mirror")
	}
	if enc := mk(1 << 16).Dict(); enc.Codes16() == nil {
		t.Error("card 65536: want a uint16 mirror")
	}
	wide := mk(1<<16 + 1)
	if enc := wide.Dict(); enc.Codes8() != nil || enc.Codes16() != nil || enc.Cardinality() != 1<<16+1 {
		t.Error("card 65537: want the uint32 codes only")
	}
	wide.AppendStr("v000007")
	wide.AppendNull()
	if enc := wide.Dict(); enc.Codes8() != nil || enc.Codes16() != nil || enc.Codes()[1<<16+1] != 7 {
		t.Error("append to a wide column grew a mirror or misencoded")
	}
}

// TestDictEncodingEdges covers the degenerate shapes the differential sweep
// leans on: all-NULL (empty dictionary), single-value, and empty columns.
func TestDictEncodingEdges(t *testing.T) {
	allNull := NewStringColumn("s", []string{"x", "y"}, []bool{false, false})
	if enc := allNull.Dict(); enc.Cardinality() != 0 || enc.NullCount() != 2 {
		t.Errorf("all-NULL: enc = %+v, want empty dictionary with 2 nulls", enc)
	}
	single := NewStringColumn("s", []string{"k", "k", "k"}, nil)
	if enc := single.Dict(); enc.Cardinality() != 1 || enc.Codes8()[2] != 0 {
		t.Error("single-value: want cardinality 1, code 0 everywhere")
	}
	empty := NewStringColumn("s", nil, nil)
	if enc := empty.Dict(); enc.Cardinality() != 0 || enc.NumRows() != 0 {
		t.Error("empty column: want an empty encoding")
	}
	if _, ok := empty.Dict().CodeOf(""); ok {
		t.Error("empty domain must not contain \"\"")
	}
	empty.AppendStr("z")
	if empty.Str(0) != "z" || empty.Dict().Cardinality() != 1 {
		t.Error("append to an empty column misencoded")
	}
	if enc := NewIntColumn("i", []int64{1}, nil).Dict(); enc != nil {
		t.Error("non-string column: Dict() must be nil")
	}
}

// TestDictExtendOnAppend checks the append contract: appends extend the
// encoding in place, a value new to the domain takes the next code wherever
// it sorts, existing codes never change, and the sorted permutation and rank
// follow the grown domain.
func TestDictExtendOnAppend(t *testing.T) {
	c := NewStringColumn("s", []string{"b", "d"}, nil)
	first := c.Dict()
	c.AppendStr("e") // sorts after the max
	c.AppendNull()
	c.AppendStr("b") // in-domain: reuses its code
	c.AppendStr("a") // sorts before every value: still the next code
	c.AppendStr("c") // mid-domain: still the next code
	enc := c.Dict()
	if enc != first {
		t.Fatal("appends must extend the encoding in place")
	}
	if enc.NumRows() != 7 || enc.Cardinality() != 5 || enc.NullCount() != 1 {
		t.Errorf("extended encoding = %d rows / %d card / %d nulls, want 7/5/1",
			enc.NumRows(), enc.Cardinality(), enc.NullCount())
	}
	if want := []uint8{0, 1, 2, 0, 0, 3, 4}; !slices.Equal(enc.Codes8(), want) {
		t.Errorf("codes = %v, want %v", enc.Codes8(), want)
	}
	if want := []uint32{3, 0, 4, 1, 2}; !slices.Equal(enc.Sorted(), want) {
		t.Errorf("sorted = %v, want %v (a b c d e)", enc.Sorted(), want)
	}
	if want := []uint32{1, 3, 4, 0, 2}; !slices.Equal(enc.Rank(), want) {
		t.Errorf("rank = %v, want %v", enc.Rank(), want)
	}
	if got := c.DistinctStrings(0); !slices.Equal(got, []string{"a", "b", "c", "d", "e"}) {
		t.Errorf("DistinctStrings = %v", got)
	}
	// Bulk append through AppendRows: translated codes, fresh values next.
	tbl := MustNewTable(c)
	batch := MustNewTable(NewStringColumn("s", []string{"aa", "d", "", "zz", "aa"}, []bool{true, true, false, true, true}))
	if err := tbl.AppendRows(batch); err != nil {
		t.Fatal(err)
	}
	if want := []uint8{0, 1, 2, 0, 0, 3, 4, 5, 1, 0, 6, 5}; !slices.Equal(enc.Codes8(), want) {
		t.Errorf("codes after AppendRows = %v, want %v", enc.Codes8(), want)
	}
	if got := c.DistinctStrings(0); !slices.Equal(got, []string{"a", "aa", "b", "c", "d", "e", "zz"}) {
		t.Errorf("DistinctStrings after AppendRows = %v", got)
	}
}

// dictTestTable builds a grouping table mixing cardinalities, NULL densities
// and kinds so every group-build path has work to do.
func dictTestTable(tb testing.TB, rows int, seed int64) *Table {
	rng := rand.New(rand.NewSource(seed))
	s1 := make([]string, rows) // low cardinality, some NULLs
	v1 := make([]bool, rows)
	s2 := make([]string, rows) // higher cardinality
	s3 := make([]string, rows) // single value
	iv := make([]int64, rows)
	for i := 0; i < rows; i++ {
		s1[i] = fmt.Sprintf("c%d", rng.Intn(5))
		v1[i] = rng.Intn(10) != 0
		s2[i] = fmt.Sprintf("g%03d", rng.Intn(40))
		s3[i] = "only"
		iv[i] = int64(rng.Intn(7))
	}
	tbl, err := NewTable(
		NewStringColumn("s1", s1, v1),
		NewStringColumn("s2", s2, nil),
		NewStringColumn("s3", s3, nil),
		NewIntColumn("iv", iv, nil),
	)
	if err != nil {
		tb.Fatal(err)
	}
	return tbl
}

// TestGroupIndexDictEquivalence is the group-build differential: for every key
// shape the code paths serve, the index must be IDENTICAL — group ids, sizes,
// representatives and key bytes — to a string-keyed reference build.
func TestGroupIndexDictEquivalence(t *testing.T) {
	tbl := dictTestTable(t, 3000, 11)
	keySets := [][]string{
		{"s1"},             // single string, NULL group
		{"s2"},             // single string, wider domain
		{"s3"},             // single value
		{"s1", "s2"},       // combo: dense code space
		{"s2", "s1", "s3"}, // combo: order matters
		{"s1", "iv"},       // mixed kinds: generic in both modes
		{"iv", "s1", "s2"}, // mixed, string-led radix would differ
		{"s1", "s1"},       // repeated key column
	}
	for _, keys := range keySets {
		got, err := tbl.BuildGroupIndex(keys...)
		if err != nil {
			t.Fatal(err)
		}
		rowGID, keyStrs, repr, sizes := refGroupIndex(t, tbl, keys...)
		name := fmt.Sprintf("%v", keys)
		if got.NumGroups() != len(keyStrs) {
			t.Fatalf("%s: %d groups vs reference %d", name, got.NumGroups(), len(keyStrs))
		}
		for i := 0; i < tbl.NumRows(); i++ {
			if got.GroupOf(i) != rowGID[i] {
				t.Fatalf("%s: row %d gid %d vs reference %d", name, i, got.GroupOf(i), rowGID[i])
			}
		}
		for gid := 0; gid < got.NumGroups(); gid++ {
			if got.Key(gid) != keyStrs[gid] || got.Size(gid) != sizes[gid] || got.Repr(gid) != repr[gid] {
				t.Fatalf("%s: group %d (key %q size %d repr %d) vs reference (key %q size %d repr %d)",
					name, gid, got.Key(gid), got.Size(gid), got.Repr(gid),
					keyStrs[gid], sizes[gid], repr[gid])
			}
		}
	}
}

// TestGroupIndexComboOverCap checks an all-string key-set where one column
// holds more distinct values than the counting-sort domain (1024): the combo
// code space outgrows the dense table and hashes, and still matches the
// reference build.
func TestGroupIndexComboOverCap(t *testing.T) {
	rows := 1024 + 100
	big := make([]string, rows)
	small := make([]string, rows)
	for i := range big {
		big[i] = fmt.Sprintf("b%06d", i) // distinct per row: over the cap
		small[i] = fmt.Sprintf("s%d", i%3)
	}
	tbl, err := NewTable(
		NewStringColumn("big", big, nil),
		NewStringColumn("small", small, nil),
	)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tbl.BuildGroupIndex("small", "big")
	if err != nil {
		t.Fatal(err)
	}
	_, keyStrs, _, _ := refGroupIndex(t, tbl, "small", "big")
	if got.NumGroups() != len(keyStrs) || got.NumGroups() != rows {
		t.Fatalf("groups = %d vs reference %d, want %d", got.NumGroups(), len(keyStrs), rows)
	}
	for gid := 0; gid < rows; gid += 97 {
		if got.Key(gid) != keyStrs[gid] {
			t.Fatalf("group %d key %q vs reference %q", gid, got.Key(gid), keyStrs[gid])
		}
	}
}
