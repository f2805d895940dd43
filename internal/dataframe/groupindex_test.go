package dataframe

import (
	"math/rand"
	"testing"
)

// refGroupIndex is the generic string-keyed grouping algorithm, kept inline
// as the reference the int- and string-code fast paths must match exactly.
func refGroupIndex(t *testing.T, tbl *Table, keys ...string) (rowGID []int, keyStrs []string, repr, sizes []int) {
	t.Helper()
	cols := make([]*Column, len(keys))
	for i, k := range keys {
		cols[i] = tbl.Column(k)
		if cols[i] == nil {
			t.Fatalf("no column %q", k)
		}
	}
	ids := map[string]int{}
	rowGID = make([]int, tbl.NumRows())
	for i := 0; i < tbl.NumRows(); i++ {
		k := tbl.RowKey(i, cols)
		gid, ok := ids[k]
		if !ok {
			gid = len(keyStrs)
			ids[k] = gid
			keyStrs = append(keyStrs, k)
			repr = append(repr, i)
			sizes = append(sizes, 0)
		}
		rowGID[i] = gid
		sizes[gid]++
	}
	return rowGID, keyStrs, repr, sizes
}

// TestBuildGroupIndexIntFastPath checks the map[int64]int fast path for
// single integer and time keys — including NULL keys, which must form their
// own group — against the generic composite-string reference, for group ids,
// key strings, representatives and sizes alike.
func TestBuildGroupIndexIntFastPath(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 400
	vals := make([]int64, n)
	valid := make([]bool, n)
	for i := range vals {
		vals[i] = int64(rng.Intn(25)) - 12 // negatives exercise key encoding
		valid[i] = rng.Float64() > 0.1
	}
	for _, kind := range []string{"int", "time"} {
		var col *Column
		if kind == "int" {
			col = NewIntColumn("k", vals, valid)
		} else {
			col = NewTimeColumn("k", vals, valid)
		}
		tbl := MustNewTable(col)
		g, err := tbl.BuildGroupIndex("k")
		if err != nil {
			t.Fatal(err)
		}
		rowGID, keyStrs, repr, sizes := refGroupIndex(t, tbl, "k")
		if g.NumGroups() != len(keyStrs) {
			t.Fatalf("%s: %d groups, want %d", kind, g.NumGroups(), len(keyStrs))
		}
		for i := 0; i < n; i++ {
			if g.GroupOf(i) != rowGID[i] {
				t.Fatalf("%s: row %d gid %d, want %d", kind, i, g.GroupOf(i), rowGID[i])
			}
		}
		for gid := 0; gid < g.NumGroups(); gid++ {
			if g.Key(gid) != keyStrs[gid] {
				t.Fatalf("%s: group %d key %q, want %q", kind, gid, g.Key(gid), keyStrs[gid])
			}
			if g.Repr(gid) != repr[gid] {
				t.Fatalf("%s: group %d repr %d, want %d", kind, gid, g.Repr(gid), repr[gid])
			}
			if g.Size(gid) != sizes[gid] {
				t.Fatalf("%s: group %d size %d, want %d", kind, gid, g.Size(gid), sizes[gid])
			}
		}
	}
}

// TestBuildGroupIndexFastPathJoinCompatible ensures the fast path's key
// strings still line up with a generic-path index over equivalent string
// spellings — the property the executor's join mapping relies on when both
// sides group on the same key-set.
func TestBuildGroupIndexFastPathJoinCompatible(t *testing.T) {
	left := MustNewTable(NewIntColumn("k", []int64{3, 1, 3, 7}, nil))
	right := MustNewTable(NewIntColumn("k", []int64{7, 3}, nil))
	gl, err := left.BuildGroupIndex("k")
	if err != nil {
		t.Fatal(err)
	}
	gr, err := right.BuildGroupIndex("k")
	if err != nil {
		t.Fatal(err)
	}
	lookup := map[string]int{}
	for gid := 0; gid < gr.NumGroups(); gid++ {
		lookup[gr.Key(gid)] = gid
	}
	wants := map[int64]bool{3: true, 7: true, 1: false}
	for gid := 0; gid < gl.NumGroups(); gid++ {
		v := left.Column("k").Int(gl.Repr(gid))
		if _, ok := lookup[gl.Key(gid)]; ok != wants[v] {
			t.Fatalf("key %d: join match %v, want %v", v, ok, wants[v])
		}
	}
}
