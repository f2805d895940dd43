package dataframe

import (
	"fmt"
	"slices"
	"testing"
)

// fuzzValue names value id so that ids interleave in sorted order: a fresh
// id usually sorts inside the existing domain, not after it.
func fuzzValue(id int) string {
	return fmt.Sprintf("%c%d", 'a'+id%26, id)
}

// fuzzOps decodes a fuzz input into operations on one string column.
type fuzzOps struct {
	data []byte
	pos  int
}

func (o *fuzzOps) next() (byte, bool) {
	if o.pos >= len(o.data) {
		return 0, false
	}
	o.pos++
	return o.data[o.pos-1], true
}

func (o *fuzzOps) byteOr(def byte) byte {
	if b, ok := o.next(); ok {
		return b
	}
	return def
}

// FuzzStringColumnAppend drives a string column through a random initial
// build and a random sequence of AppendStr, AppendNull and Table.AppendRows
// calls (mid-domain values, NULL-only batches, batches sharing the column's
// domain, domains crossing 256 and 1024 values), checking after every step
// that no existing row's code changed, and at the end that every reader
// agrees with a plain []string model.
func FuzzStringColumnAppend(f *testing.F) {
	f.Add([]byte{8, 0, 1, 2, 1, 0, 9, 9})
	f.Add([]byte{0, 1, 1, 2, 40, 1, 0, 0, 0})
	f.Add([]byte{3, 2, 255, 0, 1, 0, 7, 2, 255, 0, 3, 0, 7, 2, 255, 0, 5, 0, 7, 2, 255, 0, 9, 0, 7, 2, 255, 0, 11, 0, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := &fuzzOps{data: data}
		var model []string
		var valid []bool
		n0 := int(ops.byteOr(0)) % 32
		for i := 0; i < n0; i++ {
			model = append(model, fuzzValue((i*7)%11))
			valid = append(valid, i%5 != 4)
		}
		c := NewStringColumn("s", model, valid)
		for step := 0; step < 64; step++ {
			op, ok := ops.next()
			if !ok {
				break
			}
			before := slices.Clone(c.Dict().Codes())
			switch op % 3 {
			case 0:
				id := int(ops.byteOr(0))<<8 | int(ops.byteOr(0))
				v := fuzzValue(id % 4096)
				c.AppendStr(v)
				model, valid = append(model, v), append(valid, true)
			case 1:
				c.AppendNull()
				model, valid = append(model, ""), append(valid, false)
			case 2:
				rows := int(ops.byteOr(0))
				mode := ops.byteOr(0)
				base := int(ops.byteOr(0))<<4 | int(mode>>4)
				stride := int(ops.byteOr(1))%13 + 1
				bs := make([]string, rows)
				bv := make([]bool, rows)
				for i := range bs {
					switch {
					case mode&1 == 1: // NULL-only batch
					case mode&6 == 2: // repeat values the column already holds
						if len(model) > 0 {
							j := (base + i*stride) % len(model)
							bs[i], bv[i] = model[j], valid[j]
						}
					default: // a run of mostly fresh values
						bs[i], bv[i] = fuzzValue((base+i*stride)%4096), i%9 != 8
					}
				}
				batch := MustNewTable(NewStringColumn("s", bs, bv))
				if mode&6 == 4 && c.Len() > 0 {
					// A batch taken from the column itself shares its domain.
					idx := make([]int, rows)
					for i := range idx {
						idx[i] = (base + i*stride) % c.Len()
					}
					batch = MustNewTable(c).Take(idx)
					bs, bv = bs[:0], bv[:0]
					for _, j := range idx {
						bs, bv = append(bs, model[j]), append(bv, valid[j])
					}
				}
				if err := MustNewTable(c).AppendRows(batch); err != nil {
					t.Fatal(err)
				}
				model, valid = append(model, bs...), append(valid, bv...)
			}
			if got := c.Dict().Codes(); !slices.Equal(got[:len(before)], before) {
				t.Fatalf("step %d (op %d) changed existing codes", step, op%3)
			}
		}
		checkAgainstModel(t, c, model, valid)
	})
}

// checkAgainstModel compares every reader of a string column with answers
// computed from a plain []string model.
func checkAgainstModel(t *testing.T, c *Column, model []string, valid []bool) {
	t.Helper()
	m := strModel{s: model, valid: valid}
	sameAsModel(t, "rows", m, c)
	enc := c.Dict()
	if enc.NumRows() != len(model) || c.NullCount() != enc.NullCount() {
		t.Fatalf("encoding covers %d rows / %d nulls, column %d / %d", enc.NumRows(), enc.NullCount(), len(model), c.NullCount())
	}

	// Domain structure: sorted is a permutation in value order, rank its
	// inverse, and the narrow mirror matches the cardinality.
	vals, sorted, rank := enc.Values(), enc.Sorted(), enc.Rank()
	if len(sorted) != len(vals) || len(rank) != len(vals) {
		t.Fatalf("domain %d values, sorted %d, rank %d", len(vals), len(sorted), len(rank))
	}
	for r, code := range sorted {
		if rank[code] != uint32(r) || (r > 0 && vals[sorted[r-1]] >= vals[code]) {
			t.Fatalf("sorted/rank inconsistent at rank %d", r)
		}
	}
	card := len(vals)
	if (enc.Codes8() != nil) != (card <= 256) || (enc.Codes16() != nil) != (card > 256 && card <= 1<<16) {
		t.Fatalf("cardinality %d carries the wrong narrow mirror", card)
	}
	for i, code := range enc.Codes() {
		if enc.Codes8() != nil && uint32(enc.Codes8()[i]) != code || enc.Codes16() != nil && uint32(enc.Codes16()[i]) != code {
			t.Fatalf("narrow mirror diverges at row %d", i)
		}
	}

	distinct := m.distinct()
	for _, v := range distinct {
		if code, ok := enc.CodeOf(v); !ok || vals[code] != v {
			t.Fatalf("CodeOf(%q) = %d,%v", v, code, ok)
		}
	}
	if _, ok := enc.CodeOf("~absent"); ok {
		t.Fatal("CodeOf found an absent value")
	}
	if got := c.DistinctStrings(0); !slices.Equal(got, distinct) {
		t.Fatalf("DistinctStrings = %v, want %v", got, distinct)
	}
	if lim := min(3, len(distinct)); lim > 0 {
		if got := c.DistinctStrings(3); !slices.Equal(got, distinct[:lim]) {
			t.Fatalf("DistinctStrings(3) = %v, want %v", got, distinct[:lim])
		}
	}
	fv, fok := c.Floats()
	for i := range model {
		if fok[i] != valid[i] {
			t.Fatalf("Floats validity row %d", i)
		}
		if valid[i] {
			if r, _ := slices.BinarySearch(distinct, model[i]); fv[i] != float64(r) {
				t.Fatalf("Floats row %d = %v, want rank %d", i, fv[i], r)
			}
		}
	}

	// Table.Sort: non-null values ascending, ties and NULLs in input order.
	x := make([]int64, len(model))
	for i := range x {
		x[i] = int64(i)
	}
	tbl := MustNewTable(c, NewIntColumn("x", x, nil))
	sortedTbl, err := tbl.SortBy("s")
	if err != nil {
		t.Fatal(err)
	}
	order := make([]int, len(model))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		switch {
		case valid[a] != valid[b]:
			if valid[a] {
				return -1
			}
			return 1
		case !valid[a]:
			return 0
		case model[a] < model[b]:
			return -1
		case model[a] > model[b]:
			return 1
		}
		return 0
	})
	for i, want := range order {
		if got := sortedTbl.Column("x").Int(i); got != int64(want) {
			t.Fatalf("SortBy row %d = source row %d, want %d", i, got, want)
		}
	}

	// Take and Concat against the model.
	idx := make([]int, 0, len(model)/2+1)
	for i := len(model) - 1; i >= 0; i -= 2 {
		idx = append(idx, i)
	}
	taken := tbl.Take(idx)
	sameAsModel(t, "take", m.take(idx), taken.Column("s"))
	fresh := MustNewTable(NewStringColumn("s", []string{"zz", "", fuzzValue(3)}, []bool{true, false, true}),
		NewIntColumn("x", []int64{-1, -2, -3}, nil))
	cat, err := Concat(tbl, taken, fresh)
	if err != nil {
		t.Fatal(err)
	}
	want := strModel{
		s:     slices.Concat(model, m.take(idx).s, []string{"zz", "", fuzzValue(3)}),
		valid: slices.Concat(valid, m.take(idx).valid, []bool{true, false, true}),
	}
	sameAsModel(t, "concat", want, cat.Column("s"))
	if got := cat.Column("s").DistinctStrings(0); !slices.Equal(got, want.distinct()) {
		t.Fatalf("concat DistinctStrings = %v, want %v", got, want.distinct())
	}
	// Growing the derived columns never writes the source's slices.
	cat.Column("s").AppendStr("~new")
	taken.Column("s").AppendStr("~new2")
	sameAsModel(t, "source after derivations", m, c)
	if _, ok := enc.CodeOf("~new"); ok {
		t.Fatal("a derived column's new value leaked into the source domain")
	}
}
