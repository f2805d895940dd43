package datagen

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/dataframe"
)

// splitFixture is a relevant table with a string split column holding three
// values, every 17th one NULL.
func splitFixture(n int) *Dataset {
	k1 := make([]int64, n)
	x := make([]float64, n)
	grp := make([]string, n)
	grpValid := make([]bool, n)
	groups := []string{"b", "a", "c"}
	for i := 0; i < n; i++ {
		k1[i] = int64(i % 10)
		x[i] = float64(i)*1.25 - 30
		grp[i] = groups[i%3]
		grpValid[i] = i%17 != 0
	}
	return &Dataset{Relevant: dataframe.MustNewTable(
		dataframe.NewIntColumn("k1", k1, nil),
		dataframe.NewFloatColumn("x", x, nil),
		dataframe.NewStringColumn("grp", grp, grpValid),
	)}
}

// TestSplitRelevant covers the dataset:split=column partition: one plain
// sub-table per distinct non-NULL value in ascending order, rows kept in
// table order, NULL rows counted as excluded, and a caller-given value list
// (a plan's source names) binding absent values to empty tables.
func TestSplitRelevant(t *testing.T) {
	d := splitFixture(100)
	r := d.Relevant
	names, parts, excluded, err := d.SplitRelevant("grp", nil)
	if err != nil {
		t.Fatal(err)
	}
	wantNulls := 0
	for i := 0; i < 100; i += 17 {
		wantNulls++
	}
	if excluded != wantNulls {
		t.Fatalf("excluded = %d, want %d NULL rows", excluded, wantNulls)
	}
	if fmt.Sprint(names) != "[a b c]" || len(parts) != 3 {
		t.Fatalf("names = %v (%d parts), want sorted [a b c]", names, len(parts))
	}
	grp, x := r.Column("grp"), r.Column("x")
	total := 0
	for _, name := range names {
		// Each part holds exactly the value's rows, in table order.
		part, row := parts[name], 0
		for i := 0; i < r.NumRows(); i++ {
			if grp.IsNull(i) || grp.Str(i) != name {
				continue
			}
			if got := part.Column("x").FloatData()[row]; got != x.FloatData()[i] {
				t.Fatalf("part %s row %d: x = %v, want %v (table row %d)", name, row, got, x.FloatData()[i], i)
			}
			row++
		}
		if part.NumRows() != row {
			t.Fatalf("part %s has %d rows, want %d", name, part.NumRows(), row)
		}
		total += row
	}
	if total+excluded != r.NumRows() {
		t.Fatalf("parts cover %d + %d excluded rows, want %d", total, excluded, r.NumRows())
	}

	// A given value list keeps its order; an absent value binds an empty
	// table, and rows outside the list count as excluded.
	names, parts, excluded, err = d.SplitRelevant("grp", []string{"c", "gone", "a"})
	if err != nil {
		t.Fatal(err)
	}
	gone := parts["gone"]
	if fmt.Sprint(names) != "[c gone a]" || len(parts) != 3 || gone.NumRows() != 0 || gone.NumCols() != r.NumCols() {
		t.Fatalf("names = %v, gone part %d rows x %d cols", names, gone.NumRows(), gone.NumCols())
	}
	if want := r.NumRows() - parts["c"].NumRows() - parts["a"].NumRows(); excluded != want {
		t.Fatalf("excluded = %d, want %d", excluded, want)
	}
}

// TestSplitRelevantErrors pins the user-visible split errors.
func TestSplitRelevantErrors(t *testing.T) {
	d := splitFixture(50)
	one := &Dataset{Relevant: dataframe.MustNewTable(
		dataframe.NewStringColumn("s", []string{"v", "v", ""}, []bool{true, true, false}),
	)}
	many := make([]string, 40)
	for i := range many {
		many[i] = fmt.Sprintf("v%02d", i)
	}
	wide := &Dataset{Relevant: dataframe.MustNewTable(dataframe.NewStringColumn("s", many, nil))}
	cases := []struct {
		d    *Dataset
		col  string
		want string
	}{
		{d, "ghost", "not in relevant table"},
		{d, "x", "splitting needs a string column"},
		{one, "s", "has 1 distinct value(s); a multi-table scenario needs at least 2"},
		{wide, "s", "has 40 distinct values (max 16)"},
	}
	for _, c := range cases {
		_, _, _, err := c.d.SplitRelevant(c.col, nil)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("split on %q: err = %v, want it to mention %q", c.col, err, c.want)
		}
	}
}
