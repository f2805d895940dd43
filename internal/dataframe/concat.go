package dataframe

import (
	"fmt"
	"math"
	"sort"
)

// Concat vertically stacks tables with identical schemas (same column names
// and kinds, in any order; the first table's order wins). Each output column
// is a clone of the first input's column with the others bulk-appended, so a
// string column shares the first input's domain and inputs over that same
// domain splice their codes unchanged (see DictEncoding.appendFrom).
func Concat(tables ...*Table) (*Table, error) {
	if len(tables) == 0 {
		return nil, fmt.Errorf("dataframe: concat of nothing")
	}
	first := tables[0]
	for _, t := range tables[1:] {
		if t.NumCols() != first.NumCols() {
			return nil, fmt.Errorf("dataframe: concat: column count mismatch (%d vs %d)", t.NumCols(), first.NumCols())
		}
	}
	out := &Table{index: map[string]int{}}
	for _, c := range first.cols {
		acc := c.Clone()
		for _, t := range tables[1:] {
			src := t.Column(c.name)
			if src == nil {
				return nil, fmt.Errorf("dataframe: concat: table missing column %q", c.name)
			}
			if src.kind != c.kind {
				return nil, fmt.Errorf("dataframe: concat: column %q kind mismatch (%s vs %s)", c.name, src.kind, c.kind)
			}
			acc.appendFrom(src)
		}
		if err := out.AddColumn(acc); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ColumnSummary describes one column's distribution.
type ColumnSummary struct {
	Name     string
	Kind     Kind
	Count    int // non-null values
	Nulls    int
	Distinct int     // distinct non-null values (strings/bools only; -1 otherwise)
	Mean     float64 // numeric kinds only
	Std      float64
	Min      float64
	P50      float64
	Max      float64
}

// Describe computes per-column summary statistics, the pandas-style
// diagnostic used when inspecting generated datasets.
func (t *Table) Describe() []ColumnSummary {
	out := make([]ColumnSummary, 0, len(t.cols))
	for _, c := range t.cols {
		s := ColumnSummary{Name: c.name, Kind: c.kind, Distinct: -1}
		switch c.kind {
		case KindString, KindBool:
			seen := map[string]bool{}
			for i := 0; i < c.Len(); i++ {
				if c.IsNull(i) {
					s.Nulls++
					continue
				}
				s.Count++
				seen[c.KeyString(i)] = true
			}
			s.Distinct = len(seen)
		default:
			var vals []float64
			for i := 0; i < c.Len(); i++ {
				v, ok := c.AsFloat(i)
				if !ok {
					s.Nulls++
					continue
				}
				s.Count++
				vals = append(vals, v)
			}
			if len(vals) > 0 {
				sort.Float64s(vals)
				s.Min = vals[0]
				s.Max = vals[len(vals)-1]
				s.P50 = vals[len(vals)/2]
				sum := 0.0
				for _, v := range vals {
					sum += v
				}
				s.Mean = sum / float64(len(vals))
				ss := 0.0
				for _, v := range vals {
					d := v - s.Mean
					ss += d * d
				}
				s.Std = math.Sqrt(ss / float64(len(vals)))
			}
		}
		out = append(out, s)
	}
	return out
}
