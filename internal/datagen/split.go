package datagen

import (
	"fmt"
	"sort"

	"repro/internal/dataframe"
)

// maxSplitSources bounds how many relevant tables a split may produce — one
// search runs per source, so an accidental split on a high-cardinality column
// should fail loudly instead of launching hundreds of searches.
const maxSplitSources = 16

// SplitRelevant partitions the relevant table by the values of the string
// column col: the dataset:split=column scenario, where each value's rows form
// one relevant table of a multi-table problem. parts maps each value in names
// to a plain sub-table (Table.Take) holding its rows in their original order.
//
// With values nil, names are the column's distinct non-NULL values in
// ascending order, and there must be between 2 and maxSplitSources of them.
// Otherwise names are values (a plan's fit-time source names), and a value no
// row holds maps to an empty table. excluded counts the rows that land in no
// part: NULL split values, or values missing from the given list.
func (d *Dataset) SplitRelevant(col string, values []string) (names []string, parts map[string]*dataframe.Table, excluded int, err error) {
	r := d.Relevant
	c := r.Column(col)
	if c == nil {
		return nil, nil, 0, fmt.Errorf("split column %q not in relevant table (columns: %v)", col, r.ColumnNames())
	}
	if c.Kind() != dataframe.KindString {
		return nil, nil, 0, fmt.Errorf("split column %q is %s; splitting needs a string column", col, c.Kind())
	}
	rows := map[string][]int{}
	for i := 0; i < c.Len(); i++ {
		if !c.IsNull(i) {
			s := c.Str(i)
			rows[s] = append(rows[s], i)
		}
	}
	if values == nil {
		for v := range rows {
			values = append(values, v)
		}
		sort.Strings(values)
		if len(values) < 2 {
			return nil, nil, 0, fmt.Errorf("split column %q has %d distinct value(s); a multi-table scenario needs at least 2", col, len(values))
		}
		if len(values) > maxSplitSources {
			return nil, nil, 0, fmt.Errorf("split column %q has %d distinct values (max %d); pick a lower-cardinality column", col, len(values), maxSplitSources)
		}
	}
	excluded = r.NumRows()
	parts = make(map[string]*dataframe.Table, len(values))
	for _, v := range values {
		parts[v] = r.Take(rows[v])
		excluded -= len(rows[v])
	}
	return values, parts, excluded, nil
}
