package dataframe

import "fmt"

// LeftJoin joins t with right on equal composite key values
// (leftOn[i] == rightOn[i] for all i), LEFT OUTER semantics: every left row
// appears exactly once; right columns are NULL on miss. When a right key
// occurs multiple times only the first match is used (the query executor
// always joins against aggregated tables whose keys are unique, matching the
// paper's `D LEFT JOIN q(R) ON D.k = q(R).k`).
//
// Right key columns are omitted from the output. Right non-key columns that
// collide with a left name get a "_r" suffix.
func (t *Table) LeftJoin(right *Table, leftOn, rightOn []string) (*Table, error) {
	if len(leftOn) != len(rightOn) || len(leftOn) == 0 {
		return nil, fmt.Errorf("dataframe: join key lists must be equal-length and non-empty")
	}
	lcols, err := t.resolveColumns(leftOn)
	if err != nil {
		return nil, err
	}
	rcols, err := right.resolveColumns(rightOn)
	if err != nil {
		return nil, err
	}
	// Hash the right side: key -> first row.
	lookup := make(map[string]int, right.nrows)
	for i := 0; i < right.nrows; i++ {
		k := right.RowKey(i, rcols)
		if _, ok := lookup[k]; !ok {
			lookup[k] = i
		}
	}
	// Map each left row to a right row (-1 on miss).
	match := make([]int, t.nrows)
	for i := 0; i < t.nrows; i++ {
		if r, ok := lookup[t.RowKey(i, lcols)]; ok {
			match[i] = r
		} else {
			match[i] = -1
		}
	}
	out := &Table{index: map[string]int{}}
	for _, c := range t.cols {
		if err := out.AddColumn(c); err != nil {
			return nil, err
		}
	}
	rightKeySet := map[string]bool{}
	for _, n := range rightOn {
		rightKeySet[n] = true
	}
	for _, rc := range right.cols {
		if rightKeySet[rc.name] {
			continue
		}
		name := rc.name
		if out.HasColumn(name) {
			name += "_r"
		}
		if err := out.AddColumn(rc.take(match).Rename(name)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// InnerJoin joins t with right keeping only matching rows; like LeftJoin it
// uses the first right match per key. Used by the dataset generators when
// flattening multi-table schemas into a single relevant table (the paper
// joins e.g. the Instacart order/product/department tables the same way).
func (t *Table) InnerJoin(right *Table, leftOn, rightOn []string) (*Table, error) {
	joined, err := t.LeftJoin(right, leftOn, rightOn)
	if err != nil {
		return nil, err
	}
	lcols, err := t.resolveColumns(leftOn)
	if err != nil {
		return nil, err
	}
	rcols, err := right.resolveColumns(rightOn)
	if err != nil {
		return nil, err
	}
	lookup := make(map[string]bool, right.nrows)
	for i := 0; i < right.nrows; i++ {
		lookup[right.RowKey(i, rcols)] = true
	}
	return joined.Filter(func(row int) bool {
		return lookup[t.RowKey(row, lcols)]
	}), nil
}
