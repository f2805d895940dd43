package dataframe

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"time"
)

// ColumnSpec declares the name and kind of one CSV column for ReadCSV.
type ColumnSpec struct {
	Name string
	Kind Kind
}

// ReadCSV parses CSV data with a header row into a table using the given
// specs (matched by header name; extra CSV columns are ignored). Empty cells
// become NULL. Time cells accept RFC3339 or unix seconds.
func ReadCSV(r io.Reader, specs []ColumnSpec) (*Table, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataframe: read header: %w", err)
	}
	pos := map[string]int{}
	for i, h := range header {
		pos[h] = i
	}
	cols := make([]*Column, len(specs))
	encs := make([]*encoder, len(specs)) // string columns encode in bulk
	idx := make([]int, len(specs))
	for i, s := range specs {
		p, ok := pos[s.Name]
		if !ok {
			return nil, fmt.Errorf("dataframe: CSV has no column %q", s.Name)
		}
		idx[i] = p
		cols[i] = &Column{name: s.Name, kind: s.Kind}
		if s.Kind == KindString {
			encs[i] = newEncoder(0)
		}
	}
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataframe: read line %d: %w", line, err)
		}
		for i, c := range cols {
			cell := rec[idx[i]]
			if encs[i] != nil {
				encs[i].add(cell, cell != "")
				c.valid = append(c.valid, cell != "")
				continue
			}
			if cell == "" {
				c.AppendNull()
				continue
			}
			if err := appendParsed(c, cell); err != nil {
				return nil, fmt.Errorf("dataframe: line %d column %q: %w", line, c.name, err)
			}
		}
	}
	for i, e := range encs {
		if e != nil {
			cols[i].dict = e.finish()
		}
	}
	return NewTable(cols...)
}

func appendParsed(c *Column, cell string) error {
	switch c.kind {
	case KindInt:
		v, err := strconv.ParseInt(cell, 10, 64)
		if err != nil {
			return err
		}
		c.AppendInt(v)
	case KindFloat:
		v, err := strconv.ParseFloat(cell, 64)
		if err != nil {
			return err
		}
		c.AppendFloat(v)
	case KindBool:
		v, err := strconv.ParseBool(cell)
		if err != nil {
			return err
		}
		c.AppendBool(v)
	case KindTime:
		if ts, err := time.Parse(time.RFC3339, cell); err == nil {
			c.AppendInt(ts.Unix())
			return nil
		}
		v, err := strconv.ParseInt(cell, 10, 64)
		if err != nil {
			return fmt.Errorf("not RFC3339 nor unix seconds: %q", cell)
		}
		c.AppendInt(v)
	}
	return nil
}

// WriteCSV emits the table as CSV with a header row. NULLs are empty cells;
// times are RFC3339.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.ColumnNames()); err != nil {
		return err
	}
	rec := make([]string, t.NumCols())
	for i := 0; i < t.nrows; i++ {
		for j, c := range t.cols {
			if c.IsNull(i) {
				rec[j] = ""
				continue
			}
			switch c.kind {
			case KindInt:
				rec[j] = strconv.FormatInt(c.ints[i], 10)
			case KindFloat:
				rec[j] = strconv.FormatFloat(c.floats[i], 'g', -1, 64)
			case KindString:
				rec[j] = c.strAt(i)
			case KindBool:
				rec[j] = strconv.FormatBool(c.bools[i])
			case KindTime:
				rec[j] = time.Unix(c.ints[i], 0).UTC().Format(time.RFC3339)
			}
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
