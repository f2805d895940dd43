package query

// The fused train-side scatter. Every augment entry point maps plan-group
// values onto the training table here: the queries are grouped by the same
// (key-set, WHERE-mask signature) plan groups as the execute path, and each
// group builds ONE dgToLocal mapping and runs ONE pass over the training
// table that writes every query's feature column in the same loop. Queries
// sharing a (plan group, agg pair) are served by one column, matching the
// slice sharing of the fused execute path; a single query is a group of one.
// Results are bit-identical to Query.Augment (the differential tests enforce
// it): the per-group projection tables fold the NULL/NaN convention before
// the pass, so the row loop is branch-free integer indexing.

import (
	"context"
	"fmt"
	"math"

	"repro/internal/dataframe"
	"repro/internal/par"
)

// FeatureMatrix is a columnar bulk feature output: NumFeatures() feature
// vectors over NumRows() training rows in one flat column-major buffer, so
// downstream dataset assembly (pipeline evaluation, ml.Dataset construction,
// bulk column appends) consumes a single allocation instead of per-feature
// slices. Column j occupies Vals[j*rows : (j+1)*rows], with Valid parallel.
type FeatureMatrix struct {
	rows, cols int
	Vals       []float64
	Valid      []bool
}

func newFeatureMatrix(rows, cols int) *FeatureMatrix {
	return &FeatureMatrix{
		rows: rows, cols: cols,
		Vals:  make([]float64, rows*cols),
		Valid: make([]bool, rows*cols),
	}
}

// NewFeatureMatrix allocates an empty rows×cols feature matrix. Callers
// outside the executor (plan assembly, serving scatter-back) fill columns
// through Col views.
func NewFeatureMatrix(rows, cols int) *FeatureMatrix {
	if rows < 0 || cols < 0 {
		panic("query: NewFeatureMatrix with negative dimensions")
	}
	return newFeatureMatrix(rows, cols)
}

// RowSlice copies rows [lo, hi) of every feature column into a fresh
// (hi-lo)×cols matrix. The serving coalescer uses it to scatter one fused
// AugmentMatrix pass back to the waiters that contributed each row range;
// the copy keeps waiter results alive independently of the batch buffer.
func (m *FeatureMatrix) RowSlice(lo, hi int) *FeatureMatrix {
	if lo < 0 || hi < lo || hi > m.rows {
		panic(fmt.Sprintf("query: RowSlice [%d, %d) out of range for %d rows", lo, hi, m.rows))
	}
	out := newFeatureMatrix(hi-lo, m.cols)
	for j := 0; j < m.cols; j++ {
		sv, sok := m.Col(j)
		dv, dok := out.Col(j)
		copy(dv, sv[lo:hi])
		copy(dok, sok[lo:hi])
	}
	return out
}

// NumRows returns the number of rows each feature column has.
func (m *FeatureMatrix) NumRows() int { return m.rows }

// NumFeatures returns the number of feature columns.
func (m *FeatureMatrix) NumFeatures() int { return m.cols }

// Col returns feature column j as (values, validity) views into the flat
// buffer. The views alias the matrix storage; treat them as read-only.
func (m *FeatureMatrix) Col(j int) ([]float64, []bool) {
	lo, hi := j*m.rows, (j+1)*m.rows
	return m.Vals[lo:hi:hi], m.Valid[lo:hi:hi]
}

// projSlot is one entry of a column's projection table: the feature value
// and validity of one local group, with the join-miss / NULL-aggregate / NaN
// conventions pre-folded (slot 0 = join miss or empty plan group).
type projSlot struct {
	v  float64
	ok bool
}

// scatterCol is one distinct output column of a plan group's shared scatter
// pass: its projection table (a view into a per-group slab, so a group costs
// a constant number of allocations however many columns it serves) plus the
// destination matrix column.
type scatterCol struct {
	proj  []projSlot
	vals  []float64
	valid []bool
}

// scatterBatch maps every query's group values onto d's rows through one
// shared pass per plan group, reusing the batch partition the execute stage
// grouped (order), and writes into m's columns. ers must come from
// executeGrouped over the same order, so queries of one plan group share
// gi/repr. Each distinct
// (plan group, agg pair) is scattered once, into its first query's column;
// duplicate queries are filled by copy.
func (e *Executor) scatterBatch(ctx context.Context, d *dataframe.Table, qs []Query, ers []execResult, order []*fusedGroup, m *FeatureMatrix) error {
	n := d.NumRows()
	return par.ForEachCtx(ctx, e.Parallelism, len(order), func(gidx int) error {
		g := order[gidx]
		er := ers[g.repSlot]
		jn, err := e.joinIndex(d, g.rep.Keys)
		if err != nil {
			return fmt.Errorf("%s: %w", g.rep.SQL("R"), err)
		}
		sc := scatterPool.Get().(*scatterScratch)
		defer scatterPool.Put(sc)
		dgToLocal := grabInts(&sc.dgToLocal, jn.idx.NumGroups()) // train gid -> local index + 1
		for li, r := range er.repr {
			if dg := jn.rToD[er.gi.GroupOf(r)]; dg >= 0 {
				dgToLocal[dg] = li + 1
			}
		}
		ngroups := len(er.repr)
		ncols := len(g.order)
		// One slab holds every column's projection table.
		pslab := make([]projSlot, (ngroups+1)*ncols)
		cols := make([]scatterCol, ncols)
		for ci, pair := range g.order {
			per := ers[g.slots[pair][0]]
			c := &cols[ci]
			lo := ci * (ngroups + 1)
			c.proj = pslab[lo : lo+ngroups+1 : lo+ngroups+1]
			for li := 0; li < ngroups; li++ {
				v := per.vals[li]
				// NaN aggregates are NULL, matching NewFloatColumn + Floats.
				if per.valid[li] && !math.IsNaN(v) {
					c.proj[li+1] = projSlot{v: v, ok: true}
				}
			}
			c.vals, c.valid = m.Col(g.slots[pair][0])
		}

		// The shared pass over the training table: resolve each row's local
		// group once — the random-access half of the scatter (row -> train
		// group -> plan-group slot) — into a compact sequential map that
		// every column of the group reuses. The pass walks the training
		// table morsel by morsel, observing the context at each boundary.
		bounds := dataframe.MorselBounds(n, e.core.morselRows)
		dRowGID := jn.idx.RowGroups()
		rowLocal := grabInts32(&sc.rowLocal, n)
		for _, bl := range bounds {
			if err := ctx.Err(); err != nil {
				return err
			}
			e.noteMorsel()
			for row := bl[0]; row < bl[1]; row++ {
				rowLocal[row] = int32(dgToLocal[dRowGID[row]])
			}
		}

		// Column fills: pure sequential streams off the shared row map, with
		// the miss/NULL branches pre-folded into the projection tables. The
		// context is observed per (column, morsel), so a huge single-group
		// batch still cancels inside the batch loop.
		for ci := range cols {
			c := &cols[ci]
			proj, cv, cok := c.proj, c.vals, c.valid
			for _, bl := range bounds {
				if err := ctx.Err(); err != nil {
					return err
				}
				for row := bl[0]; row < bl[1]; row++ {
					p := proj[rowLocal[row]]
					cv[row] = p.v
					cok[row] = p.ok
				}
			}
		}

		served := 0
		for ci, pair := range g.order {
			c := &cols[ci]
			for si, slot := range g.slots[pair] {
				if si > 0 {
					mv, mok := m.Col(slot)
					copy(mv, c.vals)
					copy(mok, c.valid)
				}
				served++
			}
		}
		e.mu.Lock()
		e.stats.ScatterPasses++
		e.stats.ScatterQueries += int64(served)
		e.mu.Unlock()
		return nil
	})
}
