// Package pipeline provides the shared evaluation plumbing of the paper's
// experimental protocol: given a training table D, a relevant table R and a
// downstream model, it augments candidate queries onto D (Definition 3),
// splits 0.6/0.2/0.2, trains the model, and reports validation loss
// (Problem 1's objective) plus the low-cost proxy scores of Section V.C /
// VI.C (MI, Spearman, LR). Both the FeatAug engine and every baseline run
// through this package so comparisons are apples-to-apples.
package pipeline

import (
	"context"
	"fmt"
	"math"

	"repro/internal/dataframe"
	"repro/internal/ml"
	"repro/internal/query"
	"repro/internal/stats"
)

// Problem describes one dataset in template terms (the union of Table I and
// Table II information).
type Problem struct {
	Train        *dataframe.Table
	Relevant     *dataframe.Table
	Label        string
	Task         ml.Task
	Keys         []string
	AggAttrs     []string
	PredAttrs    []string
	BaseFeatures []string
}

// Normalized returns a copy of the problem with the defaulting rules applied:
// empty PredAttrs defaults to AggAttrs (Section IV's template quadruple always
// has a predicate-attribute set; aggregation attributes are the natural
// fallback). This is the single place the rule lives — NewEvaluator applies
// it, so the single-table Fit path and the multi-table FitMulti/AugmentMulti
// path behave identically.
func (p Problem) Normalized() Problem {
	if len(p.PredAttrs) == 0 && len(p.AggAttrs) > 0 {
		p.PredAttrs = append([]string(nil), p.AggAttrs...)
	}
	return p
}

// Validate checks the problem is internally consistent: tables present, the
// label on the training side only, keys on both sides, and every template
// ingredient (aggregation and predicate attributes) present in the relevant
// table.
func (p *Problem) Validate() error {
	if p.Train == nil || p.Relevant == nil {
		return fmt.Errorf("pipeline: nil tables")
	}
	if !p.Train.HasColumn(p.Label) {
		return fmt.Errorf("pipeline: training table has no label %q", p.Label)
	}
	if len(p.Keys) == 0 {
		return fmt.Errorf("pipeline: no foreign keys")
	}
	for _, k := range p.Keys {
		if !p.Train.HasColumn(k) || !p.Relevant.HasColumn(k) {
			return fmt.Errorf("pipeline: key %q missing from a table", k)
		}
	}
	for _, a := range p.AggAttrs {
		if !p.Relevant.HasColumn(a) {
			return fmt.Errorf("pipeline: aggregation attribute %q missing from relevant table", a)
		}
	}
	for _, a := range p.PredAttrs {
		if !p.Relevant.HasColumn(a) {
			return fmt.Errorf("pipeline: predicate attribute %q missing from relevant table", a)
		}
	}
	for _, f := range p.BaseFeatures {
		if f == p.Label {
			return fmt.Errorf("pipeline: label %q listed as a base feature (target leak)", p.Label)
		}
	}
	return nil
}

// Labels extracts the label column as ints (classification) for proxy
// computation; regression targets are discretised.
func (p *Problem) Labels() []int {
	col := p.Train.Column(p.Label)
	y := make([]float64, p.Train.NumRows())
	for i := range y {
		v, _ := col.AsFloat(i)
		y[i] = v
	}
	return stats.LabelsFromFloat(y, stats.DefaultBins)
}

// YFloat extracts the label column as float64.
func (p *Problem) YFloat() []float64 {
	col := p.Train.Column(p.Label)
	y := make([]float64, p.Train.NumRows())
	for i := range y {
		v, _ := col.AsFloat(i)
		y[i] = v
	}
	return y
}

// ProxyKind selects the low-cost proxy (Table VIII's SC / MI / LR).
type ProxyKind int

// Proxy kinds.
const (
	ProxyMI ProxyKind = iota
	ProxySC
	ProxyLR
)

// String names the proxy as the paper abbreviates it.
func (k ProxyKind) String() string {
	switch k {
	case ProxyMI:
		return "MI"
	case ProxySC:
		return "SC"
	case ProxyLR:
		return "LR"
	}
	return fmt.Sprintf("ProxyKind(%d)", int(k))
}

// Evaluator evaluates feature sets against a downstream model. It caches
// query executions and real-model evaluations by query identity, because the
// search procedures revisit queries. All query execution runs through one
// shared batch executor over the relevant table, so group indexes, predicate
// bitmaps and plan-group discoveries are computed once per problem rather
// than once per query — and batched calls (FeatureBatch) additionally ride
// the executor's fused shared-scan path, one set of scans per distinct
// (keys, WHERE-mask) plan group instead of one per query.
type Evaluator struct {
	P         Problem
	Model     ml.Kind
	Seed      int64
	TrainFrac float64 // 0 → 0.6
	ValidFrac float64 // 0 → 0.2

	// Evaluations counts real model fits, the paper's cost unit.
	Evaluations int
	// ProxyEvaluations counts proxy computations.
	ProxyEvaluations int

	exec      *query.Executor
	featCache map[string]cachedFeature
	lossCache map[string]float64
	labels    []int
	yfloat    []float64
}

type cachedFeature struct {
	vals  []float64
	valid []bool
}

// NewEvaluator constructs an evaluator for a problem/model pair. The problem
// is normalized first (Normalized), so empty PredAttrs default to AggAttrs
// uniformly across every entry point built on an evaluator.
func NewEvaluator(p Problem, model ml.Kind, seed int64) (*Evaluator, error) {
	p = p.Normalized()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Evaluator{
		P: p, Model: model, Seed: seed,
		TrainFrac: 0.6, ValidFrac: 0.2,
		exec:      query.NewExecutor(p.Relevant),
		featCache: map[string]cachedFeature{},
		lossCache: map[string]float64{},
		labels:    p.Labels(),
		yfloat:    p.YFloat(),
	}, nil
}

// Executor exposes the shared batch executor over the relevant table.
func (e *Evaluator) Executor() *query.Executor { return e.exec }

// Feature materialises the feature a query produces, aligned with the
// training table rows (NULL on join miss), caching by the query's SQL text.
func (e *Evaluator) Feature(q query.Query) ([]float64, []bool, error) {
	key := q.SQL("R")
	if c, ok := e.featCache[key]; ok {
		return c.vals, c.valid, nil
	}
	vals, valid, err := e.exec.AugmentValues(e.P.Train, q)
	if err != nil {
		return nil, nil, err
	}
	e.featCache[key] = cachedFeature{vals: vals, valid: valid}
	return vals, valid, nil
}

// FeatureBatch materialises many candidate features at once: queries missing
// from the cache are deduplicated and executed concurrently on the batch
// executor's worker pool, then every result is returned in input order. The
// search procedures use it to pay the per-query execute-and-join cost in
// parallel wherever a whole slice of candidates is known up front.
func (e *Evaluator) FeatureBatch(qs []query.Query) ([][]float64, [][]bool, error) {
	return e.FeatureBatchContext(context.Background(), qs)
}

// FeatureBatchContext is FeatureBatch under a context: cancellation aborts
// the executor batch promptly and surfaces ctx.Err().
func (e *Evaluator) FeatureBatchContext(ctx context.Context, qs []query.Query) ([][]float64, [][]bool, error) {
	keys := make([]string, len(qs))
	var missKeys []string
	var missQs []query.Query
	seen := map[string]bool{}
	for i, q := range qs {
		k := q.SQL("R")
		keys[i] = k
		if _, ok := e.featCache[k]; ok || seen[k] {
			continue
		}
		seen[k] = true
		missKeys = append(missKeys, k)
		missQs = append(missQs, q)
	}
	if len(missQs) > 0 {
		// Columnar bulk materialisation: one flat buffer for the whole miss
		// set; the cache holds views into it.
		m, err := e.exec.AugmentMatrixContext(ctx, e.P.Train, missQs)
		if err != nil {
			return nil, nil, err
		}
		for i := range missQs {
			vals, valid := m.Col(i)
			e.featCache[missKeys[i]] = cachedFeature{vals: vals, valid: valid}
		}
	}
	outVals := make([][]float64, len(qs))
	outValid := make([][]bool, len(qs))
	for i, k := range keys {
		c := e.featCache[k]
		outVals[i], outValid[i] = c.vals, c.valid
	}
	return outVals, outValid, nil
}

// ProxyScore computes the low-cost proxy for one query; higher is better for
// every proxy kind, so callers minimising loss should negate it.
func (e *Evaluator) ProxyScore(q query.Query, kind ProxyKind) (float64, error) {
	vals, valid, err := e.Feature(q)
	if err != nil {
		return 0, err
	}
	e.ProxyEvaluations++
	switch kind {
	case ProxyMI:
		return stats.MIScore(vals, valid, e.labels, stats.DefaultBins), nil
	case ProxySC:
		return math.Abs(stats.Spearman(vals, e.yfloat, valid)), nil
	case ProxyLR:
		// Train a logistic/linear model on base features + candidate and
		// return its validation metric mapped to higher-is-better.
		loss, err := e.realLossWithFeature(vals, valid, ml.KindLR)
		if err != nil {
			return 0, err
		}
		return -loss, nil
	}
	return 0, fmt.Errorf("pipeline: unknown proxy %d", int(kind))
}

// QueryLoss evaluates a single candidate query under the real downstream
// model: base features + the candidate feature, split, fit, validation loss.
// Results are cached by query identity.
func (e *Evaluator) QueryLoss(q query.Query) (float64, error) {
	key := q.SQL("R")
	if l, ok := e.lossCache[key]; ok {
		return l, nil
	}
	vals, valid, err := e.Feature(q)
	if err != nil {
		return 0, err
	}
	if degenerate(vals, valid) {
		// An all-NULL or constant feature carries no information; give it a
		// sentinel loss so search procedures prune it instead of treating it
		// as a baseline-equivalent "safe" choice.
		e.lossCache[key] = DegenerateLoss
		return DegenerateLoss, nil
	}
	loss, err := e.realLossWithFeature(vals, valid, e.Model)
	if err != nil {
		return 0, err
	}
	e.lossCache[key] = loss
	return loss, nil
}

// DegenerateLoss is the sentinel loss assigned to queries whose feature is
// all-NULL or constant.
const DegenerateLoss = 1e9

// degenerate reports whether a feature is all-NULL or constant over the
// non-null rows.
func degenerate(vals []float64, valid []bool) bool {
	first, seen := 0.0, false
	for i, v := range vals {
		if !valid[i] {
			continue
		}
		if !seen {
			first, seen = v, true
			continue
		}
		if v != first {
			return false
		}
	}
	return true
}

// realLossWithFeature trains the given model kind on base features plus one
// materialised candidate and returns validation loss.
func (e *Evaluator) realLossWithFeature(vals []float64, valid []bool, kind ml.Kind) (float64, error) {
	tbl := e.P.Train.Clone()
	col := dataframe.NewFloatColumn("__cand", vals, valid)
	if err := tbl.AddColumn(col); err != nil {
		return 0, err
	}
	feats := append(append([]string(nil), e.P.BaseFeatures...), "__cand")
	loss, _, err := e.fitAndScore(tbl, feats, kind)
	return loss, err
}

// FeatureSetScores trains the downstream model on base features plus all the
// named feature columns of tbl and returns (validation metric, test metric).
// This is the paper's final-table protocol: the numbers in Tables III/VI are
// metrics of the model trained with the generated features.
func (e *Evaluator) FeatureSetScores(tbl *dataframe.Table, features []string) (validMetric, testMetric float64, err error) {
	feats := append(append([]string(nil), e.P.BaseFeatures...), features...)
	_, scores, err := e.fitAndScore(tbl, feats, e.Model)
	if err != nil {
		return 0, 0, err
	}
	return scores[0], scores[1], nil
}

// QuerySetScores materialises all queries as feature vectors — in one fused
// executor batch rather than query by query — and evaluates base features
// plus the whole set. The dataset is assembled columnar (ml.FromColumns over
// the batch's feature views), skipping the training-table clone and
// per-column table copies the table path pays.
func (e *Evaluator) QuerySetScores(qs []query.Query) (validMetric, testMetric float64, err error) {
	vals, valid, err := e.FeatureBatch(qs)
	if err != nil {
		return 0, 0, err
	}
	names := make([]string, 0, len(e.P.BaseFeatures)+len(qs))
	cols := make([][]float64, 0, cap(names))
	valids := make([][]bool, 0, cap(names))
	for _, base := range e.P.BaseFeatures {
		col := e.P.Train.Column(base)
		if col == nil {
			return 0, 0, fmt.Errorf("ml: no feature column %q", base)
		}
		v, ok := col.Floats()
		names, cols, valids = append(names, base), append(cols, v), append(valids, ok)
	}
	for i := range qs {
		names = append(names, fmt.Sprintf("feat_%d", i))
		cols, valids = append(cols, vals[i]), append(valids, valid[i])
	}
	ds, err := ml.FromColumns(names, cols, valids, e.P.Train.Column(e.P.Label))
	if err != nil {
		return 0, 0, err
	}
	_, scores, err := e.scoreDataset(ds, e.Model)
	if err != nil {
		return 0, 0, err
	}
	return scores[0], scores[1], nil
}

// fitAndScore runs the full protocol once: build dataset, split, fit,
// return validation loss and [validMetric, testMetric].
func (e *Evaluator) fitAndScore(tbl *dataframe.Table, features []string, kind ml.Kind) (float64, [2]float64, error) {
	ds, err := ml.FromTable(tbl, features, e.P.Label)
	if err != nil {
		return 0, [2]float64{}, err
	}
	return e.scoreDataset(ds, kind)
}

// scoreDataset is the post-assembly half of the protocol, shared by the
// table path (fitAndScore) and the columnar path (QuerySetScores).
func (e *Evaluator) scoreDataset(ds *ml.Dataset, kind ml.Kind) (float64, [2]float64, error) {
	split, err := ml.SplitDataset(ds, e.TrainFrac, e.ValidFrac, e.Seed)
	if err != nil {
		return 0, [2]float64{}, err
	}
	model, err := ml.New(kind, e.P.Task, e.Seed)
	if err != nil {
		return 0, [2]float64{}, err
	}
	if err := model.Fit(split.Train.X, split.Train.Y); err != nil {
		return 0, [2]float64{}, err
	}
	e.Evaluations++
	validPred := model.Predict(split.Valid.X)
	loss, err := ml.Loss(e.P.Task, validPred, split.Valid.Y)
	if err != nil {
		return 0, [2]float64{}, err
	}
	validMetric, err := ml.Metric(e.P.Task, validPred, split.Valid.Y)
	if err != nil {
		return 0, [2]float64{}, err
	}
	testPred := model.Predict(split.Test.X)
	testMetric, err := ml.Metric(e.P.Task, testPred, split.Test.Y)
	if err != nil {
		return 0, [2]float64{}, err
	}
	return loss, [2]float64{validMetric, testMetric}, nil
}

// BaselineScores evaluates the model on base features alone, the "no
// augmentation" reference point.
func (e *Evaluator) BaselineScores() (validMetric, testMetric float64, err error) {
	if len(e.P.BaseFeatures) == 0 {
		return 0, 0, fmt.Errorf("pipeline: no base features to evaluate")
	}
	_, scores, err := e.fitAndScore(e.P.Train, e.P.BaseFeatures, e.Model)
	if err != nil {
		return 0, 0, err
	}
	return scores[0], scores[1], nil
}
