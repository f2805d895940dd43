package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"repro/internal/baselines"
	"repro/internal/dataframe"
	"repro/internal/datagen"
	"repro/internal/feataug"
	"repro/internal/ml"
	"repro/internal/pipeline"
	"repro/internal/query"
)

// problemOf turns a generated dataset into a search problem.
func problemOf(d *datagen.Dataset) pipeline.Problem {
	return pipeline.Problem{
		Train: d.Train, Relevant: d.Relevant, Label: d.Label, Task: d.Task,
		Keys: d.Keys, AggAttrs: d.AggAttrs, PredAttrs: d.PredAttrs,
		BaseFeatures: d.BaseFeatures,
	}
}

// Stage names, in the order WithProgress reports them.
var stageNames = []string{"qti", "warmup", "generate", "materialize"}

// stageClock turns WithProgress callbacks into per-stage wall time. The
// interval after each callback belongs to the stage it opens: StageQTI 0/1
// opens qti; a template's first StageWarmup callback opens warm-up and its
// second (warm-up done) hands back to generation; StageMaterialize 0/1 opens
// materialisation and 1/1 closes the run. Everything between QTI's end and
// materialisation that is not warm-up is generation.
type stageClock struct {
	cur      string
	since    time.Time
	inWarmup bool
	secs     map[string]float64
	tr       *tracer
	parent   int64
	req      int64
}

func newStageClock(tr *tracer, parent, req int64) *stageClock {
	return &stageClock{secs: map[string]float64{}, tr: tr, parent: parent, req: req}
}

func (c *stageClock) progress(stage feataug.Stage, done, total int) {
	now := time.Now()
	next := "generate"
	switch stage {
	case feataug.StageQTI:
		if done < total {
			next = "qti"
		}
	case feataug.StageWarmup:
		c.inWarmup = !c.inWarmup
		if c.inWarmup {
			next = "warmup"
		}
	case feataug.StageMaterialize:
		next = "materialize"
		if done == total {
			next = ""
		}
	}
	if next == c.cur {
		return
	}
	if c.cur != "" {
		c.secs[c.cur] += now.Sub(c.since).Seconds()
		if c.tr != nil {
			c.tr.record(span{ID: c.tr.newID(), Parent: c.parent, Req: c.req, Name: "feataug." + c.cur,
				Start: c.tr.at(c.since), End: c.tr.at(now)})
		}
	}
	c.cur, c.since = next, now
}

// fitOutcome is one measured Fit.
type fitOutcome struct {
	plan       *feataug.FeaturePlan
	planJSON   []byte
	seconds    float64
	stages     map[string]float64
	allocMB    float64
	evals      int // real model fits (traced runs only)
	proxyEvals int
	stats      query.ExecutorStats
}

// runFit fits one plan and times it. Untraced, it calls the public
// feataug.Fit. Traced, it drives pipeline.NewEvaluator plus
// feataug.NewEngine(...).Run plus feataug.NewPlan — exactly what Fit does —
// so the evaluator's counters can be read, with a span around the Fit and
// one per stage.
func runFit(ctx context.Context, p pipeline.Problem, kind ml.Kind, cfg feataug.Config, tr *tracer) (fitOutcome, error) {
	var out fitOutcome
	req := tr.newID()
	root := tr.begin("feataug.Fit", 0, req)
	clock := newStageClock(tr, root.id(), req)
	cfg.Progress = clock.progress
	cfg.Stats = func(s query.ExecutorStats) { out.stats = s }
	alloc := startAlloc()
	start := time.Now()
	if tr == nil {
		plan, err := feataug.Fit(ctx, p, feataug.WithModel(kind), feataug.WithConfig(cfg))
		if err != nil {
			return out, fmt.Errorf("fit: %w", err)
		}
		out.plan = plan
	} else {
		ev, err := pipeline.NewEvaluator(p, kind, cfg.Seed)
		if err != nil {
			return out, fmt.Errorf("evaluator: %w", err)
		}
		res, err := feataug.NewEngine(ev, nil, cfg).Run(ctx)
		if err != nil {
			return out, fmt.Errorf("engine run: %w", err)
		}
		out.plan = feataug.NewPlan(p, res)
		out.evals, out.proxyEvals = ev.Evaluations, ev.ProxyEvaluations
	}
	out.seconds = time.Since(start).Seconds()
	root.end()
	out.allocMB = alloc.kb() / 1024
	out.stages = clock.secs
	if err := out.plan.Validate(); err != nil {
		return out, fmt.Errorf("fitted plan fails Validate: %w", err)
	}
	data, err := out.plan.Encode()
	if err != nil {
		return out, fmt.Errorf("encode plan: %w", err)
	}
	out.planJSON = data
	return out, nil
}

// checkRefit is the determinism check: a second Fit with the same inputs and
// seed must encode to the same bytes.
func checkRefit(a, b fitOutcome) error {
	if !bytes.Equal(a.planJSON, b.planJSON) {
		return fmt.Errorf("refit with the same seed changed the plan JSON (%d vs %d bytes)", len(a.planJSON), len(b.planJSON))
	}
	return nil
}

// validMetric scores base plus plan features on the problem's validation
// split (seeded by seed) through Evaluator.QuerySetScores.
func validMetric(p pipeline.Problem, kind ml.Kind, seed int64, plan *feataug.FeaturePlan) (float64, error) {
	ev, err := pipeline.NewEvaluator(p, kind, seed)
	if err != nil {
		return 0, err
	}
	v, _, err := ev.QuerySetScores(plan.QueryList())
	if err != nil {
		return 0, fmt.Errorf("query set scores: %w", err)
	}
	return v, nil
}

// fitLayers replays the evaluator's and trainer's public calls on a fresh
// Evaluator, over the plan's queries plus seeded random ones, and returns
// their per-call medians in milliseconds:
//
//	pipeline.feature_ms        Evaluator.Feature, cold
//	pipeline.proxy_ms          Evaluator.ProxyScore (MI), feature cached
//	pipeline.loss_ms           Evaluator.QueryLoss, feature cached
//	query.augment_values_ms    Executor.AugmentValues on a fresh executor
//	ml.fit_ms, ml.predict_ms   ml.New(kind).Fit / Predict on the evaluator's
//	                           split shape (base features plus one candidate)
func fitLayers(p pipeline.Problem, kind ml.Kind, seed int64, plan *feataug.FeaturePlan, tr *tracer) (map[string]float64, error) {
	random, err := baselines.Random(p, nil, 4, 5, query.SpaceOptions{}, seed)
	if err != nil {
		return nil, fmt.Errorf("random queries: %w", err)
	}
	qs := append(plan.QueryList(), random...)
	ev, err := pipeline.NewEvaluator(p, kind, seed)
	if err != nil {
		return nil, err
	}
	timed := func(name string, f func() error) error {
		s := tr.begin(name, 0, tr.newID())
		err := f()
		s.end()
		return err
	}
	for _, q := range qs {
		if err := timed("pipeline.Feature", func() error { _, _, err := ev.Feature(q); return err }); err != nil {
			return nil, err
		}
	}
	for _, q := range qs {
		if err := timed("pipeline.ProxyScore", func() error { _, err := ev.ProxyScore(q, pipeline.ProxyMI); return err }); err != nil {
			return nil, err
		}
	}
	for _, q := range qs {
		if err := timed("pipeline.QueryLoss", func() error { _, err := ev.QueryLoss(q); return err }); err != nil {
			return nil, err
		}
	}
	ex := query.NewExecutor(p.Relevant)
	for _, q := range qs {
		if err := timed("query.AugmentValues", func() error { _, _, err := ex.AugmentValues(p.Train, q); return err }); err != nil {
			return nil, err
		}
	}
	// The trainer alone, on the shape QueryLoss trains: base features plus
	// one candidate column, split as the evaluator splits.
	for i, q := range plan.QueryList() {
		if i == 5 {
			break
		}
		vals, valid, err := ev.Feature(q)
		if err != nil {
			return nil, err
		}
		tbl := p.Train.Clone()
		if err := tbl.AddColumn(dataframe.NewFloatColumn("__cand", vals, valid)); err != nil {
			return nil, err
		}
		ds, err := ml.FromTable(tbl, append(append([]string(nil), p.BaseFeatures...), "__cand"), p.Label)
		if err != nil {
			return nil, err
		}
		split, err := ml.SplitDataset(ds, ev.TrainFrac, ev.ValidFrac, seed)
		if err != nil {
			return nil, err
		}
		m, err := ml.New(kind, p.Task, seed)
		if err != nil {
			return nil, err
		}
		if err := timed("ml.Fit", func() error { return m.Fit(split.Train.X, split.Train.Y) }); err != nil {
			return nil, err
		}
		_ = timed("ml.Predict", func() error { m.Predict(split.Valid.X); return nil })
	}
	spans := tr.snapshot()
	return map[string]float64{
		"pipeline.feature_ms":     median(durationsMS(spans, "pipeline.Feature")),
		"pipeline.proxy_ms":       median(durationsMS(spans, "pipeline.ProxyScore")),
		"pipeline.loss_ms":        median(durationsMS(spans, "pipeline.QueryLoss")),
		"query.augment_values_ms": median(durationsMS(spans, "query.AugmentValues")),
		"ml.fit_ms":               median(durationsMS(spans, "ml.Fit")),
		"ml.predict_ms":           median(durationsMS(spans, "ml.Predict")),
	}, nil
}
