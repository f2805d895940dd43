package feataug

import (
	"bytes"
	"context"
	"runtime"
	"testing"

	"repro/internal/agg"
	"repro/internal/datagen"
	"repro/internal/ml"
	"repro/internal/pipeline"
)

// TestPlanDeterminismAcrossGOMAXPROCS requires the same seed to give a
// byte-identical encoded plan under GOMAXPROCS 1 and 4, for Fit and for a
// FitMulti over :split=-style sub-tables. The executor's worker pool and the
// concurrent per-source searches both scale with GOMAXPROCS, so this pins
// the engine's contract that parallelism never changes a result.
func TestPlanDeterminismAcrossGOMAXPROCS(t *testing.T) {
	d := datagen.Tmall(datagen.Options{TrainRows: 150, Seed: 1})
	p := pipeline.Problem{
		Train: d.Train, Relevant: d.Relevant, Label: d.Label, Task: d.Task,
		Keys: d.Keys, AggAttrs: d.AggAttrs, PredAttrs: d.PredAttrs,
		BaseFeatures: d.BaseFeatures,
	}
	names, parts, _, err := d.SplitRelevant("action", nil)
	if err != nil {
		t.Fatal(err)
	}
	var predAttrs []string
	for _, a := range d.PredAttrs {
		if a != "action" {
			predAttrs = append(predAttrs, a)
		}
	}
	inputs := make([]RelevantInput, len(names))
	for i, name := range names {
		inputs[i] = RelevantInput{Name: name, Table: parts[name], Keys: d.Keys, AggAttrs: d.AggAttrs, PredAttrs: predAttrs}
	}
	opts := []Option{
		WithConfig(Config{Seed: 1, WarmupIters: 8, GenIters: 3, NumTemplates: 1, QueriesPerTemplate: 1}),
		WithModel(ml.KindLR),
		WithAggFuncs(agg.Basic()...),
	}
	fits := map[string]func() ([]byte, error){
		"Fit": func() ([]byte, error) {
			plan, err := Fit(context.Background(), p, opts...)
			if err != nil {
				return nil, err
			}
			return plan.Encode()
		},
		"FitMulti": func() ([]byte, error) {
			plan, err := FitMulti(context.Background(), p, inputs, opts...)
			if err != nil {
				return nil, err
			}
			return plan.Encode()
		},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for name, fit := range fits {
		var plans [][]byte
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			data, err := fit()
			if err != nil {
				t.Fatalf("%s at GOMAXPROCS=%d: %v", name, procs, err)
			}
			plans = append(plans, data)
		}
		if !bytes.Equal(plans[0], plans[1]) {
			t.Errorf("%s: plan at GOMAXPROCS=1 differs from GOMAXPROCS=4:\n%s\nvs\n%s", name, plans[0], plans[1])
		}
	}
}
