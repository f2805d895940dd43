package feataug

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/dataframe"
	"repro/internal/datagen"
	"repro/internal/ml"
	"repro/internal/pipeline"
	"repro/internal/query"
)

// fixtureMultiPlan is a hand-built two-source plan for serialisation tests.
// The fingerprints are synthetic (layout pinning only); tests that bind a
// transformer compute real ones.
func fixtureMultiPlan() *MultiFeaturePlan {
	shop := fixturePlan()
	for i := range shop.Queries {
		shop.Queries[i].Feature = fmt.Sprintf("shop_feataug_%d", i)
	}
	tickets := FeaturePlan{
		Version: PlanVersion,
		Keys:    []string{"cname"},
		Queries: []PlannedQuery{{
			Feature: "tickets_feataug_0",
			Loss:    0.75,
			Query:   query.Query{Agg: agg.Kurtosis, AggAttr: "severity", Keys: []string{"cname"}},
		}},
	}
	return &MultiFeaturePlan{
		Version: MultiPlanVersion,
		Label:   "label",
		Sources: []PlanSource{
			{Name: "shop", SchemaFingerprint: "00000000deadbeef", Plan: *shop},
			{Name: "tickets", SchemaFingerprint: "00000000cafef00d", Plan: tickets},
		},
	}
}

func TestMultiPlanJSONRoundTrip(t *testing.T) {
	plan := fixtureMultiPlan()
	data, err := plan.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeMultiPlan(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plan, got) {
		t.Fatalf("round trip mismatch:\nwant %+v\ngot  %+v", plan, got)
	}
	data2, err := got.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatal("re-encode is not byte-identical")
	}
}

// TestMultiPlanGoldenFile pins the serialised multi-plan layout against a
// checked-in fixture. Regenerate with
// UPDATE_GOLDEN=1 go test ./internal/feataug -run TestMultiPlanGoldenFile.
func TestMultiPlanGoldenFile(t *testing.T) {
	golden := filepath.Join("testdata", "multiplan_golden.json")
	data, err := fixtureMultiPlan().Encode()
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, want) {
		t.Fatalf("serialised multi plan diverged from %s:\n--- got ---\n%s\n--- want ---\n%s",
			golden, data, want)
	}
	got, err := DecodeMultiPlan(want)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fixtureMultiPlan(), got) {
		t.Fatal("golden file does not decode back to the fixture plan")
	}
}

func TestDecodeMultiPlanRejectsBadInput(t *testing.T) {
	if _, err := DecodeMultiPlan([]byte("{not json")); err == nil {
		t.Fatal("garbage should fail")
	}
	wrong := fixtureMultiPlan()
	wrong.Version = MultiPlanVersion + 1
	data, err := json.Marshal(wrong)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeMultiPlan(data); !errors.Is(err, ErrPlanVersion) {
		t.Fatalf("version mismatch error = %v, want ErrPlanVersion", err)
	}
	// The version gate runs before the body decodes, so unparseable future
	// names still report ErrPlanVersion.
	future := []byte(`{"version":2,"sources":[{"name":"s","plan":{"version":1,"keys":["k"],
		"queries":[{"feature":"f","loss":0,"query":{"agg":"FUTURE_AGG","agg_attr":"a","keys":["k"]}}]}}]}`)
	if _, err := DecodeMultiPlan(future); !errors.Is(err, ErrPlanVersion) {
		t.Fatalf("future version error = %v, want ErrPlanVersion", err)
	}
}

func TestMultiPlanValidate(t *testing.T) {
	if err := fixtureMultiPlan().Validate(); err != nil {
		t.Fatal(err)
	}
	empty := &MultiFeaturePlan{Version: MultiPlanVersion}
	if err := empty.Validate(); !errors.Is(err, ErrEmptyPlan) {
		t.Fatalf("no sources error = %v, want ErrEmptyPlan", err)
	}
	unnamed := fixtureMultiPlan()
	unnamed.Sources[1].Name = ""
	if err := unnamed.Validate(); !errors.Is(err, ErrEmptySource) {
		t.Fatalf("empty name error = %v, want ErrEmptySource", err)
	}
	dup := fixtureMultiPlan()
	dup.Sources[1].Name = dup.Sources[0].Name
	if err := dup.Validate(); !errors.Is(err, ErrDuplicateSource) {
		t.Fatalf("duplicate name error = %v, want ErrDuplicateSource", err)
	}
	badInner := fixtureMultiPlan()
	badInner.Sources[0].Plan.Queries = nil
	if err := badInner.Validate(); !errors.Is(err, ErrEmptyPlan) {
		t.Fatalf("empty inner plan error = %v, want ErrEmptyPlan", err)
	}
}

func TestMultiPlanAccessors(t *testing.T) {
	plan := fixtureMultiPlan()
	if got := plan.SourceNames(); !reflect.DeepEqual(got, []string{"shop", "tickets"}) {
		t.Fatalf("source names = %v", got)
	}
	names := plan.FeatureNames()
	want := []string{"shop_feataug_0", "shop_feataug_1", "shop_feataug_2", "tickets_feataug_0"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("feature names = %v", names)
	}
	nqs := plan.NamedQueries()
	if len(nqs) != 4 || nqs[0].Source != "shop" || nqs[3].Source != "tickets" {
		t.Fatalf("named queries = %+v", nqs)
	}
}

// multiTestInputs splits tmall's behaviour log into two relevant tables —
// the shared multi-table scenario of the differential tests.
func multiTestInputs(t *testing.T, rows int, seed int64) (pipeline.Problem, []RelevantInput) {
	t.Helper()
	d := datagen.Tmall(datagen.Options{TrainRows: rows, LogsPerKey: 6, Seed: seed})
	action := d.Relevant.Column("action")
	buys := d.Relevant.Filter(func(i int) bool { return action.Str(i) == "buy" })
	other := d.Relevant.Filter(func(i int) bool { return action.Str(i) != "buy" })
	if buys.NumRows() == 0 || other.NumRows() == 0 {
		t.Fatal("split produced empty table")
	}
	base := pipeline.Problem{
		Train: d.Train, Label: d.Label, Task: d.Task,
		BaseFeatures: d.BaseFeatures,
		Relevant:     d.Relevant, Keys: d.Keys,
	}
	inputs := []RelevantInput{
		{Name: "buys", Table: buys, Keys: d.Keys, AggAttrs: []string{"price", "timestamp"}, PredAttrs: []string{"timestamp"}},
		{Name: "browse", Table: other, Keys: d.Keys, AggAttrs: []string{"price"}},
	}
	return base, inputs
}

func multiTestConfig() Config {
	return Config{
		Seed: 41, WarmupIters: 8, WarmupTopK: 3, GenIters: 3,
		NumTemplates: 1, QueriesPerTemplate: 2, MaxDepth: 1, TemplateProxyIters: 4,
	}
}

// TestFitMultiMatchesAugmentMulti is the acceptance differential: the
// one-shot AugmentMulti and FitMulti + JSON save/load + Transform must
// produce bit-identical feature columns on the same inputs and seed.
func TestFitMultiMatchesAugmentMulti(t *testing.T) {
	base, inputs := multiTestInputs(t, 200, 41)
	cfg := multiTestConfig()

	res, err := AugmentMulti(context.Background(), base, ml.KindLR, cfg, inputs)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := FitMulti(context.Background(), base, inputs,
		WithConfig(cfg), WithModel(ml.KindLR))
	if err != nil {
		t.Fatal(err)
	}
	data, err := plan.Encode()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := DecodeMultiPlan(data)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := loaded.Transformer(RelevantsByName(inputs))
	if err != nil {
		t.Fatal(err)
	}
	got, err := tr.Transform(context.Background(), base.Train)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(res.FeatureNames, tr.FeatureNames()) {
		t.Fatalf("feature names differ: %v vs %v", res.FeatureNames, tr.FeatureNames())
	}
	if got.NumRows() != res.Augmented.NumRows() {
		t.Fatalf("rows %d != %d", got.NumRows(), res.Augmented.NumRows())
	}
	for _, name := range res.FeatureNames {
		wc, gc := res.Augmented.Column(name), got.Column(name)
		if wc == nil || gc == nil {
			t.Fatalf("column %q missing from one path", name)
		}
		for row := 0; row < got.NumRows(); row++ {
			if wc.IsNull(row) != gc.IsNull(row) {
				t.Fatalf("%s row %d null mismatch", name, row)
			}
			wv, _ := wc.AsFloat(row)
			gv, _ := gc.AsFloat(row)
			if wv != gv {
				t.Fatalf("%s row %d: %v != %v", name, row, gv, wv)
			}
		}
	}
	// The merged executor stats cover every source.
	if s := tr.Stats(); s.FusedQueries+s.CoreQueries == 0 {
		t.Fatal("merged stats recorded no query executions")
	}
}

// TestFitMultiDeterministic asserts two runs on the same inputs produce the
// same plan — the parallel schedule must not leak into the output.
func TestFitMultiDeterministic(t *testing.T) {
	base, inputs := multiTestInputs(t, 150, 7)
	cfg := multiTestConfig()
	a, err := FitMulti(context.Background(), base, inputs, WithConfig(cfg), WithModel(ml.KindLR))
	if err != nil {
		t.Fatal(err)
	}
	b, err := FitMulti(context.Background(), base, inputs, WithConfig(cfg), WithModel(ml.KindLR))
	if err != nil {
		t.Fatal(err)
	}
	da, _ := a.Encode()
	db, _ := b.Encode()
	if !bytes.Equal(da, db) {
		t.Fatalf("non-deterministic plans:\n%s\nvs\n%s", da, db)
	}
}

// TestAugmentMultiSourceValidation is the regression test for the
// feature-name collision bug: duplicate or empty RelevantInput names used to
// run the search and then fail (or silently collide) in AddColumn mid-merge.
// Now they fail up front with typed errors.
func TestAugmentMultiSourceValidation(t *testing.T) {
	base, inputs := multiTestInputs(t, 100, 5)
	cfg := multiTestConfig()

	dup := []RelevantInput{inputs[0], inputs[0]}
	if _, err := AugmentMulti(context.Background(), base, ml.KindLR, cfg, dup); !errors.Is(err, ErrDuplicateSource) {
		t.Fatalf("duplicate source error = %v, want ErrDuplicateSource", err)
	}
	empty := []RelevantInput{inputs[0], {Table: inputs[1].Table, Keys: inputs[1].Keys, AggAttrs: inputs[1].AggAttrs}}
	if _, err := AugmentMulti(context.Background(), base, ml.KindLR, cfg, empty); !errors.Is(err, ErrEmptySource) {
		t.Fatalf("empty source error = %v, want ErrEmptySource", err)
	}
	if _, err := FitMulti(context.Background(), base, dup, WithConfig(cfg), WithModel(ml.KindLR)); !errors.Is(err, ErrDuplicateSource) {
		t.Fatalf("FitMulti duplicate source error = %v, want ErrDuplicateSource", err)
	}
}

// TestFitMultiFailFastNoPartialWork asserts that one relevant table failing
// validation mid-set fails the whole call before any search runs: the error
// carries the bad table's name, no progress callback fires, and the training
// table is untouched.
func TestFitMultiFailFastNoPartialWork(t *testing.T) {
	base, inputs := multiTestInputs(t, 100, 9)
	bad := append(inputs[:len(inputs):len(inputs)], RelevantInput{
		Name: "broken", Table: inputs[1].Table, Keys: []string{"ghost"}, AggAttrs: []string{"price"},
	})
	before := base.Train.NumRows()
	beforeCols := append([]string(nil), base.Train.ColumnNames()...)
	fired := 0
	_, err := FitMulti(context.Background(), base, bad,
		WithConfig(multiTestConfig()), WithModel(ml.KindLR),
		WithSourceProgress(func(string, Stage, int, int) { fired++ }))
	if err == nil || !strings.Contains(err.Error(), `"broken"`) {
		t.Fatalf("err = %v, want validation failure naming the broken table", err)
	}
	if fired != 0 {
		t.Fatalf("progress fired %d times before validation completed", fired)
	}
	if base.Train.NumRows() != before || !reflect.DeepEqual(base.Train.ColumnNames(), beforeCols) {
		t.Fatal("training table mutated by a failed multi-table call")
	}
}

// TestPredAttrsDefaultingParity asserts the empty-PredAttrs → AggAttrs rule
// is applied identically by the single-table and multi-table paths (it lives
// in pipeline.Problem.Normalized, used by NewEvaluator).
func TestPredAttrsDefaultingParity(t *testing.T) {
	base, inputs := multiTestInputs(t, 150, 13)
	cfg := multiTestConfig()

	// Multi path: "browse" has empty PredAttrs. Explicitly setting them to
	// AggAttrs must change nothing.
	implicit, err := FitMulti(context.Background(), base, inputs, WithConfig(cfg), WithModel(ml.KindLR))
	if err != nil {
		t.Fatal(err)
	}
	explicit := append([]RelevantInput(nil), inputs...)
	explicit[1].PredAttrs = append([]string(nil), explicit[1].AggAttrs...)
	explicitPlan, err := FitMulti(context.Background(), base, explicit, WithConfig(cfg), WithModel(ml.KindLR))
	if err != nil {
		t.Fatal(err)
	}
	di, _ := implicit.Encode()
	de, _ := explicitPlan.Encode()
	if !bytes.Equal(di, de) {
		t.Fatalf("multi-table defaulting drift:\n%s\nvs\n%s", di, de)
	}

	// Single path: Fit with empty PredAttrs equals Fit with explicit
	// PredAttrs = AggAttrs.
	p := base
	p.Relevant = inputs[1].Table
	p.Keys = inputs[1].Keys
	p.AggAttrs = inputs[1].AggAttrs
	p.PredAttrs = nil
	a, err := Fit(context.Background(), p, WithConfig(cfg), WithModel(ml.KindLR))
	if err != nil {
		t.Fatal(err)
	}
	p.PredAttrs = append([]string(nil), p.AggAttrs...)
	b, err := Fit(context.Background(), p, WithConfig(cfg), WithModel(ml.KindLR))
	if err != nil {
		t.Fatal(err)
	}
	da, _ := a.Encode()
	db, _ := b.Encode()
	if !bytes.Equal(da, db) {
		t.Fatalf("single-table defaulting drift:\n%s\nvs\n%s", da, db)
	}
}

// TestFitMultiProgressScoping asserts concurrent per-table engines report
// progress and log lines scoped to their source name; the one exception is
// the single merged executor-stats line FitMulti logs for the whole set.
func TestFitMultiProgressScoping(t *testing.T) {
	base, inputs := multiTestInputs(t, 150, 17)
	var mu sync.Mutex
	perSource := map[string]int{}
	var logLines []string
	_, err := FitMulti(context.Background(), base, inputs,
		WithConfig(multiTestConfig()), WithModel(ml.KindLR),
		WithSourceProgress(func(source string, stage Stage, done, total int) {
			// Serialisation is the callee's contract; the map write would race
			// without it and -race enforces that.
			perSource[source]++
			if done < 0 || done > total {
				t.Errorf("source %s stage %s: done %d out of [0,%d]", source, stage, done, total)
			}
		}),
		WithLogf(func(format string, args ...interface{}) {
			mu.Lock()
			defer mu.Unlock()
			logLines = append(logLines, fmt.Sprintf(format, args...))
		}))
	if err != nil {
		t.Fatal(err)
	}
	if perSource["buys"] == 0 || perSource["browse"] == 0 {
		t.Fatalf("per-source progress = %v, want both sources reporting", perSource)
	}
	merged := 0
	for _, line := range logLines {
		if strings.HasPrefix(line, "feataug: merged executor stats (2 sources): ") {
			merged++
			continue
		}
		if !strings.HasPrefix(line, "[buys] ") && !strings.HasPrefix(line, "[browse] ") {
			t.Fatalf("log line lacks source scope: %q", line)
		}
	}
	if merged != 1 {
		t.Fatalf("merged executor-stats lines = %d, want exactly 1", merged)
	}
	if len(logLines) == 0 {
		t.Fatal("no log lines captured")
	}
}

// TestMultiTransformerBindingErrors covers the typed failure modes of
// Transformer binding: a source with no bound table, a nil table, and a
// schema whose column kinds drifted since fit time.
func TestMultiTransformerBindingErrors(t *testing.T) {
	base, inputs := multiTestInputs(t, 120, 23)
	plan, err := FitMulti(context.Background(), base, inputs,
		WithConfig(multiTestConfig()), WithModel(ml.KindLR))
	if err != nil {
		t.Fatal(err)
	}
	byName := RelevantsByName(inputs)

	missing := map[string]*dataframe.Table{"buys": byName["buys"]}
	if _, err := plan.Transformer(missing); !errors.Is(err, ErrMissingSource) {
		t.Fatalf("missing source error = %v, want ErrMissingSource", err)
	}
	nilTbl := map[string]*dataframe.Table{"buys": byName["buys"], "browse": nil}
	if _, err := plan.Transformer(nilTbl); !errors.Is(err, ErrNilTable) {
		t.Fatalf("nil table error = %v, want ErrNilTable", err)
	}

	// Kind drift: rebuild "browse" with its price column as strings. Every
	// referenced column still exists, so only the fingerprint catches it.
	browse := byName["browse"]
	cols := make([]*dataframe.Column, 0, len(browse.Columns()))
	for _, c := range browse.Columns() {
		if c.Name() == "price" {
			strs := make([]string, browse.NumRows())
			cols = append(cols, dataframe.NewStringColumn("price", strs, nil))
			continue
		}
		cols = append(cols, c)
	}
	drifted := map[string]*dataframe.Table{"buys": byName["buys"], "browse": dataframe.MustNewTable(cols...)}
	if _, err := plan.Transformer(drifted); !errors.Is(err, ErrSchemaMismatch) {
		t.Fatalf("kind drift error = %v, want ErrSchemaMismatch", err)
	}

	// The happy path still binds.
	if _, err := plan.Transformer(byName); err != nil {
		t.Fatal(err)
	}
}

// TestMultiTransformerKurtosisSmallGroups pushes KURTOSIS over groups with
// n < 4 rows through the fused multi-table transform path and checks the
// result row-for-row against the per-query core: sub-4 groups must come back
// NULL, not garbage, from both sources of a multi-table batch.
func TestMultiTransformerKurtosisSmallGroups(t *testing.T) {
	// Training keys 0..5; relevant group sizes 1..6 per source with
	// different values, so several groups sit below kurtosis' n=4 floor.
	train := dataframe.MustNewTable(
		dataframe.NewIntColumn("k", []int64{0, 1, 2, 3, 4, 5}, nil),
		dataframe.NewIntColumn("label", []int64{0, 1, 0, 1, 0, 1}, nil),
	)
	buildRelevant := func(scale float64) *dataframe.Table {
		var keys []int64
		var vals []float64
		for k := int64(0); k < 6; k++ {
			for j := int64(0); j <= k; j++ { // group k has k+1 rows
				keys = append(keys, k)
				vals = append(vals, scale*float64(k*7+j*j))
			}
		}
		return dataframe.MustNewTable(
			dataframe.NewIntColumn("k", keys, nil),
			dataframe.NewFloatColumn("v", vals, nil),
		)
	}
	tables := map[string]*dataframe.Table{"a": buildRelevant(1), "b": buildRelevant(-2.5)}

	mkPlan := func(name string) FeaturePlan {
		qs := []query.Query{
			{Agg: agg.Kurtosis, AggAttr: "v", Keys: []string{"k"}},
			{Agg: agg.Var, AggAttr: "v", Keys: []string{"k"}},
			{Agg: agg.Count, AggAttr: "v", Keys: []string{"k"}},
		}
		fp := FeaturePlan{Version: PlanVersion, Keys: []string{"k"}}
		for i, q := range qs {
			fp.Queries = append(fp.Queries, PlannedQuery{
				Feature: fmt.Sprintf("%s_feataug_%d", name, i), Query: q,
			})
		}
		return fp
	}
	mp := &MultiFeaturePlan{Version: MultiPlanVersion, Label: "label"}
	for _, name := range []string{"a", "b"} {
		fp := mkPlan(name)
		mp.Sources = append(mp.Sources, PlanSource{
			Name:              name,
			SchemaFingerprint: schemaFingerprint(tables[name], fp.referencedColumns()),
			Plan:              fp,
		})
	}
	tr, err := mp.Transformer(tables)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tr.Transform(context.Background(), train)
	if err != nil {
		t.Fatal(err)
	}

	for _, src := range mp.Sources {
		for _, pq := range src.Plan.Queries {
			want, err := pq.Query.Augment(train, tables[src.Name], pq.Feature)
			if err != nil {
				t.Fatal(err)
			}
			wc, gc := want.Column(pq.Feature), got.Column(pq.Feature)
			for row := 0; row < train.NumRows(); row++ {
				if wc.IsNull(row) != gc.IsNull(row) {
					t.Fatalf("%s row %d: null mismatch (fused %v, core %v)",
						pq.Feature, row, gc.IsNull(row), wc.IsNull(row))
				}
				wv, _ := wc.AsFloat(row)
				gv, _ := gc.AsFloat(row)
				if wv != gv {
					t.Fatalf("%s row %d: fused %v != core %v", pq.Feature, row, gv, wv)
				}
			}
		}
	}
	// Kurtosis over groups 0..2 (sizes 1..3) must be NULL; groups 3..5
	// (sizes 4..6) must not.
	for _, name := range []string{"a_feataug_0", "b_feataug_0"} {
		c := got.Column(name)
		for row := 0; row < 3; row++ {
			if !c.IsNull(row) {
				t.Fatalf("%s row %d: kurtosis over n<4 group should be NULL", name, row)
			}
		}
		for row := 3; row < 6; row++ {
			if c.IsNull(row) {
				t.Fatalf("%s row %d: kurtosis over n>=4 group should be defined", name, row)
			}
		}
	}
}

// TestMultiTransformerEmptyShard asserts serving tolerates a source whose
// bound relevant table has zero rows (a fresh batch can miss a fit-time
// shard entirely): the transform succeeds and that source's features are
// NULL on every row, while other sources still materialise.
func TestMultiTransformerEmptyShard(t *testing.T) {
	train := dataframe.MustNewTable(
		dataframe.NewIntColumn("k", []int64{0, 1, 2}, nil),
		dataframe.NewIntColumn("label", []int64{0, 1, 0}, nil),
	)
	full := dataframe.MustNewTable(
		dataframe.NewIntColumn("k", []int64{0, 0, 1, 2}, nil),
		dataframe.NewFloatColumn("v", []float64{1, 2, 3, 4}, nil),
	)
	empty := full.Filter(func(int) bool { return false })
	mkSource := func(name string, tbl *dataframe.Table) PlanSource {
		fp := FeaturePlan{Version: PlanVersion, Keys: []string{"k"}, Queries: []PlannedQuery{{
			Feature: name + "_feataug_0",
			Query:   query.Query{Agg: agg.Sum, AggAttr: "v", Keys: []string{"k"}},
		}}}
		return PlanSource{Name: name, SchemaFingerprint: schemaFingerprint(tbl, fp.referencedColumns()), Plan: fp}
	}
	mp := &MultiFeaturePlan{Version: MultiPlanVersion, Sources: []PlanSource{
		mkSource("full", full), mkSource("gone", empty),
	}}
	tr, err := mp.Transformer(map[string]*dataframe.Table{"full": full, "gone": empty})
	if err != nil {
		t.Fatal(err)
	}
	got, err := tr.Transform(context.Background(), train)
	if err != nil {
		t.Fatal(err)
	}
	for row := 0; row < train.NumRows(); row++ {
		if got.Column("full_feataug_0").IsNull(row) {
			t.Fatalf("full source row %d unexpectedly NULL", row)
		}
		if !got.Column("gone_feataug_0").IsNull(row) {
			t.Fatalf("empty-shard source row %d should be NULL", row)
		}
	}
}

// TestFitMultiCancellation asserts concurrent per-table searches stop
// promptly when the context is cancelled (runs under -race in CI).
func TestFitMultiCancellation(t *testing.T) {
	rows, logsPerKey := 3000, 16
	if testing.Short() {
		rows, logsPerKey = 1000, 8
	}
	d := datagen.Tmall(datagen.Options{TrainRows: rows, LogsPerKey: logsPerKey, Seed: 31})
	base := pipeline.Problem{
		Train: d.Train, Label: d.Label, Task: d.Task,
		BaseFeatures: d.BaseFeatures, Relevant: d.Relevant, Keys: d.Keys,
	}
	var inputs []RelevantInput
	for _, name := range []string{"s0", "s1", "s2"} {
		inputs = append(inputs, RelevantInput{
			Name: name, Table: d.Relevant, Keys: d.Keys,
			AggAttrs: d.AggAttrs, PredAttrs: d.PredAttrs,
		})
	}
	cfg := Config{
		Seed: 31, WarmupIters: 400, WarmupTopK: 40, GenIters: 150,
		NumTemplates: 8, QueriesPerTemplate: 5, MaxDepth: 4, TemplateProxyIters: 80,
	}

	// Pre-cancelled: bails before evaluators are built.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if _, err := FitMulti(cancelled, base, inputs, WithConfig(cfg), WithModel(ml.KindLR)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("pre-cancelled FitMulti took %s", elapsed)
	}

	// Cancellation mid-search across concurrent tables.
	ctx, cancel2 := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel2()
	}()
	start = time.Now()
	if _, err := FitMulti(ctx, base, inputs, WithConfig(cfg), WithModel(ml.KindLR)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 20*time.Second {
		t.Fatalf("cancelled FitMulti took %s to return", elapsed)
	}
}
