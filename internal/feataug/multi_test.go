package feataug

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/dataframe"
	"repro/internal/datagen"
	"repro/internal/ml"
	"repro/internal/pipeline"
)

func TestAugmentMultiTwoRelevantTables(t *testing.T) {
	d := datagen.Tmall(datagen.Options{TrainRows: 200, LogsPerKey: 6, Seed: 41})
	// Split the behaviour log into two relevant tables: purchases and the
	// rest — the paper's "multiple relevant tables" decomposition.
	action := d.Relevant.Column("action")
	buys := d.Relevant.Filter(func(i int) bool { return action.Str(i) == "buy" })
	other := d.Relevant.Filter(func(i int) bool { return action.Str(i) != "buy" })
	if buys.NumRows() == 0 || other.NumRows() == 0 {
		t.Fatal("split produced empty table")
	}
	base := pipeline.Problem{
		Train: d.Train, Label: d.Label, Task: d.Task,
		BaseFeatures: d.BaseFeatures,
		// Relevant/Keys filled per input.
		Relevant: d.Relevant, Keys: d.Keys,
	}
	cfg := Config{
		Seed: 41, WarmupIters: 8, WarmupTopK: 3, GenIters: 3,
		NumTemplates: 1, QueriesPerTemplate: 2, MaxDepth: 1, TemplateProxyIters: 4,
	}
	res, err := AugmentMulti(context.Background(), base, ml.KindLR, cfg, []RelevantInput{
		{Name: "buys", Table: buys, Keys: d.Keys, AggAttrs: []string{"price", "timestamp"}, PredAttrs: []string{"timestamp"}},
		{Name: "browse", Table: other, Keys: d.Keys, AggAttrs: []string{"price"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerTable) != 2 || len(res.Names) != 2 {
		t.Fatalf("per-table results = %d", len(res.PerTable))
	}
	if len(res.FeatureNames) == 0 {
		t.Fatal("no features added")
	}
	sawBuys, sawBrowse := false, false
	for _, name := range res.FeatureNames {
		if !res.Augmented.HasColumn(name) {
			t.Fatalf("missing column %s", name)
		}
		if strings.HasPrefix(name, "buys_") {
			sawBuys = true
		}
		if strings.HasPrefix(name, "browse_") {
			sawBrowse = true
		}
	}
	if !sawBuys || !sawBrowse {
		t.Fatal("features should come from both relevant tables")
	}
	if res.Augmented.NumRows() != d.Train.NumRows() {
		t.Fatal("augmentation changed training row count")
	}
	qs := res.Queries()
	if len(qs) != len(res.FeatureNames) {
		t.Fatalf("Queries() = %d, want %d", len(qs), len(res.FeatureNames))
	}
	for _, nq := range qs {
		if nq.Source != "buys" && nq.Source != "browse" {
			t.Fatalf("NamedQuery source %q not a relevant table name", nq.Source)
		}
		if nq.Query.AggAttr == "" {
			t.Fatal("NamedQuery carries an empty query")
		}
	}
}

func TestAugmentMultiValidation(t *testing.T) {
	d := datagen.Student(datagen.Options{TrainRows: 100, Seed: 42})
	base := pipeline.Problem{
		Train: d.Train, Label: d.Label, Task: d.Task,
		BaseFeatures: d.BaseFeatures, Relevant: d.Relevant, Keys: d.Keys,
	}
	if _, err := AugmentMulti(context.Background(), base, ml.KindLR, Config{Seed: 1}, nil); err == nil {
		t.Error("no inputs should fail")
	}
	if _, err := AugmentMulti(context.Background(), base, ml.KindLR, Config{Seed: 1}, []RelevantInput{{Name: "x"}}); err == nil {
		t.Error("nil table should fail")
	}
	bad := []RelevantInput{{Name: "x", Table: d.Relevant, Keys: []string{"ghost"}, AggAttrs: []string{"level"}}}
	if _, err := AugmentMulti(context.Background(), base, ml.KindLR, Config{Seed: 1}, bad); err == nil {
		t.Error("bad key should fail")
	}
}

func TestGenerateQueriesHalving(t *testing.T) {
	e := smallEngine(t, Config{})
	tpl := e.Template([]string{"action", "timestamp"})
	qs, err := e.GenerateQueriesHalving(context.Background(), tpl, 2, 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) == 0 || len(qs) > 2 {
		t.Fatalf("got %d queries", len(qs))
	}
	for i := 1; i < len(qs); i++ {
		if qs[i-1].Loss > qs[i].Loss {
			t.Fatal("not sorted by loss")
		}
	}
	// Default numConfigs path.
	qs, err = e.GenerateQueriesHalving(context.Background(), tpl, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) == 0 {
		t.Fatal("default numConfigs produced nothing")
	}
	// Bad template propagates.
	if _, err := e.GenerateQueriesHalving(context.Background(), e.Template([]string{"ghost"}), 2, 8); err == nil {
		t.Fatal("bad template should fail")
	}
}

func TestAugmentMultiWithRelschemaFlatten(t *testing.T) {
	// End-to-end: schema → flatten → AugmentMulti. Build a miniature
	// users/orders/products schema inline to avoid an import cycle with
	// relschema's own tests.
	users := dataframe.MustNewTable(
		dataframe.NewIntColumn("user_id", []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20}, nil),
		dataframe.NewIntColumn("age", []int64{20, 30, 40, 50, 25, 35, 45, 55, 22, 33, 44, 56, 21, 31, 41, 51, 26, 36, 46, 57}, nil),
		dataframe.NewIntColumn("label", []int64{1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0}, nil),
	)
	var (
		uid []int64
		amt []float64
	)
	for u := int64(1); u <= 20; u++ {
		for j := int64(0); j < 3; j++ {
			uid = append(uid, u)
			// odd users (label 1) spend more
			base := float64(10)
			if u%2 == 1 {
				base = 50
			}
			amt = append(amt, base+float64(j))
		}
	}
	orders := dataframe.MustNewTable(
		dataframe.NewIntColumn("user_id", uid, nil),
		dataframe.NewFloatColumn("amount", amt, nil),
	)
	base := pipeline.Problem{
		Train: users, Label: "label", Task: ml.Binary,
		BaseFeatures: []string{"age"},
		Relevant:     orders, Keys: []string{"user_id"},
	}
	cfg := Config{Seed: 2, WarmupIters: 6, WarmupTopK: 2, GenIters: 2,
		NumTemplates: 1, QueriesPerTemplate: 1, MaxDepth: 1, TemplateProxyIters: 3}
	res, err := AugmentMulti(context.Background(), base, ml.KindLR, cfg, []RelevantInput{
		{Name: "orders", Table: orders, Keys: []string{"user_id"}, AggAttrs: []string{"amount"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FeatureNames) == 0 {
		t.Fatal("no features")
	}
}

// TestFitMultiShardedMergedStats runs FitMulti over two plain sub-tables of
// one relevant table (the :split= shape) and requires -v-style logging to
// carry exactly ONE merged executor-stats block for the set, instead of one
// interleaved block per source.
func TestFitMultiShardedMergedStats(t *testing.T) {
	users := dataframe.MustNewTable(
		dataframe.NewIntColumn("user_id", []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20}, nil),
		dataframe.NewIntColumn("age", []int64{20, 30, 40, 50, 25, 35, 45, 55, 22, 33, 44, 56, 21, 31, 41, 51, 26, 36, 46, 57}, nil),
		dataframe.NewIntColumn("label", []int64{1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0}, nil),
	)
	var (
		uid []int64
		amt []float64
	)
	for u := int64(1); u <= 20; u++ {
		for j := int64(0); j < 3; j++ {
			uid = append(uid, u)
			base := float64(10)
			if u%2 == 1 {
				base = 50
			}
			amt = append(amt, base+float64(j))
		}
	}
	orders := dataframe.MustNewTable(
		dataframe.NewIntColumn("user_id", uid, nil),
		dataframe.NewFloatColumn("amount", amt, nil),
	)
	half := orders.NumRows() / 2
	var lo, hi []int
	for i := 0; i < orders.NumRows(); i++ {
		if i < half {
			lo = append(lo, i)
		} else {
			hi = append(hi, i)
		}
	}
	inputs := []RelevantInput{
		{Name: "shard0", Table: orders.Take(lo), Keys: []string{"user_id"}, AggAttrs: []string{"amount"}},
		{Name: "shard1", Table: orders.Take(hi), Keys: []string{"user_id"}, AggAttrs: []string{"amount"}},
	}
	base := pipeline.Problem{
		Train: users, Label: "label", Task: ml.Binary,
		BaseFeatures: []string{"age"},
		Relevant:     orders, Keys: []string{"user_id"},
	}
	cfg := Config{Seed: 2, WarmupIters: 6, WarmupTopK: 2, GenIters: 2,
		NumTemplates: 1, QueriesPerTemplate: 1, MaxDepth: 1, TemplateProxyIters: 3}
	var mu sync.Mutex
	var lines []string
	_, err := FitMulti(context.Background(), base, inputs,
		WithConfig(cfg), WithModel(ml.KindLR),
		WithLogf(func(format string, args ...interface{}) {
			mu.Lock()
			defer mu.Unlock()
			lines = append(lines, fmt.Sprintf(format, args...))
		}))
	if err != nil {
		t.Fatal(err)
	}
	merged, perSource := 0, 0
	for _, l := range lines {
		if strings.Contains(l, "merged executor stats") {
			merged++
		} else if strings.Contains(l, "executor stats") {
			perSource++
		}
	}
	if merged != 1 {
		t.Errorf("merged stats lines = %d, want exactly 1", merged)
	}
	if perSource != 0 {
		t.Errorf("per-source stats lines = %d, want 0 (suppressed for multi-source runs)", perSource)
	}
}
