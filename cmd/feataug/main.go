// Command feataug regenerates the paper's tables and figures on the
// synthetic datasets and runs the FeatAug pipeline on any built-in dataset.
//
// Usage:
//
//	feataug -exp table3 -rows 400 -reps 1
//	feataug -exp all -out report.txt
//	feataug -exp fig7 -models LR,XGB
//	feataug -exp table3 -paper          # paper-scale budgets (slow)
//
// The fit/transform mode runs the search once, persists the learned
// FeaturePlan as JSON, and re-applies it to fresh batches without repeating
// the search:
//
//	feataug -fit tmall -rows 400 -seed 1 -plan-out plan.json
//	feataug -plan-in plan.json -transform tmall -rows 400 -seed 2 -out batch.csv
//
// A multi-table scenario spec, dataset:split=column, splits the dataset's
// relevant table into one relevant table per distinct value of a string
// column (Section III's multiple-relevant-tables decomposition) and runs the
// per-table searches concurrently through FitMulti / MultiFeaturePlan. Each
// value's rows form a plain sub-table searched on its own, and -v prints one
// merged executor-stats block for the set:
//
//	feataug -fit tmall:split=action -rows 400 -seed 1 -plan-out multi.json
//	feataug -plan-in multi.json -transform tmall:split=action -rows 400 -seed 2 -out batch.csv
//
// Combining -fit and -transform in one invocation runs both halves in one
// process: the plan is still persisted via -plan-out, and the transform side
// shares the fit side's process-level join cache and scan scheduler (and,
// when the scenarios match, the generated dataset itself), so the join
// indexes and scan state the search warmed are reused instead of rebuilt:
//
//	feataug -fit tmall -rows 400 -seed 1 -plan-out plan.json -transform tmall -out batch.csv -v
//
// The -v executor-stats block also reports the dictionary-encoding counters
// (PR 8): "dict: N encodes / M hits, K code-kernel predicates" — encode
// passes paid to dictionary-encode string columns, lookups served from an
// already-built encoding, and predicate bitmaps built through the branch-free
// dictionary-code kernels (string equality as a single code compare, int/time
// ranges as a code-interval test) instead of per-row value compares. The
// encoded and unencoded paths are bit-identical; query.Executor's
// DisableDictEncoding knob forces the unencoded fallbacks and is swept by the
// differential tests.
//
// -v also prints the relevant table's resident footprint (PR 10): total MB,
// bytes/row and how many string columns run code-backed compact storage,
// where the dictionary codes are the column — the []string backing is
// dropped and per-row reads decode from the domain.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"

	repro "repro"
	"repro/internal/agg"
	"repro/internal/dataframe"
	"repro/internal/datagen"
	"repro/internal/experiments"
	"repro/internal/feataug"
	"repro/internal/ml"
	"repro/internal/results"
)

func main() {
	// Interrupt cancels a running search between evaluations.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "feataug:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("feataug", flag.ContinueOnError)
	var (
		exp       = fs.String("exp", "table3", "experiment: table1|table2|table3|table6|table7|table8|fig5|fig6|fig7|fig8|fig9|all")
		fit       = fs.String("fit", "", "fit mode: dataset (or dataset:split=column multi-table scenario: one relevant table per value of a string column) to learn a plan from (requires -plan-out)")
		planOut   = fs.String("plan-out", "", "fit mode: write the learned plan JSON to this file")
		planIn    = fs.String("plan-in", "", "transform mode: load a plan JSON from this file")
		transform = fs.String("transform", "", "transform mode: dataset (or dataset:split=column scenario) to apply the loaded plan to")
		rows      = fs.Int("rows", 400, "training rows per generated dataset")
		logs      = fs.Int("logs", 8, "mean relevant rows per training key")
		reps      = fs.Int("reps", 1, "repetitions to average (paper: 5)")
		seed      = fs.Int64("seed", 1, "base random seed")
		features  = fs.Int("features", 8, "features per method (paper: 40)")
		models    = fs.String("models", "", "comma-separated model subset: LR,XGB,RF,DeepFM (default all)")
		datasets  = fs.String("datasets", "", "comma-separated dataset subset (default: the experiment's paper set)")
		outPath   = fs.String("out", "", "write the report to a file instead of stdout")
		paper     = fs.Bool("paper", false, "use paper-scale search budgets (much slower)")
		allFuncs  = fs.Bool("allfuncs", false, "use the full 15-function aggregation set (default: 5 basic)")
		warmup    = fs.Int("warmup", 0, "warm-up TPE iterations (0 = default; paper: 200)")
		gen       = fs.Int("gen", 0, "generation TPE iterations (0 = default; paper: 40)")
		templates = fs.Int("templates", 0, "query templates n (0 = default; paper: 8)")
		queries   = fs.Int("queries", 0, "queries per template (0 = default; paper: 5)")
		jsonDir   = fs.String("json", "", "also archive each experiment's cells as JSON in this directory")
		verbose   = fs.Bool("v", false, "fit/transform modes: log engine progress and executor cache stats to stderr")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	out := stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}

	if *fit != "" || *planIn != "" {
		fo := fitOpts{
			rows: *rows, logs: *logs, seed: *seed, allFuncs: *allFuncs, models: *models,
			warmup: *warmup, gen: *gen, templates: *templates, queries: *queries,
			paper: *paper, verbose: *verbose,
		}
		switch {
		case *fit != "" && *planIn != "":
			return fmt.Errorf("-fit and -plan-in are mutually exclusive")
		case *fit != "":
			if *planOut == "" {
				return fmt.Errorf("-fit requires -plan-out")
			}
			// In a combined invocation -out carries the transform's CSV
			// payload, so the fit summary stays on the terminal.
			fitOut := out
			if *transform != "" {
				fitOut = stdout
			}
			d, err := runFit(ctx, *fit, *planOut, fo, fitOut, stderr)
			if err != nil {
				return err
			}
			if *transform == "" {
				return nil
			}
			// Combined fit+transform: one process serves both halves, so the
			// transform reuses the fit's process-level join cache and scan
			// scheduler — and, when the scenarios match, the very dataset the
			// fit generated (cache identity is per table instance).
			shared := d
			if *transform != *fit {
				shared = nil
			}
			return runTransform(ctx, *planOut, *transform, fo, shared, true, out, stderr)
		default:
			if *transform == "" {
				return fmt.Errorf("-plan-in requires -transform")
			}
			return runTransform(ctx, *planIn, *transform, fo, nil, false, out, stderr)
		}
	}

	cfg := experiments.Config{
		TrainRows:   *rows,
		LogsPerKey:  *logs,
		Reps:        *reps,
		Seed:        *seed,
		NumFeatures: *features,
		Out:         out,
	}
	if *allFuncs {
		cfg.Funcs = agg.All()
	}
	cfg.WarmupIters = *warmup
	cfg.GenIters = *gen
	cfg.NumTemplates = *templates
	cfg.QueriesPerTemplate = *queries
	if *paper {
		cfg.WarmupIters = 200
		cfg.WarmupTopK = 50
		cfg.GenIters = 40
		cfg.NumTemplates = 8
		cfg.QueriesPerTemplate = 5
		cfg.MaxDepth = 4
		cfg.Reps = 5
		cfg.Funcs = agg.All()
	}
	if *models != "" {
		kinds, err := parseModels(*models)
		if err != nil {
			return err
		}
		cfg.Models = kinds
	}
	if *datasets != "" {
		cfg.Datasets = strings.Split(*datasets, ",")
	}

	names := []string{*exp}
	if *exp == "all" {
		names = []string{"table1", "table2", "table3", "table6", "table7", "table8",
			"fig5", "fig6", "fig7", "fig8", "fig9"}
	}
	for _, name := range names {
		cells, err := runOne(name, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if *jsonDir != "" && cells != nil {
			if err := archiveRun(*jsonDir, name, cfg, cells); err != nil {
				return fmt.Errorf("%s: archive: %w", name, err)
			}
		}
		fmt.Fprintln(out)
	}
	return nil
}

// runOne executes one experiment; cell-style experiments return their cells
// for archiving, figure sweeps return nil.
func runOne(name string, cfg experiments.Config) ([]experiments.Cell, error) {
	switch name {
	case "table1":
		return experiments.RunTable1(cfg)
	case "table2":
		return experiments.RunTable2(cfg)
	case "table3":
		return experiments.RunTable3(cfg)
	case "table6":
		return experiments.RunTable6(cfg)
	case "table7":
		return experiments.RunTable7(cfg)
	case "table8":
		return experiments.RunTable8(cfg)
	case "fig5":
		_, err := experiments.RunFig5(cfg)
		return nil, err
	case "fig6":
		_, err := experiments.RunFig6(cfg)
		return nil, err
	case "fig7":
		_, err := experiments.RunFig7(cfg)
		return nil, err
	case "fig8":
		_, err := experiments.RunFig8(cfg)
		return nil, err
	case "fig9":
		_, err := experiments.RunFig9(cfg)
		return nil, err
	}
	return nil, fmt.Errorf("unknown experiment %q", name)
}

// archiveRun writes an experiment's cells as an indented-JSON results file.
func archiveRun(dir, name string, cfg experiments.Config, cells []experiments.Cell) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	run := results.NewRun(name, map[string]interface{}{
		"train_rows": cfg.TrainRows,
		"reps":       cfg.Reps,
		"seed":       cfg.Seed,
		"features":   cfg.NumFeatures,
	})
	for _, r := range experiments.ToResultRows(cells) {
		run.Add(results.Row{
			Dataset: r.Dataset, Model: r.Model, Method: r.Method,
			Metric: r.Metric, Seconds: r.Seconds,
		})
	}
	f, err := os.Create(filepath.Join(dir, name+".json"))
	if err != nil {
		return err
	}
	defer f.Close()
	return run.WriteJSON(f)
}

func parseModels(s string) ([]ml.Kind, error) {
	var out []ml.Kind
	for _, part := range strings.Split(s, ",") {
		switch strings.TrimSpace(strings.ToUpper(part)) {
		case "LR":
			out = append(out, ml.KindLR)
		case "XGB":
			out = append(out, ml.KindXGB)
		case "RF":
			out = append(out, ml.KindRF)
		case "DEEPFM":
			out = append(out, ml.KindDeepFM)
		default:
			return nil, fmt.Errorf("unknown model %q", part)
		}
	}
	return out, nil
}

// fitOpts carries the flag subset the fit/transform modes use.
type fitOpts struct {
	rows      int
	logs      int
	seed      int64
	allFuncs  bool
	models    string
	warmup    int
	gen       int
	templates int
	queries   int
	paper     bool
	verbose   bool
}

// dataset regenerates a built-in dataset with the mode's scale flags.
func (fo fitOpts) dataset(name string) (*datagen.Dataset, error) {
	gen, err := datagen.ByName(name)
	if err != nil {
		return nil, err
	}
	return gen(datagen.Options{TrainRows: fo.rows, LogsPerKey: fo.logs, Seed: fo.seed}), nil
}

// parseScenario splits a fit/transform spec: "tmall" is a single-table
// scenario, "tmall:split=action" splits the relevant table by the distinct
// values of a string column into a multi-table scenario.
func parseScenario(spec string) (dataset, splitCol string, err error) {
	dataset, mod, ok := strings.Cut(spec, ":")
	if !ok {
		return dataset, "", nil
	}
	col, ok := strings.CutPrefix(mod, "split=")
	if !ok || col == "" || dataset == "" {
		return "", "", fmt.Errorf("bad scenario %q: want dataset or dataset:split=column", spec)
	}
	return dataset, col, nil
}

// splitInputs splits a dataset's relevant table by the distinct values of a
// string column: one RelevantInput per value (sorted for determinism), named
// by the value, with the split column removed from the predicate attributes
// (it is constant within a source). The second result is the number of rows
// whose split value is NULL — they land in no source, and the caller should
// say so.
func splitInputs(d *datagen.Dataset, splitCol string) ([]repro.RelevantInput, int, error) {
	names, parts, nulls, err := d.SplitRelevant(splitCol, nil)
	if err != nil {
		return nil, 0, err
	}
	var predAttrs []string
	for _, a := range d.PredAttrs {
		if a != splitCol {
			predAttrs = append(predAttrs, a)
		}
	}
	inputs := make([]repro.RelevantInput, len(names))
	for i, name := range names {
		inputs[i] = repro.RelevantInput{
			Name: name, Table: parts[name],
			Keys: d.Keys, AggAttrs: d.AggAttrs, PredAttrs: predAttrs,
		}
	}
	return inputs, nulls, nil
}

// fitSetup resolves the flag subset shared by the fit modes: the downstream
// model, the engine config and the function-set option.
func (fo fitOpts) fitSetup() (ml.Kind, feataug.Config, bool, error) {
	model := ml.KindXGB
	if fo.models != "" {
		kinds, err := parseModels(fo.models)
		if err != nil {
			return 0, feataug.Config{}, false, err
		}
		if len(kinds) != 1 {
			return 0, feataug.Config{}, false, fmt.Errorf("-fit takes exactly one model, got %q (a plan is fitted against one downstream model)", fo.models)
		}
		model = kinds[0]
	}
	cfg := feataug.Config{
		Seed:        fo.seed,
		WarmupIters: fo.warmup, GenIters: fo.gen,
		NumTemplates: fo.templates, QueriesPerTemplate: fo.queries,
	}
	allFuncs := fo.allFuncs
	if fo.paper {
		cfg.WarmupIters, cfg.WarmupTopK, cfg.GenIters = 200, 50, 40
		cfg.NumTemplates, cfg.QueriesPerTemplate, cfg.MaxDepth = 8, 5, 4
		// Paper-scale runs search the full 15-function set, matching the
		// experiment mode's -paper behaviour.
		allFuncs = true
	}
	return model, cfg, allFuncs, nil
}

// runFit learns a FeaturePlan (or, for a split scenario, a MultiFeaturePlan)
// and writes it as JSON. It returns the dataset it generated so a combined
// fit+transform invocation can materialise onto the same table instances the
// search warmed the process caches with.
func runFit(ctx context.Context, spec, planPath string, fo fitOpts, out, stderr io.Writer) (*datagen.Dataset, error) {
	dataset, splitCol, err := parseScenario(spec)
	if err != nil {
		return nil, err
	}
	d, err := fo.dataset(dataset)
	if err != nil {
		return nil, err
	}
	model, cfg, allFuncs, err := fo.fitSetup()
	if err != nil {
		return nil, err
	}
	opts := []feataug.Option{feataug.WithConfig(cfg), feataug.WithModel(model)}
	if fo.verbose {
		printTableMemory(stderr, "fit", d.Relevant)
		// -v surfaces the engine's log lines — including the executor's
		// cache/scan stats printed at the end of the run — on stderr. For a
		// multi-table scenario each line is scoped "[source] ..." by FitMulti,
		// except the executor stats: FitMulti prints one merged stats block
		// for the whole set instead of k interleaved per-source blocks.
		opts = append(opts, feataug.WithLogf(func(format string, args ...interface{}) {
			fmt.Fprintf(stderr, format+"\n", args...)
		}))
		// And the fusion counters, spelled out the same way transform mode
		// spells its own — one delivery per fit, merged across sources.
		opts = append(opts, feataug.WithStats(func(s repro.ExecutorStats) {
			printFusionStats(stderr, "fit", s)
		}))
	}
	if !allFuncs {
		opts = append(opts, feataug.WithAggFuncs(agg.Basic()...))
	}

	if splitCol != "" {
		inputs, nulls, err := splitInputs(d, splitCol)
		if err != nil {
			return nil, err
		}
		if nulls > 0 {
			fmt.Fprintf(stderr, "fit: warning: %d relevant row(s) have NULL %q and are excluded from every shard\n", nulls, splitCol)
		}
		// Per-source progress: the per-table searches run concurrently, so
		// every line carries its table identity.
		opts = append(opts, feataug.WithSourceProgress(func(source string, stage feataug.Stage, done, total int) {
			fmt.Fprintf(out, "fit[%s]: %-11s %d/%d\n", source, stage, done, total)
		}))
		plan, err := feataug.FitMulti(ctx, repro.DatasetProblem(d), inputs, opts...)
		if err != nil {
			return nil, err
		}
		data, err := plan.Encode()
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(planPath, data, 0o644); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "fit: %d queries across %d relevant tables -> %s\n",
			len(plan.NamedQueries()), len(plan.Sources), planPath)
		for _, src := range plan.Sources {
			for _, pq := range src.Plan.Queries {
				fmt.Fprintf(out, "  %-20s loss %.4f  %s\n", pq.Feature, pq.Loss, pq.Query.SQL(src.Name))
			}
		}
		return d, nil
	}

	opts = append(opts, feataug.WithProgress(func(stage feataug.Stage, done, total int) {
		fmt.Fprintf(out, "fit: %-11s %d/%d\n", stage, done, total)
	}))
	plan, err := feataug.Fit(ctx, repro.DatasetProblem(d), opts...)
	if err != nil {
		return nil, err
	}
	data, err := plan.Encode()
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(planPath, data, 0o644); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "fit: %d queries from %d templates -> %s\n",
		len(plan.Queries), len(plan.Templates), planPath)
	for _, pq := range plan.Queries {
		fmt.Fprintf(out, "  %-14s loss %.4f  %s\n", pq.Feature, pq.Loss, pq.Query.SQL(dataset))
	}
	return d, nil
}

// runTransform loads a plan and materialises its features onto a fresh batch
// of the dataset (the transform half of the lifecycle — no search happens
// here). A split scenario loads a MultiFeaturePlan and rebuilds the same
// per-value relevant tables to bind it to, keyed by the plan's fit-time
// source names — NOT by the values present in the fresh batch. A source with
// no matching rows binds an empty table (its features come back NULL)
// rather than failing the transform.
//
// In a combined fit+transform invocation, shared is the dataset the fit just
// generated (nil when the scenarios differ) and procCaches opts the
// transformer into the process-level join cache and scan scheduler, so join
// indexes and scan state warmed by the search are reused — caches key on
// table identity, which is why the shared instance matters.
func runTransform(ctx context.Context, planPath, spec string, fo fitOpts, shared *datagen.Dataset, procCaches bool, out, stderr io.Writer) error {
	dataset, splitCol, err := parseScenario(spec)
	if err != nil {
		return err
	}
	data, err := os.ReadFile(planPath)
	if err != nil {
		return err
	}
	d := shared
	if d == nil {
		if d, err = fo.dataset(dataset); err != nil {
			return err
		}
	}
	var exOpts []repro.ExecutorOption
	if procCaches {
		exOpts = append(exOpts,
			repro.WithJoinCache(repro.ProcessJoinCache()),
			repro.WithScanScheduler(repro.ProcessScanScheduler()))
	}

	var augmented *repro.Table
	var nfeats int
	var stats func() repro.ExecutorStats
	if splitCol != "" {
		plan, err := feataug.DecodeMultiPlan(data)
		if err != nil {
			if _, singleErr := feataug.DecodePlan(data); singleErr == nil {
				return fmt.Errorf("%s holds a single-table plan; transform it without the :split= spec", planPath)
			}
			return err
		}
		_, sources, unmatched, err := d.SplitRelevant(splitCol, plan.SourceNames())
		if err != nil {
			return err
		}
		if unmatched > 0 {
			fmt.Fprintf(stderr, "transform: warning: %d relevant row(s) match no plan source (NULL or %q values unseen at fit time) and are excluded\n", unmatched, splitCol)
		}
		tr, err := plan.Transformer(sources, exOpts...)
		if err != nil {
			return err
		}
		if augmented, err = tr.Transform(ctx, d.Train); err != nil {
			return err
		}
		nfeats = len(tr.FeatureNames())
		stats = tr.Stats
	} else {
		plan, err := feataug.DecodePlan(data)
		if err != nil {
			if _, multiErr := feataug.DecodeMultiPlan(data); multiErr == nil {
				return fmt.Errorf("%s holds a multi-table plan; transform it with a dataset:split=column spec", planPath)
			}
			return err
		}
		tr, err := plan.Transformer(d.Relevant, exOpts...)
		if err != nil {
			return err
		}
		if augmented, err = tr.Transform(ctx, d.Train); err != nil {
			return err
		}
		nfeats = len(plan.Queries)
		stats = tr.Executor().Stats
	}
	// The CSV is the payload on out (-out redirects it cleanly to a file);
	// the human-readable summary goes to stderr.
	fmt.Fprintf(stderr, "transform: %d rows x %d columns (+%d planned features)\n",
		augmented.NumRows(), len(augmented.Columns()), nfeats)
	if fo.verbose {
		printTableMemory(stderr, "transform", d.Relevant)
		s := stats()
		fmt.Fprintf(stderr, "transform: executor stats: %s\n", s)
		printFusionStats(stderr, "transform", s)
	}
	return augmented.WriteCSV(out)
}

// printTableMemory spells out the relevant table's resident footprint — the
// -v observability line behind the compact-storage work (PR 10): total
// bytes, bytes/row, and how many of the string columns are code-backed
// (compact columns hold dictionary codes only; no []string survives).
func printTableMemory(stderr io.Writer, mode string, t *dataframe.Table) {
	total, cols := t.MemBytes()
	nStr, nCompact := 0, 0
	for _, c := range cols {
		if c.Kind == dataframe.KindString {
			nStr++
			if c.Compact {
				nCompact++
			}
		}
	}
	perRow := 0.0
	if t.NumRows() > 0 {
		perRow = float64(total) / float64(t.NumRows())
	}
	fmt.Fprintf(stderr, "%s: relevant table: %d rows, %.2f MB resident (%.1f bytes/row), %d/%d string columns compact\n",
		mode, t.NumRows(), float64(total)/(1<<20), perRow, nCompact, nStr)
}

// printFusionStats spells out an executor-stats snapshot's fusion counters —
// the shared block both -v modes print, prefixed with the mode that paid the
// work.
func printFusionStats(stderr io.Writer, mode string, s repro.ExecutorStats) {
	// The serving-side fusion counters: how many feature columns each
	// training-table pass served, and how often the shared train-side join
	// index was reused across executors.
	passes := s.ScatterPasses
	if passes == 0 {
		passes = 1
	}
	fmt.Fprintf(stderr, "%s: scatter: %d columns over %d passes (%.1f cols/pass), shared join index %d hits / %d misses, %d counting sorts\n",
		mode, s.ScatterQueries, s.ScatterPasses, float64(s.ScatterQueries)/float64(passes),
		s.SharedJoinHits, s.SharedJoinMisses, s.CountingScans)
	// The morsel-driven shared-scan counters: full-table passes the executor
	// set paid, cache entries served to executors that did not build them,
	// and morsels walked in total.
	fmt.Fprintf(stderr, "%s: shared scans: %d passes, %d subscribed, %d morsels scanned\n",
		mode, s.SharedScanPasses, s.SharedScanSubscribers, s.MorselsScanned)
	// The dictionary-encoding counters: encode passes this executor set paid,
	// lookups served from an existing encoding, and predicate bitmaps built
	// through the branch-free code kernels instead of value compares.
	fmt.Fprintf(stderr, "%s: dict: %d encodes / %d hits, %d code-kernel predicates\n",
		mode, s.DictEncodes, s.DictHits, s.CodePredScans)
	// The delta-maintenance counters: append epochs absorbed by advancing
	// caches over the new rows only, delta rows those advances visited,
	// sorted aggregate runs re-sorted in place, and advances that fell back
	// to wiping the caches for a full rebuild.
	fmt.Fprintf(stderr, "%s: delta: %d appends absorbed, %d delta rows scanned, %d group resorts, %d full rebuilds\n",
		mode, s.DeltaAppends, s.DeltaRowsScanned, s.DirtyGroupResorts, s.FullRebuilds)
}
