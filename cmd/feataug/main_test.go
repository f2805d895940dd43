package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunTable1ToStdout(t *testing.T) {
	var buf bytes.Buffer
	err := run(context.Background(), []string{"-exp", "table1", "-rows", "100"}, &buf, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "tmall") {
		t.Fatalf("output missing dataset rows: %s", buf.String())
	}
}

func TestRunWritesFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "report.txt")
	var buf bytes.Buffer
	err := run(context.Background(), []string{"-exp", "table2", "-rows", "100", "-out", path}, &buf, &buf)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "#T=2^attr") {
		t.Fatal("file missing report")
	}
}

func TestRunModelAndDatasetFilters(t *testing.T) {
	var buf bytes.Buffer
	err := run(context.Background(), []string{"-exp", "table1", "-rows", "100",
		"-models", "LR,XGB", "-datasets", "tmall,student"}, &buf, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "tmall") || strings.Contains(out, "merchant") {
		t.Fatalf("dataset filter ignored: %s", out)
	}
}

func TestRunErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-exp", "nope"}, &buf, &buf); err == nil {
		t.Error("unknown experiment should fail")
	}
	if err := run(context.Background(), []string{"-models", "NOPE"}, &buf, &buf); err == nil {
		t.Error("unknown model should fail")
	}
	if err := run(context.Background(), []string{"-bogusflag"}, &buf, &buf); err == nil {
		t.Error("bad flag should fail")
	}
	if err := run(context.Background(), []string{"-exp", "table1", "-out", "/nonexistent/dir/x.txt"}, &buf, &buf); err == nil {
		t.Error("unwritable output should fail")
	}
}

func TestParseModels(t *testing.T) {
	kinds, err := parseModels("lr, xgb ,RF,deepfm")
	if err != nil {
		t.Fatal(err)
	}
	if len(kinds) != 4 {
		t.Fatalf("kinds = %v", kinds)
	}
	if _, err := parseModels("ghost"); err == nil {
		t.Fatal("unknown model should fail")
	}
}

func TestRunFigureExperimentAndJSONArchive(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	err := run(context.Background(), []string{"-exp", "table7", "-rows", "120", "-models", "LR",
		"-datasets", "student", "-warmup", "6", "-gen", "2",
		"-templates", "1", "-queries", "1", "-json", dir}, &buf, &buf)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "table7.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "FeatAug(Full)") {
		t.Fatalf("archive missing rows: %s", data)
	}
}

func TestRunEachFigure(t *testing.T) {
	var buf bytes.Buffer
	common := []string{"-rows", "120", "-models", "LR", "-warmup", "5",
		"-gen", "2", "-templates", "1", "-queries", "1"}
	for _, exp := range []string{"fig5", "fig6", "fig7", "fig8", "fig9"} {
		args := append([]string{"-exp", exp}, common...)
		if exp == "fig5" || exp == "fig6" {
			args = append(args, "-datasets", "student")
		}
		if exp == "fig8" || exp == "fig9" {
			args = append(args, "-datasets", "merchant")
		}
		if err := run(context.Background(), args, &buf, &buf); err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
	}
}

// TestFitTransformRoundTrip exercises the plan flags: fit once to a JSON
// file, then transform a fresh batch with the saved plan.
func TestFitTransformRoundTrip(t *testing.T) {
	dir := t.TempDir()
	planPath := filepath.Join(dir, "plan.json")

	var buf bytes.Buffer
	err := run(context.Background(), []string{
		"-fit", "student", "-rows", "150", "-seed", "1", "-models", "LR",
		"-warmup", "8", "-gen", "3", "-templates", "1", "-queries", "1",
		"-plan-out", planPath,
	}, &buf, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "fit:") {
		t.Fatalf("fit output missing summary: %s", buf.String())
	}
	if _, err := os.Stat(planPath); err != nil {
		t.Fatalf("plan file not written: %v", err)
	}

	// Transform a different batch (fresh seed) with the saved plan. stdout
	// carries the CSV payload, stderr the human-readable summary.
	buf.Reset()
	var errBuf bytes.Buffer
	err = run(context.Background(), []string{
		"-plan-in", planPath, "-transform", "student", "-rows", "150", "-seed", "2",
	}, &buf, &errBuf)
	if err != nil {
		t.Fatal(err)
	}
	// The payload must be clean CSV: the first line is the header row and
	// already carries the planned feature column.
	out := buf.String()
	header, _, _ := strings.Cut(out, "\n")
	if !strings.Contains(header, "feataug_0") || !strings.Contains(header, ",") {
		t.Fatalf("transform output does not start with the CSV header: %.120s", out)
	}
	if !strings.Contains(errBuf.String(), "transform: 150 rows") {
		t.Fatalf("summary missing from stderr: %s", errBuf.String())
	}

	// -v surfaces the executor's cache/scan stats on stderr in both modes.
	buf.Reset()
	errBuf.Reset()
	err = run(context.Background(), []string{
		"-plan-in", planPath, "-transform", "student", "-rows", "150", "-seed", "2", "-v",
	}, &buf, &errBuf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errBuf.String(), "executor stats:") {
		t.Fatalf("-v stats missing from stderr: %s", errBuf.String())
	}
	buf.Reset()
	errBuf.Reset()
	err = run(context.Background(), []string{
		"-fit", "student", "-rows", "150", "-seed", "1", "-models", "LR",
		"-warmup", "8", "-gen", "3", "-templates", "1", "-queries", "1",
		"-plan-out", filepath.Join(dir, "plan_v.json"), "-v",
	}, &buf, &errBuf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errBuf.String(), "executor stats:") {
		t.Fatalf("-v fit stats missing from stderr: %s", errBuf.String())
	}
}

// TestFitTransformCombined exercises the combined -fit -transform invocation:
// one process fits the plan, persists it, and materialises the features onto
// the same dataset through the process-level caches — the saved plan and the
// CSV both land, and -v shows the transform reusing the fit's join indexes.
func TestFitTransformCombined(t *testing.T) {
	dir := t.TempDir()
	planPath := filepath.Join(dir, "plan.json")
	csvPath := filepath.Join(dir, "batch.csv")

	var buf, errBuf bytes.Buffer
	err := run(context.Background(), []string{
		"-fit", "student", "-rows", "150", "-seed", "1", "-models", "LR",
		"-warmup", "8", "-gen", "3", "-templates", "1", "-queries", "1",
		"-plan-out", planPath, "-transform", "student", "-out", csvPath, "-v",
	}, &buf, &errBuf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(planPath); err != nil {
		t.Fatalf("combined mode did not persist the plan: %v", err)
	}
	data, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	header, _, _ := strings.Cut(string(data), "\n")
	if !strings.Contains(header, "feataug_0") {
		t.Fatalf("combined CSV header missing planned feature: %.200s", header)
	}
	errOut := errBuf.String()
	// Both halves print their fusion counters.
	if !strings.Contains(errOut, "fit: shared scans:") || !strings.Contains(errOut, "transform: shared scans:") {
		t.Fatalf("-v missing shared-scan lines for both modes: %s", errOut)
	}
	// The delta counters line, golden: a fit/transform run never appends, so
	// it must report exactly zero absorbed appends and zero full rebuilds.
	if !strings.Contains(errOut, "fit: delta: 0 appends absorbed") ||
		!strings.Contains(errOut, "0 group resorts, 0 full rebuilds") {
		t.Fatalf("-v missing or non-zero delta counters line: %s", errOut)
	}
	// The transform joins features onto the SAME training table the fit
	// warmed the process join cache with, so the shared index must hit.
	tail := errOut[strings.Index(errOut, "transform: scatter:"):]
	line, _, _ := strings.Cut(tail, "\n")
	if strings.Contains(line, "shared join index 0 hits") {
		t.Fatalf("combined transform did not reuse the fit's join index: %s", line)
	}
}

// TestFitTransformMultiRoundTrip exercises the multi-table scenario spec:
// fit a MultiFeaturePlan on tmall's relevant table split by action, then
// transform a fresh batch with the saved plan.
func TestFitTransformMultiRoundTrip(t *testing.T) {
	dir := t.TempDir()
	planPath := filepath.Join(dir, "multi.json")

	var buf, errBuf bytes.Buffer
	err := run(context.Background(), []string{
		"-fit", "tmall:split=action", "-rows", "150", "-seed", "1", "-models", "LR",
		"-warmup", "8", "-gen", "3", "-templates", "1", "-queries", "1",
		"-plan-out", planPath, "-v",
	}, &buf, &errBuf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "relevant tables ->") {
		t.Fatalf("fit output missing multi summary: %s", out)
	}
	// Per-source progress lines carry the source identity.
	if !strings.Contains(out, "fit[buy]:") {
		t.Fatalf("fit output missing per-source progress: %s", out)
	}
	// -v log lines are scoped per source.
	if !strings.Contains(errBuf.String(), "[buy] ") {
		t.Fatalf("-v output missing source-scoped log lines: %s", errBuf.String())
	}
	data, err := os.ReadFile(planPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"sources"`) {
		t.Fatalf("plan file is not a multi plan: %.200s", data)
	}

	buf.Reset()
	errBuf.Reset()
	err = run(context.Background(), []string{
		"-plan-in", planPath, "-transform", "tmall:split=action", "-rows", "150", "-seed", "2", "-v",
	}, &buf, &errBuf)
	if err != nil {
		t.Fatal(err)
	}
	header, _, _ := strings.Cut(buf.String(), "\n")
	if !strings.Contains(header, "_feataug_0") {
		t.Fatalf("transform CSV header missing planned features: %.200s", header)
	}
	if !strings.Contains(errBuf.String(), "executor stats:") {
		t.Fatalf("-v stats missing from stderr: %s", errBuf.String())
	}

	// Plan-kind mismatches are caught with a pointed message.
	if err := run(context.Background(), []string{
		"-plan-in", planPath, "-transform", "tmall", "-rows", "150",
	}, &buf, &errBuf); err == nil || !strings.Contains(err.Error(), "multi-table plan") {
		t.Fatalf("single spec on multi plan: err = %v", err)
	}

	// Serving tolerates a tiny fresh batch that may miss fit-time sources
	// entirely: sources bind by the plan's source names (empty when absent),
	// so the transform still succeeds with every planned column present.
	buf.Reset()
	errBuf.Reset()
	err = run(context.Background(), []string{
		"-plan-in", planPath, "-transform", "tmall:split=action", "-rows", "4", "-logs", "1", "-seed", "3",
	}, &buf, &errBuf)
	if err != nil {
		t.Fatalf("tiny-batch transform failed: %v", err)
	}
	header, _, _ = strings.Cut(buf.String(), "\n")
	for _, want := range []string{"buy_feataug_0", "cart_feataug_0", "click_feataug_0", "fav_feataug_0"} {
		if !strings.Contains(header, want) {
			t.Fatalf("tiny-batch CSV header missing %s: %.300s", want, header)
		}
	}
}

// TestParseScenarioAndSplitErrors covers the scenario-spec error paths.
func TestParseScenarioAndSplitErrors(t *testing.T) {
	if ds, col, err := parseScenario("tmall"); ds != "tmall" || col != "" || err != nil {
		t.Fatalf("plain spec = %q,%q,%v", ds, col, err)
	}
	if ds, col, err := parseScenario("tmall:split=action"); ds != "tmall" || col != "action" || err != nil {
		t.Fatalf("split spec = %q,%q,%v", ds, col, err)
	}
	for _, bad := range []string{"tmall:split=", "tmall:shard=action", ":split=action"} {
		if _, _, err := parseScenario(bad); err == nil {
			t.Errorf("spec %q should fail", bad)
		}
	}
	var buf bytes.Buffer
	// Unknown split column.
	if err := run(context.Background(), []string{"-fit", "tmall:split=ghost", "-plan-out",
		filepath.Join(t.TempDir(), "p.json")}, &buf, &buf); err == nil {
		t.Error("unknown split column should fail")
	}
	// Numeric split column.
	if err := run(context.Background(), []string{"-fit", "tmall:split=price", "-plan-out",
		filepath.Join(t.TempDir(), "p.json")}, &buf, &buf); err == nil {
		t.Error("numeric split column should fail")
	}
}

// TestFitTransformFlagValidation covers the mode-flag error paths.
func TestFitTransformFlagValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-fit", "student"}, &buf, &buf); err == nil {
		t.Fatal("-fit without -plan-out should fail")
	}
	if err := run(context.Background(), []string{"-plan-in", "x.json"}, &buf, &buf); err == nil {
		t.Fatal("-plan-in without -transform should fail")
	}
	if err := run(context.Background(), []string{"-fit", "a", "-plan-in", "b"}, &buf, &buf); err == nil {
		t.Fatal("-fit with -plan-in should fail")
	}
	if err := run(context.Background(), []string{"-fit", "student", "-transform", "student"}, &buf, &buf); err == nil {
		t.Fatal("combined -fit/-transform without -plan-out should fail")
	}
	if err := run(context.Background(), []string{"-plan-in", "/nonexistent.json", "-transform", "student"}, &buf, &buf); err == nil {
		t.Fatal("missing plan file should fail")
	}
	if err := run(context.Background(), []string{"-fit", "nope", "-plan-out", "p.json"}, &buf, &buf); err == nil {
		t.Fatal("unknown dataset should fail")
	}
	if err := run(context.Background(), []string{"-fit", "student", "-models", "LR,XGB", "-plan-out", "p.json"}, &buf, &buf); err == nil {
		t.Fatal("-fit with multiple models should fail")
	}
}
