package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro/internal/query
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkExecuteBatchFused-1   	      10	   2775414 ns/op	     72064 queries/s	 1158352 B/op	    5159 allocs/op
BenchmarkExecuteBatchFusedSpeedup 	      10	   8582661 ns/op	         2.639 speedup_fused_vs_pr1	 6341406 B/op	   20877 allocs/op
PASS
ok  	repro/internal/query	0.251s
pkg: repro
BenchmarkExecutePerQuery-1     	       5	 226493careless ns/op
BenchmarkExecuteBatch-1        	       5	  12345678 ns/op	      9720 queries/s
BenchmarkStringHeavy10M-1      	       1	 987654321 ns/op	        58.64 bytes/row	         2.749 mem_reduction	       812.5 peak_rss_mb	     31250 queries/s
`

func TestParse(t *testing.T) {
	rep, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Goos != "linux" || rep.Goarch != "amd64" || !strings.Contains(rep.CPU, "Xeon") {
		t.Fatalf("header mis-parsed: %+v", rep)
	}
	// The malformed line is skipped; four well-formed benchmarks survive,
	// sorted by (package, name).
	if len(rep.Benchmarks) != 4 {
		t.Fatalf("want 4 benchmarks, got %d: %+v", len(rep.Benchmarks), rep.Benchmarks)
	}
	if rep.Benchmarks[0].Package != "repro" || rep.Benchmarks[0].Name != "BenchmarkExecuteBatch" {
		t.Fatalf("sort order wrong: %+v", rep.Benchmarks[0])
	}
	fused := rep.Benchmarks[2]
	if fused.Name != "BenchmarkExecuteBatchFused" {
		t.Fatalf("GOMAXPROCS suffix not stripped: %q", fused.Name)
	}
	if fused.Iterations != 10 {
		t.Fatalf("iterations = %d", fused.Iterations)
	}
	if fused.Metrics["ns/op"] != 2775414 || fused.Metrics["allocs/op"] != 5159 || fused.Metrics["queries/s"] != 72064 {
		t.Fatalf("metrics mis-parsed: %+v", fused.Metrics)
	}
	speedup := rep.Benchmarks[3]
	if speedup.Metrics["speedup_fused_vs_pr1"] != 2.639 {
		t.Fatalf("custom metric mis-parsed: %+v", speedup.Metrics)
	}
}

func TestMemorySection(t *testing.T) {
	rep, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	// Exactly the residency metrics of the 10M benchmark, in metric order;
	// queries/s and ns/op stay out of the memory section.
	want := []MemoryMetric{
		{Benchmark: "BenchmarkStringHeavy10M", Metric: "bytes/row", Value: 58.64},
		{Benchmark: "BenchmarkStringHeavy10M", Metric: "mem_reduction", Value: 2.749},
		{Benchmark: "BenchmarkStringHeavy10M", Metric: "peak_rss_mb", Value: 812.5},
	}
	if len(rep.Memory) != len(want) {
		t.Fatalf("memory section = %+v, want %+v", rep.Memory, want)
	}
	for i, m := range want {
		if rep.Memory[i] != m {
			t.Fatalf("memory[%d] = %+v, want %+v", i, rep.Memory[i], m)
		}
	}
}

// TestEmptyInputFails checks that input without a benchmark result line (a
// -bench pattern that matched nothing) fails loudly instead of writing an
// empty report.
func TestEmptyInputFails(t *testing.T) {
	noBench := "goos: linux\ngoarch: amd64\npkg: repro/internal/query\ntesting: warning: no tests to run\nPASS\nok  \trepro/internal/query\t0.012s\n"
	if _, err := Parse(strings.NewReader(noBench)); err == nil {
		t.Fatal("Parse accepted input without benchmark lines")
	}
	out := filepath.Join(t.TempDir(), "BENCH.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-out", out}, strings.NewReader(noBench), &stdout, &stderr); code == 0 {
		t.Fatal("run exited 0 on input without benchmark lines")
	}
	if !strings.Contains(stderr.String(), "benchreport: no benchmark result lines") {
		t.Errorf("stderr = %q, want the no-benchmark message", stderr.String())
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("a report file was written: %v", err)
	}
	// The same command succeeds on real benchmark output.
	stderr.Reset()
	if code := run([]string{"-out", out}, strings.NewReader(sample), &stdout, &stderr); code != 0 {
		t.Fatalf("run = %d on valid input: %s", code, stderr.String())
	}
	if data, err := os.ReadFile(out); err != nil || !bytes.Contains(data, []byte("BenchmarkExecuteBatchFused")) {
		t.Fatalf("report not written: %v %s", err, data)
	}
}
