// Command benchreport converts `go test -bench` text output into a stable
// JSON document, so CI can archive one machine-readable perf snapshot per
// change (BENCH_<n>.json) and the repo accumulates a benchmark trajectory.
//
// Usage:
//
//	go test -run '^$' -bench 'ExecuteBatch|AugmentValuesBatch' -benchmem ./... | \
//	    go run ./cmd/benchreport -out BENCH_3.json
//
// Each benchmark line contributes its iterations plus every value/unit pair
// (ns/op, B/op, allocs/op and any custom ReportMetric units such as
// queries/s or speedup_fused_vs_pr1). Memory metrics — resident bytes/row,
// mem_reduction ratios and peak_rss* readings — are additionally lifted into
// a top-level "memory" section so residency snapshots are one jq away.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result.
type Benchmark struct {
	Name       string             `json:"name"`
	Package    string             `json:"package,omitempty"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// MemoryMetric is one memory-focused measurement lifted out of the benchmark
// metrics (resident bytes/row, reduction ratios, process peak RSS), so a
// perf snapshot answers "what does it cost to hold the table" without
// grepping every benchmark's metric map.
type MemoryMetric struct {
	Benchmark string  `json:"benchmark"`
	Metric    string  `json:"metric"`
	Value     float64 `json:"value"`
}

// Report is the archived document.
type Report struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
	// Memory summarises the residency metrics across all benchmarks
	// (units matching bytes/row, mem_reduction or peak_rss*), in
	// (benchmark, metric) order; omitted when no benchmark reports any.
	Memory []MemoryMetric `json:"memory,omitempty"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is the command body: it parses flags from args, reads benchmark text
// from -in (or stdin), and writes the JSON report to -out (or stdout). It
// returns the process exit code; errors, including input without a single
// benchmark result line, print to stderr and return 1.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchreport", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("out", "", "write the JSON report to this file (default stdout)")
	in := fs.String("in", "", "read benchmark text from this file (default stdin)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchreport:", err)
		return 1
	}
	r := stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		r = f
	}
	rep, err := Parse(r)
	if err != nil {
		return fail(err)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return fail(err)
	}
	data = append(data, '\n')
	if *out == "" {
		stdout.Write(data)
		return 0
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		return fail(err)
	}
	return 0
}

// Parse reads `go test -bench` output and collects every benchmark line.
// Benchmarks are sorted by (package, name) so the report is deterministic
// regardless of package test order. Input without a single benchmark result
// line is an error: it means the -bench pattern matched nothing, and an
// empty report would silently stand in for a missing measurement.
func Parse(r io.Reader) (*Report, error) {
	rep := &Report{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	pkg := ""
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			rep.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "Benchmark"):
			b, ok := parseLine(line)
			if !ok {
				continue
			}
			b.Package = pkg
			rep.Benchmarks = append(rep.Benchmarks, b)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(rep.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark result lines in input (did the -bench pattern match nothing?)")
	}
	sort.Slice(rep.Benchmarks, func(i, j int) bool {
		a, b := rep.Benchmarks[i], rep.Benchmarks[j]
		if a.Package != b.Package {
			return a.Package < b.Package
		}
		return a.Name < b.Name
	})
	rep.Memory = memoryMetrics(rep.Benchmarks)
	return rep, nil
}

// isMemoryMetric reports whether a metric unit describes residency rather
// than speed: per-row resident bytes, a compact-vs-raw reduction ratio, or
// the process peak RSS a big-table benchmark recorded.
func isMemoryMetric(unit string) bool {
	return strings.Contains(unit, "bytes/row") ||
		unit == "mem_reduction" ||
		strings.HasPrefix(unit, "peak_rss")
}

// memoryMetrics lifts the memory metrics out of an already-sorted benchmark
// list, metrics in name order within each benchmark.
func memoryMetrics(benchmarks []Benchmark) []MemoryMetric {
	var out []MemoryMetric
	for _, b := range benchmarks {
		units := make([]string, 0, len(b.Metrics))
		for u := range b.Metrics {
			if isMemoryMetric(u) {
				units = append(units, u)
			}
		}
		sort.Strings(units)
		for _, u := range units {
			out = append(out, MemoryMetric{Benchmark: b.Name, Metric: u, Value: b.Metrics[u]})
		}
	}
	return out
}

// parseLine parses one result line:
//
//	BenchmarkName-8   120   9650 ns/op   2.64 speedup   1234 B/op   5 allocs/op
func parseLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Benchmark{}, false
	}
	name := fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		// Strip the GOMAXPROCS suffix; it is machine detail, not identity.
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: name, Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		b.Metrics[fields[i+1]] = v
	}
	return b, len(b.Metrics) > 0
}
