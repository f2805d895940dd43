package main

import (
	"encoding/json"
	"os"
	"testing"
)

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "child", Start: 20, End: 50},  // overlaps the first child
		{ID: 4, Parent: 1, Name: "child", Start: 90, End: 120}, // runs past the parent
	}
	self := selfTimes(spans)
	if got := self["parent"] * 1e9; got < 49.5 || got > 50.5 {
		t.Errorf("parent self time %v ns, want 50 (100 minus 40 and 10 covered)", got)
	}
	if got := self["child"] * 1e9; got < 79.5 || got > 80.5 {
		t.Errorf("child self time %v ns, want 80 (20+30+30)", got)
	}
}

// A phase's handler time counts only the spans that lie inside the phase.
func TestSpansWithinWindow(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "h", Start: 5, End: 15},  // starts before the window
		{ID: 2, Name: "h", Start: 10, End: 20}, // inside
		{ID: 3, Name: "h", Start: 25, End: 35}, // ends after it
	}
	got := spansWithin(spans, 10, 30)
	if len(got) != 1 || got[0].ID != 2 {
		t.Errorf("spansWithin(10, 30) = %+v, want only span 2", got)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	s := tr.begin("x", 0, tr.newID())
	s.end()
	if len(tr.snapshot()) != 0 || s.id() != 0 {
		t.Error("a nil tracer recorded a span")
	}
}

// BENCHMARK.json must list exactly the metrics the command reports.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var b struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		got  []struct{ Name, Unit string }
		want []metricDef
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the command reports %d", len(c.got), len(c.want))
		}
		for i, m := range c.want {
			if c.got[i].Name != m.name || c.got[i].Unit != m.unit {
				t.Errorf("metric %d: BENCHMARK.json has %s (%s), the command %s (%s)", i, c.got[i].Name, c.got[i].Unit, m.name, m.unit)
			}
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the command has %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is unknown to the command", w.Name)
		}
	}
}
