package main

import (
	"math"
	"testing"
)

func TestTailPercentileRule(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want bool
	}{
		{1000, 99, true}, {999, 99, false},
		{200, 95, true}, {199, 95, false},
		{20, 50, true}, {19, 50, false},
	}
	for _, c := range cases {
		if got := tailSupported(c.n, c.p); got != c.want {
			t.Errorf("tailSupported(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 200..1, unsorted input
	}
	if got := percentile(xs, 95); got != 190 {
		t.Errorf("p95 of 1..200 = %v, want 190", got)
	}
	if got := percentile(xs, 100); got != 200 {
		t.Errorf("p100 of 1..200 = %v, want 200", got)
	}
	if got := median(xs); got != 100.5 {
		t.Errorf("median of 1..200 = %v, want 100.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of {3,1,2} = %v, want 2", got)
	}
	if xs[0] != 200 {
		t.Error("percentile or median reordered its input")
	}
	if !math.IsNaN(median(nil)) || !math.IsNaN(percentile(nil, 50)) {
		t.Error("empty input should give NaN")
	}
}

func TestCPUJiffies(t *testing.T) {
	total, steal, err := cpuJiffies()
	if err != nil {
		t.Skip("no /proc/stat:", err)
	}
	if total == 0 || steal > total {
		t.Errorf("cpuJiffies = total %d, steal %d", total, steal)
	}
}
