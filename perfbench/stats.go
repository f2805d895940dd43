package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// minTail is the number of samples that must lie beyond a reported
// percentile: with fewer, the percentile is set by a handful of outliers and
// does not repeat from run to run.
const minTail = 10

// median returns the middle of xs (the mean of the two middle values when
// len(xs) is even), or NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of xs (0 < p ≤ 100):
// the smallest sample with at least p% of the samples at or below it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// tailSupported reports whether n samples leave at least minTail samples
// beyond the p-th percentile, the rule for reporting that percentile.
func tailSupported(n int, p float64) bool {
	return float64(n)*(100-p)/100 >= minTail
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, os.ErrNotExist
}

// cpuJiffies reads the machine's total and stolen CPU time, in clock ticks,
// from the first line of /proc/stat. Stolen time is time a virtual CPU was
// ready to run while the host ran something else: on a shared host it
// slows every timed phase alike, so the run reports its share beside the
// timings.
func cpuJiffies() (total, steal uint64, err error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	for i, f := range fields[1:] {
		n, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, err
		}
		if i < 8 { // user … steal; guest time is already inside user
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return total, steal, nil
}

// allocMark is a reading of the bytes the process has allocated so far.
type allocMark uint64

func startAlloc() allocMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return allocMark(ms.TotalAlloc)
}

// kb returns the KiB allocated since the mark.
func (m allocMark) kb() float64 {
	return float64(uint64(startAlloc())-uint64(m)) / 1024
}
