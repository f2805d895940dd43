package main

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"
)

// A stall in one operation delays the operations due behind it: the open
// loop must report them late and count the wait in their latency.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const n = 10
	rs := runOpenLoop(context.Background(), 1, n, uniformDue(1000), func(i int) error {
		if i == 0 {
			time.Sleep(30 * time.Millisecond)
		}
		return nil
	})
	if len(rs) != n {
		t.Fatalf("got %d results, want %d", len(rs), n)
	}
	if rs[0].lateMS() > 5 {
		t.Errorf("first operation sent %.1f ms late, want on time", rs[0].lateMS())
	}
	for i := 1; i < n; i++ {
		if rs[i].lateMS() < 15 {
			t.Errorf("operation %d sent %.1f ms late, want the stall counted", i, rs[i].lateMS())
		}
		if rs[i].latencyMS() < rs[i].lateMS() {
			t.Errorf("operation %d latency %.1f ms below its lateness %.1f ms", i, rs[i].latencyMS(), rs[i].lateMS())
		}
	}
}

func TestBacklogDetection(t *testing.T) {
	growing := make([]float64, 90)
	steady := make([]float64, 90)
	for i := range growing {
		growing[i] = float64(i) * 2 // 2 ms further behind per operation
		steady[i] = float64(i % 7)  // jitter without a trend
	}
	if !backlogGrowing(growing, latencyLimitMS) {
		t.Error("steadily growing lateness not reported as a growing backlog")
	}
	if backlogGrowing(steady, latencyLimitMS) {
		t.Error("jittering lateness reported as a growing backlog")
	}
	if backlogGrowing([]float64{100, 200}, latencyLimitMS) {
		t.Error("too few samples to judge should not report a backlog")
	}
}

func TestFailuresCountAsMisses(t *testing.T) {
	ok := opResult{due: 0, start: 0, end: time.Millisecond}
	rs := make([]opResult, 100)
	for i := range rs {
		rs[i] = ok
	}
	rs[3].err = statusError{429}
	rs[7].err = errors.New("connection reset")
	rs[9].end = 80 * time.Millisecond // slow but answered
	p := summarize(rs)
	if p.n != 100 || p.failed != 2 || p.refused != 1 {
		t.Fatalf("summarize: n=%d failed=%d refused=%d, want 100, 2 and 1", p.n, p.failed, p.refused)
	}
	if !math.IsInf(p.latMS[3], 1) || !math.IsInf(p.latMS[7], 1) {
		t.Error("a failed operation's latency should read +Inf")
	}
	if got := p.misses(latencyLimitMS); got != 3 {
		t.Errorf("misses = %d, want 3 (429, error, slow)", got)
	}
	if !meetsSLO(p, latencyLimitMS, 95) {
		t.Error("3 misses in 100 should meet a 95% SLO")
	}
	if meetsSLO(p, latencyLimitMS, 99) {
		t.Error("3 misses in 100 should fail a 99% SLO")
	}
	if !refused(rs[3].err) || refused(rs[7].err) || refused(statusError{500}) {
		t.Error("refused should match exactly the 429 answers")
	}
}

func TestSearchGoodput(t *testing.T) {
	for _, c := range []struct {
		start, capacity int // capacity: highest passing rung, -1 for none
		spurious        int // a rung below capacity that fails anyway, -1 for none
		want            int
	}{
		{48, 57, -1, 57}, {48, 58, -1, 58}, {48, 48, -1, 48}, {48, 30, -1, 30}, {48, 31, -1, 31},
		{48, ladderTop, -1, ladderTop}, {48, -1, -1, -1}, {0, 0, -1, 0},
		{48, 57, 52, 57}, // one stalled probe does not end the climb
		{48, 57, 56, 55}, // one just below capacity costs two rungs
	} {
		probes := 0
		got := searchGoodput(c.start, func(k int) bool {
			probes++
			return k <= c.capacity && k != c.spurious
		})
		if got != c.want {
			t.Errorf("start %d, capacity %d, spurious %d: searchGoodput = %d, want %d", c.start, c.capacity, c.spurious, got, c.want)
		}
		if probes > ladderTop/2+3 {
			t.Errorf("capacity %d took %d probes", c.capacity, probes)
		}
	}
}

func TestWalkStart(t *testing.T) {
	// Two senders at 10 ms carry at most 200 req/s; the walk starts at the
	// rung at or below 140 req/s.
	if got := walkStart(40, 2, 10); rung(got) > 140 || rung(got+1) <= 140 {
		t.Errorf("walkStart(40, 2, 10) = rung %d (%.1f req/s), want the rung at or below 140", got, rung(got))
	}
	if got := walkStart(40, 2, 100); got != 40 {
		t.Errorf("a slow server must not start the walk below the fixed rate: got rung %d", got)
	}
}

func TestScheduleMergesAppends(t *testing.T) {
	evs := schedule(10, 2, 0, true)
	reads, appends := 0, 0
	for i, e := range evs {
		if i > 0 && e.due < evs[i-1].due {
			t.Fatalf("event %d due before event %d", i, i-1)
		}
		if e.append {
			appends++
		} else {
			reads++
		}
	}
	if reads != 20 || appends != int(appendRate*2) {
		t.Errorf("got %d reads and %d appends, want 20 and %d", reads, appends, int(appendRate*2))
	}
	if n := len(schedule(10, 1, 150, false)); n != 150 {
		t.Errorf("minimum read count not applied: %d events", n)
	}
}

// A phase reserves exactly the append batches its schedule holds, on top of
// those already sent, and a workload without a stream refuses appends.
func TestTrafficReservesScheduledAppends(t *testing.T) {
	evs := schedule(10, 2, 0, true)
	tf := &traffic{}
	if err := tf.reserve(0); err != nil {
		t.Errorf("reserving nothing without a stream: %v", err)
	}
	if err := tf.reserve(appendsIn(evs)); err == nil {
		t.Error("appends reserved on traffic without an append stream")
	}
	if got, want := appendsIn(evs), int(appendRate*2); got != want {
		t.Errorf("appendsIn = %d, want %d", got, want)
	}
}
