package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// The benchmark's own open-loop load generator. serve.RunLoadgen is closed
// loop (a client sends its next request only after the previous answer) and
// drops refused and failed requests from its latency samples; an open loop
// sends on a fixed schedule whatever the server does, times every operation
// from when it was due, and counts refusals and failures as misses.

// opResult is the outcome of one scheduled operation. Times are offsets from
// the schedule's start.
type opResult struct {
	due, start, end time.Duration
	err             error
}

// latencyMS is the operation's latency counted from its due time, so a stall
// charges its wait to every operation queued behind it.
func (r opResult) latencyMS() float64 { return float64(r.end-r.due) / 1e6 }

// lateMS is how long after its due time the generator sent the operation.
func (r opResult) lateMS() float64 { return float64(r.start-r.due) / 1e6 }

// statusError is a non-200 HTTP answer.
type statusError struct{ code int }

func (e statusError) Error() string { return fmt.Sprintf("HTTP status %d", e.code) }

// refused reports whether err is a 429 (admission control turned it away).
func refused(err error) bool {
	var se statusError
	return errors.As(err, &se) && se.code == 429
}

// runOpenLoop performs n operations, the i-th due at due(i) after the start,
// from senders goroutines that take operations in schedule order. A sender
// that falls behind sends at once; the delay shows as lateness and, because
// latency counts from the due time, as latency. It returns when every
// operation has finished; cancelling ctx skips the operations not yet sent,
// which then carry ctx's error.
func runOpenLoop(ctx context.Context, senders, n int, due func(i int) time.Duration, send func(i int) error) []opResult {
	out := make([]opResult, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				d := due(i)
				if wait := time.Until(t0.Add(d)); wait > 0 {
					select {
					case <-time.After(wait):
					case <-ctx.Done():
					}
				}
				r := opResult{due: d, start: time.Since(t0)}
				if err := ctx.Err(); err != nil {
					r.err = err
				} else {
					r.err = send(i)
				}
				r.end = time.Since(t0)
				out[i] = r
			}
		}()
	}
	wg.Wait()
	return out
}

// uniformDue spaces operations evenly at rate per second.
func uniformDue(rate float64) func(i int) time.Duration {
	return func(i int) time.Duration { return time.Duration(float64(i) / rate * float64(time.Second)) }
}

// phaseStats summarises a set of operations.
type phaseStats struct {
	n, failed int
	refused   int       // failures that were 429s (admission control)
	latMS     []float64 // every operation; a failed one reads +Inf (a miss)
	lateMS    []float64 // in schedule order
}

func summarize(rs []opResult) phaseStats {
	p := phaseStats{n: len(rs)}
	for _, r := range rs {
		lat := r.latencyMS()
		if r.err != nil {
			p.failed++
			lat = math.Inf(1)
			if refused(r.err) {
				p.refused++
			}
		}
		p.latMS = append(p.latMS, lat)
		p.lateMS = append(p.lateMS, r.lateMS())
	}
	return p
}

// misses counts operations that failed, were refused, or took longer than
// limitMS from their due time.
func (p phaseStats) misses(limitMS float64) int {
	m := 0
	for _, l := range p.latMS {
		if l > limitMS {
			m++
		}
	}
	return m
}

// backlogGrowing reports whether the generator fell further behind over the
// phase: the median lateness of its last third exceeds that of its first
// third by more than half the latency limit. Under capacity lateness only
// jitters; over capacity the queue, and so lateness, grows with time.
func backlogGrowing(lateMS []float64, limitMS float64) bool {
	third := len(lateMS) / 3
	if third == 0 {
		return false
	}
	first := median(lateMS[:third])
	last := median(lateMS[len(lateMS)-third:])
	return last-first > limitMS/2
}

// meetsSLO reports whether a phase kept at least pct% of its operations
// within limitMS (failures and refusals count as misses) without a growing
// backlog.
func meetsSLO(p phaseStats, limitMS, pct float64) bool {
	allowed := int(math.Floor(float64(p.n) * (100 - pct) / 100))
	return p.n > 0 && p.misses(limitMS) <= allowed && !backlogGrowing(p.lateMS, limitMS)
}

// The goodput ladder: fixed offered rates rung(k) = ladderBase·ladderRatio^k
// requests per second. Goodput is the highest rung that meets the SLO.
const (
	ladderBase  = 10.0
	ladderRatio = 1.05
	ladderTop   = 80 // rung(80) ≈ 500 req/s, far above what two senders reach
)

func rung(k int) float64 { return ladderBase * math.Pow(ladderRatio, float64(k)) }

// searchGoodput returns the highest rung index in [0, ladderTop] at which
// pass holds, or -1 if none does. It walks two rungs at a time: upward from
// start until two probes in a row fail, so that one probe spoiled by a stall
// (a collection, a noisy neighbour) does not end the climb; or, when start
// fails, downward until a probe passes. It then probes the rung just above
// the highest pass, which the two-rung stride skipped.
func searchGoodput(start int, pass func(k int) bool) int {
	last := -1
	if pass(start) {
		last = start
		for k, fails := start+2, 0; k <= ladderTop && fails < 2; k += 2 {
			if pass(k) {
				last, fails = k, 0
			} else {
				fails++
			}
		}
	} else {
		for k := start - 2; k >= 0; k -= 2 {
			if pass(k) {
				last = k
				break
			}
		}
	}
	if last+1 <= ladderTop && last+1 != start && pass(last+1) {
		return last + 1
	}
	return last
}
