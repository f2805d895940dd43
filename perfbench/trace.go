package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Spans of one Fit or one request share
// Req; Parent is the ID of the span that caused this one (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so call sites need no branches.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newID returns a fresh span or request identifier (never 0).
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// openSpan is a started, unfinished span.
type openSpan struct {
	t *tracer
	s span
}

// begin starts a span named name under parent for request req.
func (t *tracer) begin(name string, parent, req int64) openSpan {
	if t == nil {
		return openSpan{}
	}
	return openSpan{t: t, s: span{ID: t.newID(), Parent: parent, Req: req, Name: name, Start: int64(time.Since(t.t0))}}
}

// id is the span's identifier, for use as a child's parent.
func (o openSpan) id() int64 { return o.s.ID }

// end finishes the span and records it.
func (o openSpan) end() {
	if o.t == nil {
		return
	}
	o.s.End = int64(time.Since(o.t.t0))
	o.t.record(o.s)
}

// record stores a finished span whose times were taken elsewhere.
func (t *tracer) record(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// at converts a wall-clock instant to the tracer's span clock.
func (t *tracer) at(ts time.Time) int64 { return int64(ts.Sub(t.t0)) }

// now is the current instant on the span clock (0 when untraced).
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return t.at(time.Now())
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// durationsMS returns the durations in milliseconds of every span named name.
func durationsMS(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// spansWithin returns the spans that started at or after from and ended at
// or before to.
func spansWithin(spans []span, from, to int64) []span {
	var out []span
	for _, s := range spans {
		if s.Start >= from && s.End <= to {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns, per span name, the summed self time in seconds: each
// span's duration minus the part of it its child spans cover.
func selfTimes(spans []span) map[string]float64 {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Name] += float64(s.End-s.Start-covered(s, children[s.ID])) / 1e9
	}
	return out
}

// covered returns how many nanoseconds of parent's interval the union of the
// children's intervals covers.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	return total + curHi - curLo
}

// write stores the spans as JSON at path, creating its directory.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
