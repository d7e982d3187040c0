package main

import (
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// its own calls. Spans of one repetition share a trace ID; Parent is the
// ID of the span that caused this one (-1 for a root).
type span struct {
	ID     int            `json:"id"`
	Trace  int            `json:"trace"`
	Parent int            `json:"parent"`
	Name   string         `json:"name"`
	Start  float64        `json:"start_s"`
	End    float64        `json:"end_s"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths call it unconditionally.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	traces int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newTrace returns a fresh trace ID for one repetition.
func (t *tracer) newTrace() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.traces++
	return t.traces
}

// add records a finished span and returns its ID.
func (t *tracer) add(trace, parent int, name string, start, end time.Time, attrs map[string]any) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Trace: trace, Parent: parent, Name: name,
		Start: start.Sub(t.t0).Seconds(), End: end.Sub(t.t0).Seconds(), Attrs: attrs,
	})
	return id
}

func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// layerSelf sums self time per layer: a span's duration minus the part its
// children cover, grouped by the name up to the first '.' ("length.64" →
// "length").
func layerSelf(spans []span) map[string]float64 {
	child := make(map[int]float64)
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]float64)
	for _, s := range spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		out[layer] += s.End - s.Start - child[s.ID]
	}
	return out
}

// coverage is the median, over root spans with children, of the share of
// the root's duration its children cover: how completely the phase spans
// account for each solve.
func coverage(spans []span) float64 {
	child := make(map[int]float64)
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	var shares []float64
	for _, s := range spans {
		if c, ok := child[s.ID]; ok && s.Parent < 0 && s.End > s.Start {
			shares = append(shares, c/(s.End-s.Start))
		}
	}
	if len(shares) == 0 {
		return 0
	}
	sort.Float64s(shares)
	return percentile(shares, 0.5)
}
