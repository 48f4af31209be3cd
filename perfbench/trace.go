package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call from the benchmark into a layer of the program:
// the layer and call name, the span that caused it, and the request it
// belongs to (0 for set-up and batch work).
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Dur is the span's duration in seconds.
func (s Span) Dur() float64 { return float64(s.End-s.Start) / 1e9 }

// Tracer keeps spans in memory until the run ends. A disabled tracer
// records nothing and reads no clock.
type Tracer struct {
	on    bool
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []Span
}

func newTracer(on bool) *Tracer { return &Tracer{on: on, t0: time.Now()} }

// Open is a span in progress.
type Open struct {
	t     *Tracer
	span  Span
	start time.Time
}

// Begin opens a span; End closes and records it.
func (t *Tracer) Begin(layer, name string, parent, req int64) Open {
	if t == nil || !t.on {
		return Open{}
	}
	now := time.Now()
	return Open{t: t, start: now, span: Span{
		ID: t.ids.Add(1), Parent: parent, Req: req, Layer: layer, Name: name,
		Start: now.Sub(t.t0).Nanoseconds(),
	}}
}

// ID is the span's identifier, for children to name as their parent.
func (o Open) ID() int64 { return o.span.ID }

// End records the span and returns its duration in seconds (0 when the
// tracer is off).
func (o Open) End() float64 {
	if o.t == nil {
		return 0
	}
	o.span.End = o.span.Start + time.Since(o.start).Nanoseconds()
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.span)
	o.t.mu.Unlock()
	return o.span.Dur()
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Total sums the durations of the spans with the given layer and name.
func (t *Tracer) Total(layer, name string) float64 {
	s := 0.0
	for _, sp := range t.Spans() {
		if sp.Layer == layer && sp.Name == name {
			s += sp.Dur()
		}
	}
	return s
}

// Durations lists the durations of the spans with the given layer and
// name, in seconds.
func (t *Tracer) Durations(layer, name string) []float64 {
	var out []float64
	for _, sp := range t.Spans() {
		if sp.Layer == layer && sp.Name == name {
			out = append(out, sp.Dur())
		}
	}
	return out
}

// Write stores the spans as JSON at path.
func (t *Tracer) Write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.Spans())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
