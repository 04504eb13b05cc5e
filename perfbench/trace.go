package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer's public function, recorded from
// the benchmark's side of the call.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`     // traced op the span belongs to
	Parent int    `json:"parent"` // index of the enclosing span, -1 at top level
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Alloc  uint64 `json:"alloc_bytes"` // heap bytes allocated inside the span
	Calls  int    `json:"calls"`       // public calls the span covers (1 unless batched)
}

// tracer keeps spans in memory for the whole run; write dumps them once
// the run has ended, so no file I/O lands inside a measurement.
type tracer struct {
	base  time.Time
	spans []span
	open  int // innermost open span, -1 when none
	op    int
}

func newTracer() *tracer { return &tracer{base: now(), open: -1} }

// begin opens a span nested in the innermost open one and returns its id.
// A nil tracer records nothing, so one code path serves traced and
// untraced callers.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: t.open, Calls: 1})
	id := len(t.spans) - 1
	t.open = id
	s := &t.spans[id]
	s.Alloc = heapAllocBytes()
	s.Start = int64(now().Sub(t.base))
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	end := int64(now().Sub(t.base))
	s := &t.spans[id]
	s.End = end
	s.Alloc = heapAllocBytes() - s.Alloc
	t.open = s.Parent
}

// endN closes a span that covers calls public calls, each too short to
// time alone.
func (t *tracer) endN(id, calls int) {
	t.end(id)
	t.spans[id].Calls = calls
}

// layerTotals sums, per span name, the duration, the self time (duration
// minus the time its children cover), the allocated bytes and the calls.
type layerTotals struct {
	dur, self time.Duration
	alloc     uint64
	calls     int
}

func (t *tracer) totals() map[string]*layerTotals {
	out := make(map[string]*layerTotals)
	get := func(name string) *layerTotals {
		lt := out[name]
		if lt == nil {
			lt = &layerTotals{}
			out[name] = lt
		}
		return lt
	}
	for _, s := range t.spans {
		d := time.Duration(s.End - s.Start)
		lt := get(s.Name)
		lt.dur += d
		lt.self += d
		lt.alloc += s.Alloc
		lt.calls += s.Calls
		if s.Parent >= 0 {
			get(t.spans[s.Parent].Name).self -= d
		}
	}
	return out
}

// write dumps the spans as JSON to dir/name.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	path := filepath.Join(dir, name)
	b, err := json.Marshal(t.spans)
	if err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	return path, nil
}
