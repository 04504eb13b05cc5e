package telemetry

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
)

// Event is one Chrome trace_event record. Timestamps are simulated cycles
// (the viewer renders them as microseconds; at the NDP's 1 GHz clock one
// "microsecond" on screen is one thousand simulated cycles). Only the
// fields the trace_event spec requires are emitted; zero-valued optional
// fields are dropped from the JSON.
type Event struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"` // "X" complete, "i" instant, "M" metadata
	TS   int64          `json:"ts"` // simulated cycles
	Dur  int64          `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	S    string         `json:"s,omitempty"` // instant scope: "g" global, "p" process, "t" thread
	Args map[string]any `json:"args,omitempty"`
}

// PIDSim is internal/sim's pid lane (per-layer phases and sweep cells),
// which renders as its own process row in the Chrome trace viewer.
const PIDSim = 1

// A Tracer accumulates cycle-domain events for Chrome trace_event export.
// A nil *Tracer drops every event (the disabled state), so instrumented
// code calls methods unconditionally.
//
// Determinism contract: callers must emit events only from sequential code
// or from the deterministic fold points of the parallel engine (post-
// barrier sweeps, index-ordered assembly). The tracer itself is
// mutex-guarded so a stray concurrent emit is race-safe, but event ORDER
// is the caller's responsibility — WriteJSON stable-sorts by (pid, tid,
// ts) which makes well-formed emission orders canonical, not arbitrary
// ones.
type Tracer struct {
	mu     sync.Mutex
	events []Event
	meta   []Event // process/thread name metadata, emitted first
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer {
	return &Tracer{}
}

// Enabled reports whether events are being recorded. Use it to skip
// argument-map construction when tracing is off.
func (t *Tracer) Enabled() bool { return t != nil }

// Span records a complete ("X") event covering [start, start+dur) cycles.
// args may be nil. No-op on nil.
func (t *Tracer) Span(pid, tid int, name, cat string, start, dur int64, args map[string]any) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.events = append(t.events, Event{
		Name: name, Cat: cat, Ph: "X", TS: start, Dur: dur, PID: pid, TID: tid, Args: args,
	})
	t.mu.Unlock()
}

// Instant records an instant ("i") event at the given cycle with thread
// scope. No-op on nil.
func (t *Tracer) Instant(pid, tid int, name, cat string, ts int64, args map[string]any) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.events = append(t.events, Event{
		Name: name, Cat: cat, Ph: "i", TS: ts, PID: pid, TID: tid, S: "t", Args: args,
	})
	t.mu.Unlock()
}

// NameProcess attaches a display name to a pid lane. No-op on nil.
func (t *Tracer) NameProcess(pid int, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.meta = append(t.meta, Event{
		Name: "process_name", Ph: "M", PID: pid, Args: map[string]any{"name": name},
	})
	t.mu.Unlock()
}

// NameThread attaches a display name to a (pid, tid) lane. No-op on nil.
func (t *Tracer) NameThread(pid, tid int, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.meta = append(t.meta, Event{
		Name: "thread_name", Ph: "M", PID: pid, TID: tid, Args: map[string]any{"name": name},
	})
	t.mu.Unlock()
}

// Len returns the number of recorded non-metadata events (zero on nil).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Trace is the exported JSON document shape ({"traceEvents": [...]}).
type Trace struct {
	TraceEvents     []Event `json:"traceEvents"`
	DisplayTimeUnit string  `json:"displayTimeUnit"`
}

// Export returns the canonical event stream: metadata first (in emission
// order), then events stable-sorted by (pid, tid, ts). The stable sort
// preserves emission order among equal keys, so deterministic emission
// yields a deterministic stream.
func (t *Tracer) Export() Trace {
	out := Trace{DisplayTimeUnit: "ms"}
	if t == nil {
		out.TraceEvents = []Event{}
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	evs := make([]Event, 0, len(t.meta)+len(t.events))
	evs = append(evs, t.meta...)
	body := append([]Event(nil), t.events...)
	sort.SliceStable(body, func(i, j int) bool {
		if body[i].PID != body[j].PID {
			return body[i].PID < body[j].PID
		}
		if body[i].TID != body[j].TID {
			return body[i].TID < body[j].TID
		}
		return body[i].TS < body[j].TS
	})
	evs = append(evs, body...)
	out.TraceEvents = evs
	return out
}

// WriteJSON writes the trace as Chrome trace_event JSON. encoding/json
// sorts the args map keys, so for a given event stream the output bytes
// are canonical — the determinism tests compare them directly.
func (t *Tracer) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(t.Export())
}
