// Package traceview is the repo's trace-analysis engine: it parses the
// canonical Chrome trace_event JSON the telemetry tracer emits (plus the
// flat metrics snapshots of -metrics-json) back into per-lane span
// timelines, reconstructs the critical path through a run, and computes
// attribution reports — per-layer compute/comm/idle breakdowns, the
// comm-hidden-by-compute overlap percentage, and the achieved-vs-bound
// traffic ratio joined from the planner's gauges.
//
// Everything downstream of the tracer is cycle-domain deterministic, so
// every number this package produces is bit-stable: the same simulation at
// any host worker count yields byte-identical reports, which is what lets
// cmd/mpttrace gate model-time regressions exactly (no tolerance bands)
// and assert overlap properties in CI. See DESIGN.md §15 for the span
// taxonomy and the critical-path algorithm.
package traceview

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"mptwino/internal/telemetry"
)

// Span is one complete ("X") event lifted out of the trace, with the
// traceview metadata args (DESIGN.md §15) promoted to fields.
type Span struct {
	Name  string
	Cat   string // trace_event category ("sim.phase", "sim.exec", "noc.msg", ...)
	PID   int
	TID   int
	Start int64 // simulated cycles (or logical steps in the MPT lane)
	Dur   int64

	// TV is the span taxonomy category: "phase" for layer-phase roots,
	// "compute", "comm.tile", "comm.coll", "comm.noc", "overhead".
	// Empty on spans emitted before the taxonomy existed.
	TV string
	// Parent names the causal parent span in the same lane ("" = root).
	Parent string
	// Layer is the model layer the span belongs to ("" = not layer-scoped).
	Layer string

	idx int // emission index: the deterministic tie-break
}

// End returns the first cycle after the span.
func (s Span) End() int64 { return s.Start + s.Dur }

// Lane is one (pid, tid) timeline row.
type Lane struct {
	PID, TID int
	Process  string // process_name metadata (falls back to "pid<N>")
	Thread   string // thread_name metadata (falls back to "tid<N>")
	Spans    []Span // ordered by (Start, emission index)
	Instants int    // instant events observed in this lane
}

// Label returns the lane's display identity, stable across runs.
func (l Lane) Label() string {
	return fmt.Sprintf("%s/%s", l.Process, l.Thread)
}

// Run is a parsed trace plus (optionally) the metrics snapshot of the same
// run, ready for analysis.
type Run struct {
	Lanes []Lane // ordered by (pid, tid)

	// Metrics holds the flat snapshot (-metrics-json / Registry.Snapshot)
	// keyed by instrument name; nil when no snapshot was attached. Values
	// are float64 so that older dumps, whose histogram percentile entries
	// were fractional, still load.
	Metrics map[string]float64
}

// ParseTrace reads Chrome trace_event JSON (the tracer's WriteJSON output)
// into a Run.
func ParseTrace(r io.Reader) (*Run, error) {
	var doc telemetry.Trace
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("traceview: parse trace: %w", err)
	}
	return FromTrace(doc), nil
}

// FromTrace builds a Run from an in-memory event stream (the tracer's
// Export) — the zero-serialization path the in-process tests and the
// mptsim -trace-report flag use. Passing the same events that WriteJSON
// serializes yields the same Run as ParseTrace on the written bytes.
func FromTrace(doc telemetry.Trace) *Run {
	type key struct{ pid, tid int }
	lanes := map[key]*Lane{}
	procNames := map[int]string{}
	lane := func(pid, tid int) *Lane {
		k := key{pid, tid}
		l, ok := lanes[k]
		if !ok {
			l = &Lane{PID: pid, TID: tid}
			lanes[k] = l
		}
		return l
	}
	for i, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			name := argString(ev.Args, "name")
			switch ev.Name {
			case "process_name":
				procNames[ev.PID] = name
			case "thread_name":
				lane(ev.PID, ev.TID).Thread = name
			}
		case "X":
			l := lane(ev.PID, ev.TID)
			l.Spans = append(l.Spans, Span{
				Name:   ev.Name,
				Cat:    ev.Cat,
				PID:    ev.PID,
				TID:    ev.TID,
				Start:  ev.TS,
				Dur:    ev.Dur,
				TV:     argString(ev.Args, "tv"),
				Parent: argString(ev.Args, "tv_parent"),
				Layer:  argString(ev.Args, "layer"),
				idx:    i,
			})
		case "i":
			lane(ev.PID, ev.TID).Instants++
		}
	}

	run := &Run{}
	keys := make([]key, 0, len(lanes))
	for k := range lanes {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].pid != keys[j].pid {
			return keys[i].pid < keys[j].pid
		}
		return keys[i].tid < keys[j].tid
	})
	for _, k := range keys {
		l := lanes[k]
		if name, ok := procNames[l.PID]; ok && name != "" {
			l.Process = name
		} else {
			l.Process = fmt.Sprintf("pid%d", l.PID)
		}
		if l.Thread == "" {
			l.Thread = fmt.Sprintf("tid%d", l.TID)
		}
		sort.SliceStable(l.Spans, func(i, j int) bool {
			if l.Spans[i].Start != l.Spans[j].Start {
				return l.Spans[i].Start < l.Spans[j].Start
			}
			return l.Spans[i].idx < l.Spans[j].idx
		})
		run.Lanes = append(run.Lanes, *l)
	}
	return run
}

// LoadMetrics reads a flat JSON metrics snapshot (the -metrics-json dump:
// one object of name → number) for joining into reports.
func LoadMetrics(r io.Reader) (map[string]float64, error) {
	var m map[string]float64
	if err := json.NewDecoder(r).Decode(&m); err != nil {
		return nil, fmt.Errorf("traceview: parse metrics: %w", err)
	}
	return m, nil
}

// FromSnapshot converts an in-memory Registry.Snapshot to the metrics map
// a Run carries — the in-process equivalent of LoadMetrics.
func FromSnapshot(snap map[string]int64) map[string]float64 {
	if snap == nil {
		return nil
	}
	out := make(map[string]float64, len(snap))
	for name, v := range snap { // key-slot copy: order-independent
		out[name] = float64(v)
	}
	return out
}

// argString extracts a string arg, tolerating absent maps and non-string
// values (JSON round-trips numbers as float64).
func argString(args map[string]any, key string) string {
	if args == nil {
		return ""
	}
	s, _ := args[key].(string)
	return s
}
