package telemetry

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden trace file")

// pidNoC and pidThird are two lanes beside PIDSim, so the golden spans
// three processes.
const (
	pidNoC   = 2
	pidThird = 3
)

// goldenTracer builds a small fixed scenario spanning every event kind and
// three pid lanes, emitted deliberately out of lane order so the test
// also pins the canonical (pid, tid, ts) export ordering.
func goldenTracer() *Tracer {
	tr := NewTracer()
	tr.NameProcess(PIDSim, "sim")
	tr.NameThread(PIDSim, 0, "config w_mp++")
	tr.NameProcess(pidNoC, "noc")
	tr.NameThread(pidNoC, 3, "node 3")
	tr.NameProcess(pidThird, "mpt")
	tr.NameThread(pidThird, 0, "training steps")

	tr.Span(pidThird, 0, "step", "mpt.phase", 0, 1, map[string]any{"loss": 0.5})
	tr.Span(PIDSim, 0, "Early fwd", "sim.phase", 0, 1200, map[string]any{"ng": 16, "nc": 16})
	tr.Instant(pidNoC, 3, "retransmit", "noc.fault", 420, map[string]any{"msg": 7})
	tr.Span(PIDSim, 0, "Early bwd", "sim.phase", 1200, 2400, nil)
	return tr
}

// TestChromeTraceGolden pins the exported bytes against a checked-in
// golden file (refresh with `go test ./internal/telemetry -update`) and
// proves the output round-trips as well-formed Chrome trace_event JSON:
// it re-parses into both a schema check and the typed Trace, and the
// typed re-encoding reproduces the original bytes exactly.
func TestChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenTracer().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join("testdata", "golden_trace.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("trace bytes differ from %s:\ngot:\n%s\nwant:\n%s", path, buf.Bytes(), want)
	}

	// Schema check: every event carries the trace_event required fields
	// with a known phase; instants carry a scope.
	var doc struct {
		TraceEvents     []map[string]any `json:"traceEvents"`
		DisplayTimeUnit string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want \"ms\"", doc.DisplayTimeUnit)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no traceEvents")
	}
	valid := map[string]bool{"X": true, "i": true, "M": true}
	for i, ev := range doc.TraceEvents {
		for _, key := range []string{"name", "ph", "ts", "pid", "tid"} {
			if _, ok := ev[key]; !ok {
				t.Errorf("event %d: missing required field %q: %v", i, key, ev)
			}
		}
		ph, _ := ev["ph"].(string)
		if !valid[ph] {
			t.Errorf("event %d: unknown phase %q", i, ph)
		}
		if ph == "i" {
			if s, _ := ev["s"].(string); s != "t" {
				t.Errorf("event %d: instant scope %q, want \"t\"", i, s)
			}
		}
	}

	// Typed round-trip: Trace -> JSON -> Trace -> JSON is the identity on
	// bytes, so nothing the encoder emits is lossy or order-unstable.
	var typed Trace
	if err := json.Unmarshal(buf.Bytes(), &typed); err != nil {
		t.Fatalf("re-parse into Trace: %v", err)
	}
	var again bytes.Buffer
	enc := json.NewEncoder(&again)
	enc.SetIndent("", " ")
	if err := enc.Encode(typed); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Errorf("typed round-trip changed the bytes:\nfirst:\n%s\nsecond:\n%s", buf.Bytes(), again.Bytes())
	}
}
