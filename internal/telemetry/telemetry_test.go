package telemetry

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

// Every instrument and the registry itself must be callable through nil —
// that is the entire disabled path.
func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("y")
	if c != nil || g != nil {
		t.Fatalf("nil registry must hand out nil instruments")
	}
	c.Add(5)
	c.Inc()
	g.Set(3)
	if c.Load() != 0 || g.Load() != 0 {
		t.Fatalf("nil instruments must read zero")
	}
	if got := r.Snapshot(); len(got) != 0 {
		t.Fatalf("nil registry snapshot = %v, want empty", got)
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil || buf.String() != "{}\n" {
		t.Fatalf("nil registry WriteJSON: err=%v bytes=%q", err, buf.String())
	}

	var tr *Tracer
	if tr.Enabled() {
		t.Fatalf("nil tracer must report disabled")
	}
	tr.Span(0, 0, "s", "c", 0, 10, nil)
	tr.Instant(0, 0, "i", "c", 5, nil)
	tr.NameProcess(0, "p")
	tr.NameThread(0, 0, "t")
	if tr.Len() != 0 {
		t.Fatalf("nil tracer recorded events")
	}
	buf.Reset()
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatalf("nil tracer WriteJSON: %v", err)
	}
	var doc Trace
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("nil tracer emitted invalid JSON: %v", err)
	}
	if doc.TraceEvents == nil || len(doc.TraceEvents) != 0 {
		t.Fatalf("nil tracer must export an empty (non-null) event array")
	}
}

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("flits")
	c.Add(3)
	c.Inc()
	if c.Load() != 4 {
		t.Fatalf("counter = %d, want 4", c.Load())
	}
	if r.Counter("flits") != c {
		t.Fatalf("second lookup must return the same counter")
	}

	g := r.Gauge("occ")
	g.Set(7)
	g.Set(5) // last value wins
	if g.Load() != 5 {
		t.Fatalf("gauge = %d, want 5", g.Load())
	}

	snap := r.Snapshot()
	want := map[string]int64{"flits": 4, "occ": 5}
	for k, v := range want {
		if snap[k] != v {
			t.Errorf("snapshot[%q] = %d, want %d", k, snap[k], v)
		}
	}
	if len(snap) != len(want) {
		t.Errorf("snapshot has %d keys, want %d: %v", len(snap), len(want), snap)
	}
}

// Atomic updates from many goroutines must fold to the same totals and the
// same serialized bytes regardless of schedule.
func TestConcurrentUpdatesDeterministicDump(t *testing.T) {
	dump := func(workers int) []byte {
		r := NewRegistry()
		c := r.Counter("n")
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 1000; i++ {
					c.Add(2)
				}
			}()
		}
		wg.Wait()
		var buf bytes.Buffer
		if err := r.WriteJSON(&buf); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		return buf.Bytes()
	}
	// Same total work split across different worker counts.
	one := dump(1)
	for _, w := range []int{2, 8} {
		r := NewRegistry()
		c := r.Counter("n")
		var wg sync.WaitGroup
		per := 1000 / w
		for i := 0; i < w; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := 0; j < per; j++ {
					c.Add(2)
				}
			}()
		}
		wg.Wait()
		if c.Load() != int64(2*per*w) {
			t.Fatalf("workers=%d: counter=%d", w, c.Load())
		}
	}
	// Identical single-goroutine runs must serialize identically.
	if !bytes.Equal(one, dump(1)) {
		t.Fatalf("identical runs produced different JSON")
	}
}

// TestWriteTextSorted pins the exact bytes of the `-metrics-json` dump for
// a fixed registry: instruments in sorted-name order whatever their kind
// or registration order, in one object with two-space indent.
func TestWriteTextSorted(t *testing.T) {
	r := NewRegistry()
	r.Counter("zeta").Add(1)
	r.Counter("alpha").Add(2)
	r.Gauge("mid").Set(3)
	r.Gauge("peak").Set(9)
	r.Gauge("neg").Set(-42)
	r.Counter("a.counter.name.wider.than.the.name.column").Add(1234567890123)

	const wantJSON = `{
  "a.counter.name.wider.than.the.name.column": 1234567890123,
  "alpha": 2,
  "mid": 3,
  "neg": -42,
  "peak": 9,
  "zeta": 1
}
`
	var js bytes.Buffer
	if err := r.WriteJSON(&js); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if got := js.String(); got != wantJSON {
		t.Errorf("WriteJSON bytes:\n%s\nwant:\n%s", got, wantJSON)
	}
}

// The tracer's export must put metadata first, sort spans by (pid, tid,
// ts) with stable order for ties, and produce byte-identical JSON for the
// same logical event stream emitted in a different interleaving across
// lanes.
func TestTracerCanonicalExport(t *testing.T) {
	build := func(order []int) []byte {
		tr := NewTracer()
		tr.NameProcess(1, "sim")
		tr.NameThread(1, 0, "layers")
		// Three events across two lanes; `order` permutes emission.
		evs := []func(){
			func() { tr.Span(1, 0, "conv1", "layer", 0, 100, map[string]any{"ng": 4, "nc": 2}) },
			func() { tr.Span(1, 0, "conv2", "layer", 100, 50, nil) },
			func() { tr.Instant(1, 1, "fault", "noc", 30, map[string]any{"node": 3}) },
		}
		for _, i := range order {
			evs[i]()
		}
		var buf bytes.Buffer
		if err := tr.WriteJSON(&buf); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		return buf.Bytes()
	}
	a := build([]int{0, 1, 2})
	b := build([]int{2, 0, 1}) // different lane interleaving, same per-lane order
	if !bytes.Equal(a, b) {
		t.Fatalf("per-lane-order-preserving interleavings must serialize identically\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}

	var doc Trace
	if err := json.Unmarshal(a, &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 5 {
		t.Fatalf("got %d events, want 5", len(doc.TraceEvents))
	}
	if doc.TraceEvents[0].Ph != "M" || doc.TraceEvents[1].Ph != "M" {
		t.Fatalf("metadata events must come first: %+v", doc.TraceEvents[:2])
	}
	if doc.TraceEvents[2].Name != "conv1" || doc.TraceEvents[3].Name != "conv2" || doc.TraceEvents[4].Name != "fault" {
		t.Fatalf("events not in (pid,tid,ts) order: %+v", doc.TraceEvents[2:])
	}
}

func BenchmarkCounterAddDisabled(b *testing.B) {
	var c *Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkCounterAddEnabled(b *testing.B) {
	c := NewRegistry().Counter("x")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}
