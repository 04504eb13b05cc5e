// Package telemetry is the repo's deterministic observability layer: an
// atomic counter/gauge registry and a span/event tracer whose timestamps
// are **simulated cycles, never wall clock**. Both halves obey the two
// invariants every simulation package already lives under:
//
//   - Zero cost when disabled. Every instrument is nil-safe: a nil
//     *Counter, *Gauge or *Tracer accepts every method as a no-op, so
//     instrumented code holds possibly-nil handles and pays one
//     predictable branch when telemetry is off — no interface dispatch, no
//     allocation, no atomic traffic.
//
//   - Deterministic when enabled. Counters and gauges are commutative
//     folds (atomic adds and max-CAS), so their totals are independent of
//     goroutine schedule; trace events are emitted only from the
//     deterministic fold points of the instrumented packages (post-barrier
//     sweeps, index-ordered result assembly) and exported in a canonical
//     order, so the metrics snapshot and the trace byte stream are
//     bit-identical at any worker count. The cycle-domain rule is enforced
//     statically: mptlint's notime analyzer rejects any import of the time
//     package here.
//
// Allocation discipline: counter and gauge updates are allocation free
// and allowed inside the *Into kernels (mptlint's allocflow analyzer walks
// them clean); resolving handles from a Registry or emitting trace events
// locks and allocates and must stay outside the hot loops (allocflow flags
// it).
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// A Counter is a monotonically increasing atomic tally. The zero value is
// ready to use; a nil Counter ignores updates (the disabled path).
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (no-op on nil).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one (no-op on nil).
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current total (zero on nil).
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// A Gauge is an atomic last/max-value instrument. The zero value is ready;
// a nil Gauge ignores updates.
type Gauge struct {
	v atomic.Int64
}

// Set stores v (no-op on nil).
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Max raises the gauge to v if v exceeds the stored value (no-op on nil).
// The CAS loop makes concurrent Max calls fold commutatively, so the final
// value is schedule-independent.
func (g *Gauge) Max(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Load returns the stored value (zero on nil).
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// A Registry names and owns a set of instruments. Registration locks;
// updates through the returned handles never do. The dump methods emit
// instruments in sorted-name order, so two registries fed the same updates
// serialize byte-identically.
//
// A nil *Registry is the disabled state: its lookup methods return nil
// handles, which in turn drop every update.
type Registry struct {
	mu     sync.Mutex
	ctrs   map[string]*Counter
	gauges map[string]*Gauge
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		ctrs:   map[string]*Counter{},
		gauges: map[string]*Gauge{},
	}
}

// Counter returns the named counter, registering it on first use. A nil
// registry returns a nil (no-op) counter. Resolve handles once at
// attach/setup time — this lookup locks and may allocate, so it must stay
// out of the steady-state kernels (allocflow enforces this).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.ctrs[name]
	if !ok {
		c = &Counter{}
		r.ctrs[name] = c
	}
	return c
}

// Gauge returns the named gauge, registering it on first use (nil-safe).
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// snapshotRow is one instrument's serialized state.
type snapshotRow struct {
	kind string // "counter" or "gauge"
	name string
	val  int64
}

// rows collects every instrument sorted by name (kind breaks ties).
func (r *Registry) rows() []snapshotRow {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]snapshotRow, 0, len(r.ctrs)+len(r.gauges))
	for name, c := range r.ctrs {
		out = append(out, snapshotRow{kind: "counter", name: name, val: c.Load()})
	}
	for name, g := range r.gauges {
		out = append(out, snapshotRow{kind: "gauge", name: name, val: g.Load()})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].name != out[j].name {
			return out[i].name < out[j].name
		}
		return out[i].kind < out[j].kind
	})
	return out
}

// Snapshot returns every instrument's value keyed by name.
func (r *Registry) Snapshot() map[string]int64 {
	out := map[string]int64{}
	for _, row := range r.rows() {
		out[row.name] = row.val
	}
	return out
}

// WriteText dumps the registry as aligned "name value" lines in sorted
// order — the `-metrics` console format.
func (r *Registry) WriteText(w io.Writer) error {
	for _, row := range r.rows() {
		if _, err := fmt.Fprintf(w, "%-40s %12d\n", row.name, row.val); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON dumps the registry as one sorted JSON object of integers
// (encoding/json sorts map keys, so the byte stream is canonical for a
// given state).
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
