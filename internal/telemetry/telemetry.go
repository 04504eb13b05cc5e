// Package telemetry is the repo's deterministic observability layer: an
// atomic counter/gauge/histogram registry and a span/event tracer whose
// timestamps are **simulated cycles, never wall clock**. Both halves obey
// the two invariants every simulation package already lives under:
//
//   - Zero cost when disabled. Every instrument is nil-safe: a nil
//     *Counter, *Gauge, *Histogram, or *Tracer accepts every method as a
//     no-op, so instrumented code holds possibly-nil handles and pays one
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
// Allocation discipline: counter/gauge/histogram updates are allocation
// free and allowed inside the *Into kernels (mptlint's allocflow analyzer
// walks them clean); resolving handles from a Registry or emitting trace
// events locks and allocates and must stay outside the hot loops
// (allocflow flags it).
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
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

// A Histogram counts observations into fixed upper-bound buckets (plus an
// implicit +Inf overflow bucket). Bounds are set at registration and never
// change, so Observe is a scan plus one atomic increment — allocation free.
// A nil Histogram ignores observations.
type Histogram struct {
	bounds  []float64 // ascending upper bounds
	buckets []atomic.Int64
}

// Observe counts v into its bucket (no-op on nil).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	for i, b := range h.bounds {
		if v <= b {
			h.buckets[i].Add(1)
			return
		}
	}
	h.buckets[len(h.bounds)].Add(1)
}

// Total returns the observation count across all buckets (zero on nil).
func (h *Histogram) Total() int64 {
	if h == nil {
		return 0
	}
	var t int64
	for i := range h.buckets {
		t += h.buckets[i].Load()
	}
	return t
}

// Buckets returns the bucket upper bounds and their counts (the last count
// is the +Inf overflow bucket). Nil-safe.
func (h *Histogram) Buckets() ([]float64, []int64) {
	if h == nil {
		return nil, nil
	}
	counts := make([]int64, len(h.buckets))
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
	}
	return h.bounds, counts
}

// Percentile returns the q-quantile (q in (0, 1]) as a bucket upper bound:
// the smallest bound whose cumulative count reaches ceil(q·total).
// Observations that landed in the +Inf overflow bucket clamp to the last
// finite bound — the histogram cannot resolve beyond it. Returns 0 on an
// empty histogram (nil-safe). Bucket counts are commutative atomic folds,
// so the result is schedule-independent.
func (h *Histogram) Percentile(q float64) float64 {
	if h == nil || len(h.bounds) == 0 {
		return 0
	}
	bounds, counts := h.Buckets()
	return percentileOf(bounds, counts, q)
}

// percentileOf is the pure-form quantile used by Percentile and the
// registry dumps (which already hold a snapshot of the counts).
func percentileOf(bounds []float64, counts []int64, q float64) float64 {
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 || len(bounds) == 0 {
		return 0
	}
	// rank = ceil(q·total) without float rounding hazards at exact
	// multiples: the smallest integer r with r ≥ q·total.
	rank := int64(q * float64(total))
	if float64(rank) < q*float64(total) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, b := range bounds {
		cum += counts[i]
		if cum >= rank {
			return b
		}
	}
	return bounds[len(bounds)-1] // overflow bucket: clamp to last finite bound
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
	hists  map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		ctrs:   map[string]*Counter{},
		gauges: map[string]*Gauge{},
		hists:  map[string]*Histogram{},
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

// Histogram returns the named histogram, registering it with the given
// ascending upper bounds on first use (nil-safe). Later lookups ignore the
// bounds argument and return the registered instrument.
func (r *Registry) Histogram(name string, bounds ...float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		if len(bounds) == 0 {
			// Default: ten 0.1-wide utilization buckets over [0, 1].
			bounds = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
		}
		bs := append([]float64(nil), bounds...)
		h = &Histogram{bounds: bs, buckets: make([]atomic.Int64, len(bs)+1)}
		r.hists[name] = h
	}
	return h
}

// snapshotRow is one instrument's serialized state.
type snapshotRow struct {
	kind string // "counter", "gauge", "histogram"
	name string
	val  int64
	// histogram detail
	bounds []float64
	counts []int64
}

// rows collects every instrument sorted by name (kind breaks ties).
func (r *Registry) rows() []snapshotRow {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]snapshotRow, 0, len(r.ctrs)+len(r.gauges)+len(r.hists))
	for name, c := range r.ctrs {
		out = append(out, snapshotRow{kind: "counter", name: name, val: c.Load()})
	}
	for name, g := range r.gauges {
		out = append(out, snapshotRow{kind: "gauge", name: name, val: g.Load()})
	}
	for name, h := range r.hists {
		bounds, counts := h.Buckets()
		out = append(out, snapshotRow{kind: "histogram", name: name, bounds: bounds, counts: counts, val: h.Total()})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].name != out[j].name {
			return out[i].name < out[j].name
		}
		return out[i].kind < out[j].kind
	})
	return out
}

// Snapshot returns every scalar instrument's value keyed by name;
// histograms contribute "<name>.count" plus "<name>.le<bound>" entries.
func (r *Registry) Snapshot() map[string]int64 {
	out := map[string]int64{}
	for _, row := range r.rows() {
		switch row.kind {
		case "histogram":
			out[row.name+".count"] = row.val
			for i, b := range row.bounds {
				out[row.name+".le"+formatBound(b)] = row.counts[i]
			}
			out[row.name+".leInf"] = row.counts[len(row.bounds)]
		default:
			out[row.name] = row.val
		}
	}
	return out
}

// WriteText dumps the registry as aligned "name value" lines in sorted
// order — the `-metrics` console format.
func (r *Registry) WriteText(w io.Writer) error {
	for _, row := range r.rows() {
		switch row.kind {
		case "histogram":
			if _, err := fmt.Fprintf(w, "%-40s %12d\n", row.name+".count", row.val); err != nil {
				return err
			}
			for i, b := range row.bounds {
				if _, err := fmt.Fprintf(w, "%-40s %12d\n", row.name+".le"+formatBound(b), row.counts[i]); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%-40s %12d\n", row.name+".leInf", row.counts[len(row.bounds)]); err != nil {
				return err
			}
			for _, pq := range percentileDump {
				if _, err := fmt.Fprintf(w, "%-40s %12s\n", row.name+pq.suffix,
					formatBound(percentileOf(row.bounds, row.counts, pq.q))); err != nil {
					return err
				}
			}
		default:
			if _, err := fmt.Fprintf(w, "%-40s %12d\n", row.name, row.val); err != nil {
				return err
			}
		}
	}
	return nil
}

// percentileDump lists the quantile lines every histogram dump carries.
var percentileDump = []struct {
	suffix string
	q      float64
}{
	{".p50", 0.50},
	{".p95", 0.95},
	{".p99", 0.99},
}

// WriteJSON dumps the registry as one sorted JSON object (encoding/json
// sorts map keys, so the byte stream is canonical for a given state).
// Scalar instruments and histogram bucket counts serialize as integers;
// histograms additionally carry "<name>.p50/.p95/.p99" quantile entries,
// which may be fractional bucket bounds.
func (r *Registry) WriteJSON(w io.Writer) error {
	out := map[string]any{}
	for k, v := range r.Snapshot() { // key-slot copy: order-independent
		out[k] = v
	}
	for _, row := range r.rows() {
		if row.kind != "histogram" {
			continue
		}
		for _, pq := range percentileDump {
			out[row.name+pq.suffix] = percentileOf(row.bounds, row.counts, pq.q)
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// formatBound renders a histogram bound compactly and deterministically
// (0.1 -> "0.1", 1 -> "1").
func formatBound(b float64) string {
	return strconv.FormatFloat(b, 'g', -1, 64)
}
