// Package telemetry is the instrumentation half of the noalloc golden
// fixture, shaped like internal/telemetry: the atomic updates a kernel may
// call walk clean, while a registry lookup locks and allocates and a trace
// event appends. Fixtures see real packages only as export data, so this
// stand-in gives allocflow bodies to walk.
package telemetry

import (
	"sync"
	"sync/atomic"
)

// A Counter is an atomic tally; a nil Counter ignores updates.
type Counter struct{ v atomic.Int64 }

func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

func (c *Counter) Inc() { c.Add(1) }

// A Gauge is an atomic last/max value; a nil Gauge ignores updates.
type Gauge struct{ v atomic.Int64 }

func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

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

// A Histogram counts observations into fixed upper-bound buckets.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Int64
}

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

// A Registry names instruments: a lookup locks and registers on first use.
type Registry struct {
	mu     sync.Mutex
	ctrs   map[string]*Counter
	gauges map[string]*Gauge
}

func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.ctrs[name]
	if !ok {
		c = &Counter{}
		r.ctrs[name] = c
	}
	return c
}

func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// A Tracer records events: every emission appends.
type Tracer struct{ events []string }

func (t *Tracer) Instant(name string) {
	t.events = append(t.events, name)
}
