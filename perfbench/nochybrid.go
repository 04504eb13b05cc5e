package main

import (
	"fmt"

	"mptwino/internal/noc"
	"mptwino/internal/telemetry"
	"mptwino/internal/tensor"
	"mptwino/internal/topology"
)

// The paper's 256-module fabric: 16 groups × 16 clusters, a ring per group
// on full links and a 4×4 FBFLY per cluster on narrow links.
const (
	nocGroups    = 16
	nocClusters  = 16
	nocMaxCycles = 10_000_000
)

// The seed deals these sizes out to the groups' rings (bytes per member)
// and the clusters' all-to-alls (bytes per pair). Dealing a fixed set
// keeps the total traffic, and so the op's work, the same for every seed.
var (
	nocRingBytes = []int{256, 288, 320, 352, 384, 416, 448, 480,
		256, 288, 320, 352, 384, 416, 448, 480}
	nocPairBytes = []int{32, 36, 40, 44, 48, 52, 56, 60,
		32, 36, 40, 44, 48, 52, 56, 60}
)

type nocInputs struct {
	ringBytes, pairBytes []int
	want                 int // messages a complete run delivers
}

func nocInputsFor(seed uint64) (inputs, error) {
	rng := tensor.NewRNG(seed)
	deal := func(sizes []int) []int {
		out := append([]int(nil), sizes...)
		for i := len(out) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			out[i], out[j] = out[j], out[i]
		}
		return out
	}
	in := &nocInputs{ringBytes: deal(nocRingBytes), pairBytes: deal(nocPairBytes)}
	// A ring of n members forwards each of its n chunks 2(n−1) times; an
	// all-to-all of n members sends n(n−1) messages.
	in.want = nocGroups*nocClusters*2*(nocClusters-1) + nocClusters*nocGroups*(nocGroups-1)
	return in, nil
}

func (in *nocInputs) build() (instance, error) {
	return &nocInst{in: in, g: topology.Hybrid(nocGroups, nocClusters, false), cfg: noc.DefaultConfig()}, nil
}

type nocInst struct {
	in     *nocInputs
	g      *topology.Graph
	cfg    noc.Config
	cycles int64     // the warm-up op's cycle count
	stats  noc.Stats // the last traced op's
}

// countingDriver counts deliveries, so the check sees every message
// arrive rather than trusting the drivers' own bookkeeping.
type countingDriver struct {
	noc.Driver
	delivered int
}

func (c *countingDriver) OnDeliver(n *noc.Network, m *noc.Message) {
	c.delivered++
	c.Driver.OnDeliver(n, m)
}

type nocResult struct {
	stats      noc.Stats
	delivered  int
	want       int
	wantCycles int64
	clockHz    float64
}

func (r *nocResult) check() error {
	s := r.stats
	if r.delivered != r.want || s.Messages != r.want {
		return fmt.Errorf("noc: %d of %d messages delivered (%d injected)", r.delivered, r.want, s.Messages)
	}
	if s.DroppedFlits != 0 || s.Retransmits != 0 {
		return fmt.Errorf("noc: %d flits dropped, %d retransmits on a healthy fabric", s.DroppedFlits, s.Retransmits)
	}
	if r.wantCycles != 0 && s.Cycles != r.wantCycles {
		return fmt.Errorf("noc: %d cycles, warm-up op took %d", s.Cycles, r.wantCycles)
	}
	return nil
}

func (r *nocResult) model() (float64, float64) {
	return float64(r.stats.Cycles) / r.clockHz * 1e6, float64(r.stats.Bytes) / 1e6
}

// run builds the op's traffic — a ring collective per group plus an
// all-to-all per cluster, all at once — and simulates it on a new network.
func (t *nocInst) run(tr *tracer) (result, error) {
	var ds []noc.Driver
	for grp := 0; grp < nocGroups; grp++ {
		members := make([]int, nocClusters)
		for c := range members {
			members[c] = topology.WorkerID(grp, c, nocClusters)
		}
		ds = append(ds, &noc.RingCollective{Members: members, Bytes: t.in.ringBytes[grp]})
	}
	for c := 0; c < nocClusters; c++ {
		members := make([]int, nocGroups)
		for grp := range members {
			members[grp] = topology.WorkerID(grp, c, nocClusters)
		}
		ds = append(ds, &noc.AllToAll{Members: members, Bytes: t.in.pairBytes[c]})
	}
	d := &countingDriver{Driver: noc.NewMultiDriver(ds...)}

	id := tr.begin("noc.new")
	n := noc.New(t.g, t.cfg)
	tr.end(id)
	id = tr.begin("noc.run")
	st, err := n.Run(d, nocMaxCycles)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	return &nocResult{stats: st, delivered: d.delivered, want: t.in.want, wantCycles: t.cycles, clockHz: t.cfg.ClockHz}, nil
}

func (t *nocInst) op() (result, error) { return t.run(nil) }

func (t *nocInst) traced(tr *tracer, _ *telemetry.Registry) (result, error) {
	r, err := t.run(tr)
	if err == nil {
		t.stats = r.(*nocResult).stats
	}
	return r, err
}

func (t *nocInst) calibrate(warm result) error {
	w := warm.(*nocResult)
	t.cycles = w.stats.Cycles
	w.wantCycles = t.cycles
	return nil
}

func (t *nocInst) perLayer(tr *tracer, _ *telemetry.Registry, ops int) map[string]float64 {
	s := newSpanStats(tr, ops)
	run := s.ms("noc.run")
	cycles := float64(t.stats.Cycles)
	return map[string]float64{
		"noc.new_ms":            s.ms("noc.new"),
		"noc.run_ms":            run,
		"noc.cycles":            cycles,
		"noc.flit_hops":         float64(t.stats.FlitHops),
		"noc.host_us_per_cycle": run * 1e3 / cycles,
	}
}
