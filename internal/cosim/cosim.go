// Package cosim is the detailed-mode simulator: it co-schedules every
// worker's NDP task pipeline (compute + DRAM, at the ndp timing model)
// with flit-level transport on the memory-centric network, cycle by cycle
// — the closest analogue of the paper's Booksim-based methodology, where
// "the logic layer, DRAM accesses, network communication, and the
// execution model were implemented in the network interface".
//
// A full 256-worker CNN iteration is intractable at this fidelity on one
// core, so cosim runs single layers at reduced scale (e.g. 16 workers) and
// serves to cross-check the event-driven phase model of internal/sim.
package cosim

import (
	"fmt"

	"mptwino/internal/comm"
	"mptwino/internal/conv"
	"mptwino/internal/ndp"
	"mptwino/internal/noc"
	"mptwino/internal/topology"
	"mptwino/internal/winograd"
)

// Spec describes the iteration to co-simulate. P is the (first) layer;
// Extra chains additional layers behind it (each layer's forward waits for
// the previous layer's activation, and its backward feeds the previous
// layer's gradient transform). St is the (Ng, Nc) Winograd strategy every
// layer runs; its transform follows P's kernel and St.TileM.
type Spec struct {
	St    comm.Strategy
	P     conv.Params
	Extra []conv.Params
	Batch int

	NDP ndp.Config
	Net noc.Config
}

// layers returns the full layer list.
func (s Spec) layers() []conv.Params {
	return append([]conv.Params{s.P}, s.Extra...)
}

// Task pipeline stages; indices are identical on every worker so a message
// can name its destination stage directly.
const (
	tTransform  = iota // fprop: local input transform + scatter sends
	tDots              // fprop: element dot products (waits for scatters)
	tInverse           // fprop: gather + inverse transform + activation
	tGradXform         // bprop: output-gradient transform + scatter sends
	tBdots             // bprop: element dot products
	tGdots             // updateGrad: element dot products + first chunk send
	tCollective        // updateGrad: ring collective completion marker
	taskCount
)

// task is one pipeline stage, gated on local predecessors and on message
// arrivals.
type task struct {
	name     string
	cycles   int64 // compute/DRAM duration (max of the two, double-buffered)
	deps     []int
	waitMsgs int
	sends    []send // fired at completion

	started, finished bool
	finishAt          int64
	arrived           int
	depsDone          int
}

type send struct {
	dst   int
	bytes int
	task  int
	hop   int
}

// worker is one NDP module's execution state; a single compute engine
// serializes its tasks.
type worker struct {
	id    int
	tasks []*task
	busy  int
	// pendingFwd buffers collective chunks (per layer base) that arrived
	// before this worker's own gradient was ready (the Reduce block holds
	// them in its communication buffer).
	pendingFwd map[int][]send
}

// Result summarizes one co-simulated iteration.
type Result struct {
	Cycles  int64
	Seconds float64
	// ForwardCycles is the cycle at which the last worker finished the
	// forward pass (tInverse).
	ForwardCycles int64
	NetBytes      map[topology.LinkClass]int64
}

// Cosim couples the workers with the network.
type Cosim struct {
	spec    Spec
	tr      *winograd.Transform
	net     *noc.Network
	workers []*worker
	now     int64
}

// New builds the co-simulator: the hybrid (Ng, Nc) fabric plus one task
// pipeline per worker covering fprop, bprop, and the updateGrad ring
// collective. Filter or channel shards, Section V reductions and direct
// convolution are errors: the pipelines model none of them.
func New(spec Spec) (*Cosim, error) {
	st := spec.St
	if err := st.Validate(); err != nil {
		return nil, err
	}
	if !st.Winograd || st.Extended() || st.GatherReduction != 0 || st.ScatterReduction != 0 {
		return nil, fmt.Errorf("cosim: strategy %+v is not a plain Winograd (Ng, Nc) grid", st)
	}
	tr, err := st.Transform(spec.P.K)
	if err != nil {
		return nil, err
	}
	for _, lp := range spec.layers() {
		if err := lp.Validate(); err != nil {
			return nil, err
		}
		if lp.K != tr.R {
			return nil, fmt.Errorf("cosim: kernel %d does not match %s", lp.K, tr)
		}
	}
	if err := spec.Net.Validate(); err != nil {
		return nil, err
	}
	g := topology.Hybrid(st.Ng, st.Nc, false)
	c := &Cosim{spec: spec, tr: tr, net: noc.New(g, spec.Net)}
	for id := 0; id < st.Workers(); id++ {
		c.workers = append(c.workers, c.buildWorker(id))
	}
	return c, nil
}

func (c *Cosim) grp(id int) int { return id / c.spec.St.Nc }
func (c *Cosim) clu(id int) int { return id % c.spec.St.Nc }
func (c *Cosim) peer(grp, clu int) int {
	return topology.WorkerID(grp, clu, c.spec.St.Nc)
}

// ringNext returns the worker after id on its group's collective ring.
func (c *Cosim) ringNext(id int) int {
	return c.peer(c.grp(id), (c.clu(id)+1)%c.spec.St.Nc)
}

// collHops is the total ring hops per chunk: Nc−1 to reduce, Nc−1 to
// broadcast.
func (c *Cosim) collHops() int {
	if c.spec.St.Nc <= 1 {
		return 0
	}
	return 2 * (c.spec.St.Nc - 1)
}

// buildWorker constructs one worker's pipeline across every layer of the
// spec: layer l's tasks live at index base l·taskCount, chained so that a
// layer's forward waits for the previous layer's activation and its
// gradient transform waits for the next layer's backward dots. Byte counts
// follow the §III-C model; durations follow the ndp timing model.
func (c *Cosim) buildWorker(id int) *worker {
	s := c.spec
	cfg := s.NDP
	tr, st := c.tr, s.St
	t2 := int64(tr.T) * int64(tr.T)
	ng := int64(st.Ng)
	peers := st.Ng - 1
	layers := s.layers()

	dur := func(computeCycles, dramBytes int64) int64 {
		d := int64(cfg.DRAMSeconds(dramBytes) * cfg.ClockHz)
		if computeCycles > d {
			return computeCycles
		}
		return d
	}
	grp, clu := c.grp(id), c.clu(id)

	w := &worker{id: id, busy: -1, pendingFwd: make(map[int][]send)}
	for li, lp := range layers {
		base := li * taskCount
		tilesH := int64((lp.OutH() + tr.M - 1) / tr.M)
		tilesW := int64((lp.OutW() + tr.M - 1) / tr.M)
		rows := int64(s.Batch) * tilesH * tilesW / int64(st.Nc)
		if rows < 1 {
			rows = 1
		}
		in, out := int64(lp.In), int64(lp.Out)
		// This worker owns rows/Ng tiles spatially; after the transform it
		// sends each peer group that group's element share of its tiles.
		perPeerScatter := int(4 * rows * in * t2 / (ng * ng))
		perPeerGather := int(4 * rows * out * t2 / (ng * ng))

		toPeers := func(bytes, target int) []send {
			var outSends []send
			if bytes <= 0 {
				return nil
			}
			for pg := 0; pg < st.Ng; pg++ {
				if pg == grp {
					continue
				}
				outSends = append(outSends, send{dst: c.peer(pg, clu), bytes: bytes, task: base + target})
			}
			return outSends
		}
		add := func(name string, cycles int64, deps []int, waitMsgs int, sends []send) {
			w.tasks = append(w.tasks, &task{
				name: fmt.Sprintf("L%d/%s", li, name), cycles: cycles,
				deps: deps, waitMsgs: waitMsgs, sends: sends,
			})
		}

		var xformDeps []int
		if li > 0 {
			// Forward chaining on the previous layer's activation.
			xformDeps = []int{(li-1)*taskCount + tInverse}
		}
		transformCycles := dur(cfg.VectorCycles(rows/ng*in*t2*int64(tr.T)*2),
			2*4*rows*in*t2/ng)
		add("fprop/transform", transformCycles, xformDeps, 0,
			toPeers(perPeerScatter, tDots))

		elems := float64(t2) / float64(st.Ng)
		dotCycles := dur(int64(elems*float64(cfg.MatmulCycles(rows, in, out))),
			4*rows*in*t2/ng+4*in*out*t2/ng)
		add("fprop/dots", dotCycles, []int{base + tTransform}, peers,
			toPeers(perPeerGather, tInverse))

		invCycles := dur(cfg.VectorCycles(rows/ng*out*t2*int64(tr.M)*2),
			4*rows*out*t2/ng)
		add("fprop/inverse", invCycles, []int{base + tDots}, peers, nil)

		// Backward chaining: the last layer's gradient arrives after its
		// own activation; earlier layers wait for the next layer's
		// backward dots (deps patched below once that layer exists).
		add("bprop/grad-transform", transformCycles, []int{base + tInverse}, 0,
			toPeers(perPeerGather, tBdots))
		bdotCycles := dur(int64(elems*float64(cfg.MatmulCycles(rows, out, in))),
			4*rows*out*t2/ng)
		add("bprop/dots", bdotCycles, []int{base + tGradXform}, peers, nil)

		gdotCycles := dur(int64(elems*float64(cfg.MatmulCycles(in, rows, out))),
			4*(rows*in*t2+rows*out*t2)/ng)
		shard := int(4 * in * out * t2 / ng)
		var first []send
		if st.Nc > 1 {
			first = []send{{dst: c.ringNext(id), bytes: shard / st.Nc, task: base + tCollective, hop: 0}}
		}
		add("update/dots", gdotCycles, []int{base + tBdots}, 0, first)

		// The collective marker finishes when this worker has seen every
		// hop of the chunks circling its group's ring.
		add("update/collective", 0, []int{base + tGdots}, c.collHops(), nil)
	}
	// Patch backward chaining: layer l's grad transform also waits for
	// layer l+1's backward dots.
	for li := 0; li < len(layers)-1; li++ {
		gx := w.tasks[li*taskCount+tGradXform]
		gx.deps = append(gx.deps, (li+1)*taskCount+tBdots)
	}
	return w
}

// driverAdapter routes deliveries into worker state and forwards
// collective chunks along the ring.
type driverAdapter struct{ c *Cosim }

func (d driverAdapter) Start(n *noc.Network) {}
func (d driverAdapter) Done() bool           { return true }

func (d driverAdapter) OnDeliver(n *noc.Network, m *noc.Message) {
	c := d.c
	w := c.workers[m.Dst]
	taskIdx := m.Tag & 0xffff
	hop := m.Tag >> 16
	t := w.tasks[taskIdx]
	t.arrived++
	if taskIdx%taskCount != tCollective {
		return
	}
	// Relay the chunk to the next ring hop once this worker's own gradient
	// exists (the Reduce block needs both contributions); otherwise buffer
	// it in the communication buffer.
	if hop+1 >= c.collHops() {
		return
	}
	base := taskIdx - tCollective
	fwd := send{dst: c.ringNext(m.Dst), bytes: m.Bytes, task: taskIdx, hop: hop + 1}
	if w.tasks[base+tGdots].finished {
		c.inject(m.Dst, fwd)
	} else {
		w.pendingFwd[base] = append(w.pendingFwd[base], fwd)
	}
}

func (c *Cosim) inject(src int, s send) {
	c.net.Inject(&noc.Message{Src: src, Dst: s.dst, Bytes: s.bytes, Tag: s.task | s.hop<<16})
}

// Run advances the co-simulation until every worker finished every task or
// maxCycles elapses.
func (c *Cosim) Run(maxCycles int64) (Result, error) {
	d := driverAdapter{c}
	res := Result{}
	for {
		if c.allDone() {
			break
		}
		if c.now >= maxCycles {
			return Result{}, fmt.Errorf("cosim: exceeded %d cycles with work outstanding", maxCycles)
		}
		c.step(d)
		if res.ForwardCycles == 0 && c.forwardDone() {
			res.ForwardCycles = c.now
		}
	}
	res.Cycles = c.now
	res.Seconds = float64(c.now) / c.spec.NDP.ClockHz
	res.NetBytes = c.net.BytesByClass
	return res, nil
}

// step advances one cycle: the network delivers this cycle's flits (and
// with them message arrivals), then every worker's scheduler runs.
func (c *Cosim) step(d noc.Driver) {
	c.now++
	c.net.Step(d)
	for _, w := range c.workers {
		c.advance(w)
	}
}

// advance retires a finished task and starts the next ready one.
func (c *Cosim) advance(w *worker) {
	if w.busy >= 0 {
		t := w.tasks[w.busy]
		if c.now < t.finishAt {
			return
		}
		t.finished = true
		for _, dep := range w.tasks {
			for _, d := range dep.deps {
				if d == w.busy {
					dep.depsDone++
				}
			}
		}
		for _, s := range t.sends {
			if s.bytes > 0 {
				c.inject(w.id, s)
			}
		}
		if w.busy%taskCount == tGdots {
			base := w.busy - tGdots
			for _, s := range w.pendingFwd[base] {
				c.inject(w.id, s)
			}
			delete(w.pendingFwd, base)
		}
		w.busy = -1
	}
	// Start the lowest-index ready task (the pre-defined order of §VI-A).
	for i, t := range w.tasks {
		if t.started {
			continue
		}
		if t.depsDone < len(t.deps) || t.arrived < t.waitMsgs {
			continue
		}
		t.started = true
		t.finishAt = c.now + t.cycles
		w.busy = i
		return
	}
}

func (c *Cosim) forwardDone() bool {
	lastBase := (len(c.spec.layers()) - 1) * taskCount
	for _, w := range c.workers {
		if !w.tasks[lastBase+tInverse].finished {
			return false
		}
	}
	return true
}

// allDone reports whether every task on every worker finished and the
// network drained.
func (c *Cosim) allDone() bool {
	for _, w := range c.workers {
		for _, t := range w.tasks {
			if !t.finished {
				return false
			}
		}
	}
	return c.net.Idle()
}
