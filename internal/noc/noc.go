// Package noc is a flit-level simulator of the memory-centric network —
// the role Booksim plays in the paper's methodology (Table III). Routers
// forward flits over class-weighted links (full 30 B/cycle, narrow
// 10 B/cycle at the 1 GHz router clock) with per-hop SerDes latency,
// finite input buffers, and round-robin output arbitration. Traffic
// drivers express the paper's two patterns: pipelined ring collectives and
// cluster-local all-to-all tile transfer.
//
// The simulator transfers flits independently (per-flit virtual
// cut-through) rather than reserving channels per packet; at the message
// sizes and loads evaluated this matches wormhole throughput while keeping
// the model deadlock-free in combination with always-draining ejection.
// Links have no credit flow control: a link transmits whenever it has
// bandwidth and a flit routed to it, and its SerDes pipeline holds what
// the downstream input buffer cannot accept yet, without bound.
//
// The cycle loop is sequential: each cycle visits every link and router
// in index order (step.go), so a run's outcome is a function of its
// configuration, traffic and fault plan alone.
package noc

import (
	"fmt"

	"mptwino/internal/fault"
	"mptwino/internal/telemetry"
	"mptwino/internal/topology"
)

// Config sets the physical parameters of the simulated fabric.
type Config struct {
	FlitBytes    int // flit payload; 10 B makes narrow links exactly 1 flit/cycle
	SerDesCycles int // per-hop serialization+deserialization (paper: 5 ns)
	HostExtra    int // additional cycles on Host-class links (through-host hop)
	BufferFlits  int // input-queue capacity per port, in flits
	ClockHz      float64

	// RandomFirstHop enables randomized minimal routing at injection: a
	// message departs through a uniformly chosen minimal first hop instead
	// of the deterministic table entry, spreading all-to-all load across
	// path-diverse fabrics like the FBFLY (where every 2-hop pair has an
	// XY and a YX path).
	RandomFirstHop bool
	// Seed drives the first-hop randomization (deterministic per seed).
	Seed uint64

	// RetryTimeout is the number of cycles the retransmit protocol waits
	// after a flit drop before re-sending a message's missing bytes from
	// the source. MaxRetries bounds how many retransmissions one message
	// may consume before it is declared lost (and the run errors out).
	// Both only matter under an attached fault plan.
	RetryTimeout int64
	MaxRetries   int
}

// DefaultConfig returns the Table III configuration.
func DefaultConfig() Config {
	return Config{
		FlitBytes:    10,
		SerDesCycles: 5,
		HostExtra:    5,
		BufferFlits:  16,
		ClockHz:      1e9,
		RetryTimeout: 512,
		MaxRetries:   8,
	}
}

// Validate rejects configurations that would divide by zero or livelock the
// simulator (zero flit size stalls every transfer; zero buffering blocks
// every hop; a non-positive clock breaks all time conversion).
func (c Config) Validate() error {
	if c.FlitBytes <= 0 {
		return fmt.Errorf("noc: FlitBytes must be positive, got %d (flits would carry no payload)", c.FlitBytes)
	}
	if c.BufferFlits <= 0 {
		return fmt.Errorf("noc: BufferFlits must be positive, got %d (every hop would block forever)", c.BufferFlits)
	}
	if c.ClockHz <= 0 {
		return fmt.Errorf("noc: ClockHz must be positive, got %v", c.ClockHz)
	}
	if c.SerDesCycles < 0 {
		return fmt.Errorf("noc: SerDesCycles must be non-negative, got %d", c.SerDesCycles)
	}
	if c.HostExtra < 0 {
		return fmt.Errorf("noc: HostExtra must be non-negative, got %d", c.HostExtra)
	}
	if c.RetryTimeout < 0 {
		return fmt.Errorf("noc: RetryTimeout must be non-negative, got %d", c.RetryTimeout)
	}
	if c.MaxRetries < 0 {
		return fmt.Errorf("noc: MaxRetries must be non-negative, got %d", c.MaxRetries)
	}
	return nil
}

// Message is one network transfer between two workers.
type Message struct {
	ID    int
	Src   int
	Dst   int
	Bytes int
	// Tag carries driver-private state (e.g. chunk index / step).
	Tag int

	// Retries counts how many timeout-driven retransmissions this message
	// consumed recovering from dropped flits.
	Retries int

	InjectedAt    int64
	DeliveredAt   int64
	receivedBytes int

	// retransmit-protocol state
	droppedBytes int   // bytes lost to flit drops, awaiting retransmission
	retryAt      int64 // cycle at which the retransmit timer fires
	lossWhy      string

	// The flags share one word, which keeps a Message in the 112-byte
	// size class; a run allocates one per transfer.
	delivered   bool
	queuedRetry bool // already on the retry queue
	lost        bool
}

type flit struct {
	msg   *Message
	bytes int
}

// inFlight is a flit traversing a link's SerDes pipeline.
type inFlight struct {
	f        flit
	arriveAt int64
}

// port is one input queue of a router. Arrivals stop at BufferFlits, and
// transmission pops flits by shifting the rest to the front, so the queue
// lives in the BufferFlits-sized array New gives it.
type port struct {
	queue []flit
	// arrived counts the flits this cycle's arrival stage appended, the
	// only ones the ejection scan has to examine.
	arrived int
}

// link is a directed physical channel.
type link struct {
	from, to    int
	class       topology.LinkClass
	flitsPerCyc int
	latency     int64
	dst         *port // the link's input queue at `to` (one feeder per port)
	// pipeline[head:] are the flits crossing the SerDes, oldest first.
	// Arrivals leave from the front, so they advance head instead of
	// shifting a backlog that reaches a thousand flits under all-to-all
	// load; transmit slides the live flits back to the front when the
	// array fills (push).
	pipeline []inFlight
	head     int
	// stats
	busyFlits int64

	// fault state
	faults []fault.LinkFault // active plan entries for this link
	credit float64           // fractional-bandwidth accumulator while degraded
	dead   bool              // endpoint module failed; link is gone

	// profileScale derates the link for the capability model: the minimum
	// of the endpoints' ModuleProfile link scales (1 = nominal). Unlike
	// fault windows it is static for a run, so it is resolved once at
	// AttachFaults and folded into the same fractional-credit budget the
	// bandwidth faults use.
	profileScale float64
}

// Network is the simulation instance.
type Network struct {
	Cfg    Config
	G      *topology.Graph
	Routes *topology.RouteTable

	links    []*link
	outLinks [][]int // node -> indices into links
	// inOrder lists each node's input ports in link-construction order —
	// the deterministic iteration the cycle loop uses instead of map
	// ranging, so ejection and fault-drain orders are reproducible.
	inOrder [][]*port
	// arbPorts lists each node's input ports in G.Adj order, the order its
	// output links arbitrate over them (each link's injection queue comes
	// last). Built by buildArb from the current topology.
	arbPorts [][]*port
	// waiting[v] counts the transit flits in node v's input ports: set by
	// the ejection scan, decremented as transmission pops them.
	waiting []int
	// injectQ is per outgoing link, not per node: locally injected flits
	// queue at the output port their route departs through, so messages
	// bound for different links never head-of-line block each other.
	injectQ [][]flit // indexed like links
	rr      []int    // round-robin cursor per link

	now       int64
	messages  []*Message
	pendingID int
	rngState  uint64

	// fault machinery
	plan            *fault.Plan
	failed          []bool // per-node permanent-failure flag
	ownsGraph       bool   // G was cloned before mutating it
	pendingFailures []fault.NodeFault
	retryQ          []*Message // messages with dropped bytes awaiting timeout
	lost            []*Message // messages declared undeliverable

	scratch stepScratch // the cycle loop's workspace (step.go)

	// Stats
	BytesByClass map[topology.LinkClass]int64
	FlitHops     int64
	DroppedFlits int64
	Retransmits  int64

	// telemetry handles (zero value = disabled; see Instrument)
	tel instruments
}

// New builds a network simulator over graph g. It panics on an invalid
// config (see Config.Validate) — a zero flit size or buffer capacity would
// otherwise livelock the simulator far from the cause.
func New(g *topology.Graph, cfg Config) *Network {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	n := &Network{
		Cfg:          cfg,
		G:            g,
		Routes:       topology.BuildRoutes(g),
		outLinks:     make([][]int, g.N),
		inOrder:      make([][]*port, g.N),
		arbPorts:     make([][]*port, g.N),
		BytesByClass: make(map[topology.LinkClass]int64),
	}
	for from := 0; from < g.N; from++ {
		for _, e := range g.Adj[from] {
			l := &link{
				from:         from,
				to:           e.To,
				class:        e.Class,
				flitsPerCyc:  int(e.Class.Bandwidth() / cfg.ClockHz / float64(cfg.FlitBytes)),
				latency:      int64(cfg.SerDesCycles),
				profileScale: 1,
			}
			if l.flitsPerCyc < 1 {
				l.flitsPerCyc = 1
			}
			if e.Class == topology.Host {
				l.latency += int64(cfg.HostExtra)
			}
			n.outLinks[from] = append(n.outLinks[from], len(n.links))
			n.links = append(n.links, l)
			p := &port{}
			l.dst = p
			n.inOrder[e.To] = append(n.inOrder[e.To], p)
		}
	}
	// A port never holds more than BufferFlits flits: carve every queue's
	// full array out of one allocation, so arrivals never regrow it.
	slab := make([]flit, len(n.links)*cfg.BufferFlits)
	for i, l := range n.links {
		l.dst.queue = slab[i*cfg.BufferFlits : i*cfg.BufferFlits : (i+1)*cfg.BufferFlits]
	}
	n.rr = make([]int, len(n.links))
	n.injectQ = make([][]flit, len(n.links))
	n.rngState = cfg.Seed ^ 0x632be59bd9b4e019
	n.failed = make([]bool, g.N)
	n.waiting = make([]int, g.N)
	n.buildArb()
	return n
}

// linkTo returns the index of the link from -> to, or -1 if there is none.
func (n *Network) linkTo(from, to int) int {
	for _, li := range n.outLinks[from] {
		if n.links[li].to == to {
			return li
		}
	}
	return -1
}

// buildArb lists every node's input ports in the order of its G.Adj
// entries: the port fed by neighbour e.To for each edge v -> e.To. A
// module failure removes the failed node from its neighbours' adjacency,
// so FailNode rebuilds the lists and the ports it fed drop out of
// arbitration.
func (n *Network) buildArb() {
	for v, adj := range n.G.Adj {
		ports := n.arbPorts[v][:0]
		for _, e := range adj {
			if li := n.linkTo(e.To, v); li >= 0 {
				ports = append(ports, n.links[li].dst)
			}
		}
		n.arbPorts[v] = ports
	}
}

// AttachFaults installs a deterministic fault plan: links cache their own
// fault entries for per-cycle consultation, scheduled module failures are
// queued for execution at their cycle, and module capability profiles
// derate each link to the slower endpoint's SerDes scale. Must be called
// before Run/Step.
func (n *Network) AttachFaults(p *fault.Plan) error {
	if err := p.Validate(n.G.N); err != nil {
		return err
	}
	n.plan = p
	for _, l := range n.links {
		l.faults = p.LinkFaultsFor(l.from, l.to)
		l.profileScale = p.ProfileFor(l.from).EffectiveLinkScale()
		if s := p.ProfileFor(l.to).EffectiveLinkScale(); s < l.profileScale {
			l.profileScale = s
		}
	}
	n.pendingFailures = p.NodeFailuresSorted()
	return nil
}

// FailNode permanently removes module v from the fabric mid-simulation: its
// links die, flits in its queues and on its links are dropped (messages
// to/from v become lost; transit messages schedule a retransmission), the
// topology loses the node, and routing tables are recomputed over the
// survivors. Traffic stranded by a resulting partition is declared lost so
// Run reports an error instead of deadlocking.
func (n *Network) FailNode(v int) {
	if v < 0 || v >= len(n.failed) || n.failed[v] {
		return
	}
	n.failed[v] = true
	n.tel.failures.Inc()
	if n.tel.tracer.Enabled() {
		n.tel.tracer.Instant(telemetry.PIDNoC, v, "node_failure", "noc.fault", n.now,
			map[string]any{"node": v})
	}
	// Work on a private copy of the topology the first time it mutates, so
	// callers' graphs (shared with co-simulators and figures) stay pristine.
	if !n.ownsGraph {
		n.G = n.G.Clone()
		n.ownsGraph = true
	}
	for li, l := range n.links {
		if l.from != v && l.to != v {
			continue
		}
		l.dead = true
		for _, inf := range l.pipeline[l.head:] {
			n.dropForFailure(inf.f, v)
		}
		l.pipeline, l.head = nil, 0
		for _, f := range n.injectQ[li] {
			n.dropForFailure(f, v)
		}
		n.injectQ[li] = nil
		if l.from != v {
			continue
		}
		// Flits v already delivered into a surviving neighbour's port
		// leave arbitration with v's adjacency, so drop them too. All of
		// them are in transit: the ejection scan removes a flit destined
		// to the port's router the cycle it arrives.
		for _, f := range l.dst.queue {
			n.dropForFailure(f, v)
		}
		l.dst.queue = l.dst.queue[:0]
	}
	for _, p := range n.inOrder[v] {
		for _, f := range p.queue {
			n.dropForFailure(f, v)
		}
		p.queue = nil
	}
	n.G.RemoveNode(v)
	n.Routes = topology.BuildRoutes(n.G)
	n.buildArb()
	n.sweepUnroutable()
}

// dropForFailure handles one flit destroyed by module v's failure.
func (n *Network) dropForFailure(f flit, v int) {
	m := f.msg
	if m.delivered || m.lost {
		return
	}
	n.DroppedFlits++
	n.tel.dropped.Inc()
	if m.Src == v || m.Dst == v {
		n.markLost(m, fmt.Sprintf("module %d failed", v))
		return
	}
	n.scheduleRetry(m, f.bytes)
}

// sweepUnroutable removes flits whose current node no longer has a route to
// their destination (the fabric partitioned), declaring their messages
// lost. Without the sweep such flits would head-of-line block a queue
// forever and the run would only fail at maxCycles.
func (n *Network) sweepUnroutable() {
	drain := func(q []flit, at int) []flit {
		kept := q[:0]
		for _, f := range q {
			if !f.msg.delivered && !f.msg.lost && n.Routes.NextHop(at, f.msg.Dst) < 0 && f.msg.Dst != at {
				n.markLost(f.msg, fmt.Sprintf("no route %d->%d after failure", at, f.msg.Dst))
				continue
			}
			kept = append(kept, f)
		}
		return kept
	}
	for v, ports := range n.inOrder {
		for _, p := range ports {
			p.queue = drain(p.queue, v)
		}
	}
	for li, l := range n.links {
		if l.dead {
			continue
		}
		kept := l.pipeline[:0]
		for _, inf := range l.pipeline[l.head:] {
			if !inf.f.msg.delivered && !inf.f.msg.lost && n.Routes.NextHop(l.to, inf.f.msg.Dst) < 0 && inf.f.msg.Dst != l.to {
				n.markLost(inf.f.msg, fmt.Sprintf("no route %d->%d after failure", l.to, inf.f.msg.Dst))
				continue
			}
			kept = append(kept, inf)
		}
		l.pipeline, l.head = kept, 0
		// Injection queues are committed to l.to; check the route onward.
		n.injectQ[li] = drain(n.injectQ[li], l.to)
	}
}

// scheduleRetry records dropped bytes of a message and arms (or re-arms)
// its retransmit timer.
func (n *Network) scheduleRetry(m *Message, bytes int) {
	if m.lost || m.delivered {
		return
	}
	m.droppedBytes += bytes
	m.retryAt = n.now + n.Cfg.RetryTimeout
	if !m.queuedRetry {
		m.queuedRetry = true
		n.retryQ = append(n.retryQ, m)
	}
}

// markLost declares a message undeliverable; Run surfaces this as an error.
func (n *Network) markLost(m *Message, why string) {
	if m.lost {
		return
	}
	m.lost = true
	m.lossWhy = why
	m.droppedBytes = 0
	n.lost = append(n.lost, m)
	n.tel.lost.Inc()
	if n.tel.tracer.Enabled() {
		n.tel.tracer.Instant(telemetry.PIDNoC, m.Src, "message_lost", "noc.fault", n.now,
			map[string]any{"id": m.ID, "dst": m.Dst, "why": why})
	}
}

// processRetries fires due retransmit timers: a message with dropped bytes
// re-injects exactly the missing payload from its source, consuming one
// retry; exhausted messages are declared lost.
func (n *Network) processRetries() {
	if len(n.retryQ) == 0 {
		return
	}
	kept := n.retryQ[:0]
	for _, m := range n.retryQ {
		if m.lost || m.delivered {
			m.queuedRetry = false
			continue
		}
		if n.now < m.retryAt {
			kept = append(kept, m)
			continue
		}
		m.queuedRetry = false
		if m.Retries >= n.Cfg.MaxRetries {
			n.markLost(m, fmt.Sprintf("retries exhausted (%d)", m.Retries))
			continue
		}
		if n.failed[m.Src] {
			n.markLost(m, fmt.Sprintf("source module %d failed", m.Src))
			continue
		}
		hop := n.firstHop(m.Src, m.Dst)
		if hop < 0 {
			n.markLost(m, fmt.Sprintf("no route %d->%d for retransmission", m.Src, m.Dst))
			continue
		}
		m.Retries++
		n.Retransmits++
		n.tel.retransmits.Inc()
		if n.tel.tracer.Enabled() {
			n.tel.tracer.Instant(telemetry.PIDNoC, m.Src, "retransmit", "noc.fault", n.now,
				map[string]any{"id": m.ID, "dst": m.Dst, "bytes": m.droppedBytes, "retry": m.Retries})
		}
		n.enqueueFlits(m, m.droppedBytes, hop)
		m.droppedBytes = 0
	}
	n.retryQ = kept
}

// enqueueFlits splits bytes of message m into flits on the injection queue
// of the link toward hop.
func (n *Network) enqueueFlits(m *Message, bytes, hop int) {
	li := n.linkTo(m.Src, hop)
	for bytes > 0 {
		b := n.Cfg.FlitBytes
		if bytes < b {
			b = bytes
		}
		n.injectQ[li] = append(n.injectQ[li], flit{msg: m, bytes: b})
		bytes -= b
	}
}

// rand32 advances the network's deterministic RNG (SplitMix64).
func (n *Network) rand32() uint32 {
	n.rngState += 0x9e3779b97f4a7c15
	z := n.rngState
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return uint32(z ^ (z >> 31))
}

// firstHop picks the message's departure neighbor: the deterministic
// minimal next hop, or — with RandomFirstHop — a uniform choice among all
// minimal neighbors.
func (n *Network) firstHop(src, dst int) int {
	if !n.Cfg.RandomFirstHop {
		return n.Routes.NextHop(src, dst)
	}
	want := n.Routes.HopCount(src, dst) - 1
	var minimal []int
	for _, e := range n.G.Adj[src] {
		if n.Routes.HopCount(e.To, dst) == want {
			minimal = append(minimal, e.To)
		}
	}
	if len(minimal) == 0 {
		return n.Routes.NextHop(src, dst)
	}
	return minimal[int(n.rand32())%len(minimal)]
}

// Now returns the current simulation cycle.
func (n *Network) Now() int64 { return n.now }

// Inject queues a message at its source. It returns the message for
// driver bookkeeping.
func (n *Network) Inject(m *Message) *Message {
	if m.Src < 0 || m.Src >= n.G.N || m.Dst < 0 || m.Dst >= n.G.N {
		panic(fmt.Sprintf("noc: inject with bad endpoints %d->%d", m.Src, m.Dst))
	}
	if m.Bytes <= 0 {
		panic("noc: inject with non-positive size")
	}
	m.ID = n.pendingID
	n.pendingID++
	m.InjectedAt = n.now
	n.messages = appendDoubling(n.messages, m)
	if m.Src == m.Dst {
		m.delivered = true
		m.DeliveredAt = n.now
		return m
	}
	// Failed endpoints and partitions mark the message lost instead of
	// panicking: Run then reports a descriptive error (the upper layers
	// react by re-clustering), and the simulator never deadlocks.
	if n.failed[m.Src] || n.failed[m.Dst] {
		n.markLost(m, fmt.Sprintf("endpoint failed (%d->%d)", m.Src, m.Dst))
		return m
	}
	firstHop := n.firstHop(m.Src, m.Dst)
	if firstHop < 0 {
		n.markLost(m, fmt.Sprintf("no route %d->%d (network partitioned)", m.Src, m.Dst))
		return m
	}
	n.enqueueFlits(m, m.Bytes, firstHop)
	return m
}

// appendDoubling appends v to s, doubling the capacity when s is full. The
// per-message slices grow one entry at a time to tens of thousands of
// entries, and append's 1.25× steps for large slices would allocate about
// five times their final size in copies; doubling allocates about twice.
func appendDoubling[T any](s []T, v T) []T {
	if len(s) == cap(s) {
		grown := make([]T, len(s), 2*len(s)+64)
		copy(grown, s)
		s = grown
	}
	return append(s, v)
}

// Driver generates traffic: Start injects initial messages; OnDeliver is
// called once per delivered message and may inject follow-ups; Done
// reports completion (checked when no traffic is in flight).
type Driver interface {
	Start(n *Network)
	OnDeliver(n *Network, m *Message)
	Done() bool
}

// Stats summarizes one run.
type Stats struct {
	Cycles       int64
	Messages     int
	Bytes        int64
	AvgLatency   float64 // cycles, injection to full delivery
	MaxLatency   int64
	FlitHops     int64
	BytesByClass map[topology.LinkClass]int64

	// Fault-recovery counters (zero on a healthy fabric): flits destroyed
	// by drops or module failures, timeout-driven retransmissions, and the
	// largest per-message retry count observed.
	DroppedFlits  int64
	Retransmits   int64
	MaxMsgRetries int

	// MaxLinkUtil / MeanLinkUtil are busy-flit fractions of link capacity
	// over the whole run (links that never carried traffic are excluded
	// from the mean — they were powered off per the paper's energy
	// methodology).
	MaxLinkUtil  float64
	MeanLinkUtil float64
}

// Duration converts the run length to seconds at the configured clock.
func (s Stats) Duration(clockHz float64) float64 { return float64(s.Cycles) / clockHz }

// Run drives the simulation until the driver is done and all traffic has
// drained, or maxCycles elapses (an error, indicating deadlock or
// overload). A message that becomes undeliverable — destination module
// failed, retransmit budget exhausted, or fabric partitioned — aborts the
// run immediately with a descriptive error rather than spinning to
// maxCycles.
func (n *Network) Run(d Driver, maxCycles int64) (Stats, error) {
	d.Start(n)
	for {
		if err := n.LostErr(); err != nil {
			return Stats{}, err
		}
		if n.idle() && d.Done() {
			break
		}
		if n.now >= maxCycles {
			return Stats{}, fmt.Errorf("noc: exceeded %d cycles with traffic outstanding", maxCycles)
		}
		n.step(d)
	}
	return n.stats(), nil
}

// LostErr returns a descriptive error if any message has been declared
// undeliverable, or nil. Co-simulators driving the network via Step should
// poll it each cycle.
func (n *Network) LostErr() error {
	if len(n.lost) == 0 {
		return nil
	}
	m := n.lost[0]
	return fmt.Errorf("noc: %d message(s) lost; first: %d->%d (%d bytes): %s",
		len(n.lost), m.Src, m.Dst, m.Bytes, m.lossWhy)
}

// Step advances the simulation by one cycle under the driver — the
// building block for co-simulators that interleave network transport with
// their own per-cycle state machines (internal/cosim).
func (n *Network) Step(d Driver) { n.step(d) }

// Idle reports whether no flit is queued or in flight.
func (n *Network) Idle() bool { return n.idle() }

// idle reports whether no flit is queued or in flight and no retransmission
// is pending.
func (n *Network) idle() bool {
	if len(n.retryQ) > 0 {
		return false
	}
	for _, q := range n.injectQ {
		if len(q) > 0 {
			return false
		}
	}
	for _, l := range n.links {
		if len(l.pipeline) > l.head {
			return false
		}
	}
	for _, ports := range n.inOrder {
		for _, p := range ports {
			if len(p.queue) > 0 {
				return false
			}
		}
	}
	return true
}

// step advances one cycle: scheduled fault events, retransmit timers, link
// arrivals, ejection, then output arbitration and transmission. Each sweep
// visits every link or router in index order (step.go).
func (n *Network) step(d Driver) {
	n.now++
	n.tel.cycles.Inc()

	// 0. Fire scheduled module failures and due retransmit timers.
	for len(n.pendingFailures) > 0 && n.pendingFailures[0].At <= n.now {
		n.FailNode(n.pendingFailures[0].Node)
		n.pendingFailures = n.pendingFailures[1:]
	}
	n.processRetries()

	// 1. Deliver pipeline arrivals into downstream input queues (if
	// space).
	for li := range n.links {
		n.arriveLink(li)
	}

	// 2. Eject flits destined to their local node: the scan pops every
	// node's destined flits, then deliveries — which may inject follow-up
	// traffic and consume the shared RNG — run in ascending node order.
	sc := &n.scratch
	sc.eject = sc.eject[:0]
	for v := range n.inOrder {
		n.scanNode(v, sc)
	}
	for _, f := range sc.eject {
		n.deliverFlit(d, f)
	}

	// 3. Transmit: every link moves up to flitsPerCyc flits whose route
	// passes through it, arbitrating round-robin across the node's input
	// ports and the link's own injection queue. Links consult the fault
	// plan each cycle: degraded bandwidth throttles the budget through a
	// fractional-credit accumulator, extra SerDes stretches the pipeline,
	// and drop faults destroy flits in transit (scheduling retransmission).
	// Statistics and drop events fold once every link has sent.
	sc.resetTransmit()
	for li := range n.links {
		n.transmitLink(li, sc)
	}
	n.applyTransmit(sc)
}

func (n *Network) deliverFlit(d Driver, f flit) {
	m := f.msg
	m.receivedBytes += f.bytes
	if m.receivedBytes >= m.Bytes && !m.delivered {
		m.delivered = true
		m.DeliveredAt = n.now
		n.tel.delivered.Inc()
		d.OnDeliver(n, m)
	}
}

func (n *Network) stats() Stats {
	s := Stats{
		Cycles:       n.now,
		Messages:     len(n.messages),
		FlitHops:     n.FlitHops,
		BytesByClass: n.BytesByClass,
		DroppedFlits: n.DroppedFlits,
		Retransmits:  n.Retransmits,
	}
	var totalLat int64
	for _, m := range n.messages {
		s.Bytes += int64(m.Bytes)
		lat := m.DeliveredAt - m.InjectedAt
		totalLat += lat
		if lat > s.MaxLatency {
			s.MaxLatency = lat
		}
		if m.Retries > s.MaxMsgRetries {
			s.MaxMsgRetries = m.Retries
		}
	}
	if len(n.messages) > 0 {
		s.AvgLatency = float64(totalLat) / float64(len(n.messages))
	}
	if n.now > 0 {
		var sum float64
		active := 0
		for _, l := range n.links {
			if l.busyFlits == 0 {
				continue
			}
			u := float64(l.busyFlits) / (float64(n.now) * float64(l.flitsPerCyc))
			n.tel.linkUtil.Observe(u)
			sum += u
			active++
			if u > s.MaxLinkUtil {
				s.MaxLinkUtil = u
			}
		}
		if active > 0 {
			s.MeanLinkUtil = sum / float64(active)
		}
	}
	n.traceMessages()
	return s
}
