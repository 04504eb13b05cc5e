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
// The cycle loop is sequential and visits only the links and routers that
// hold flits, in index order (step.go), so a run's outcome is a function of
// its configuration, traffic and fault plan alone. Flits, queues and link
// pipelines carry message IDs rather than pointers, so the collector never
// scans them.
package noc

import (
	"fmt"
	"runtime"

	"mptwino/internal/fault"
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

	// The flags share one word. A Message holds no pointer (a loss reason
	// lives on the Network), so it is 96 bytes the collector never scans.
	// A run needs one per transfer; the drivers here allocate theirs as
	// one array per driver (messageSlab).
	delivered   bool
	queuedRetry bool // already on the retry queue
	lost        bool
}

// flit is one flit of message msg (an ID, the index into
// Network.messages) carrying bytes of payload. Flits hold no pointer, so
// the queues and link pipelines that hold them are never scanned by the
// collector.
type flit struct {
	msg, bytes int32
}

// inFlight is a flit traversing a link's SerDes pipeline.
type inFlight struct {
	f        flit
	arriveAt int64
}

// port is one input queue of a router: link li's queue at links[li].to is
// ports[li], its flits Network.queue(li). Arrivals stop at BufferFlits, and
// transmission pops flits by shifting the rest to the front, so the queue
// lives in the BufferFlits-sized stretch of Network.qbuf New gives it.
type port struct {
	n int32 // flits queued
	// arrived counts the flits this cycle's arrival stage appended, the
	// only ones the ejection scan has to examine.
	arrived int32
	// hop is the head flit's next hop from this router, -1 when the queue
	// is empty: an output link takes from the port only while hop names
	// its far end. It is set whenever the head changes — by the ejection
	// scan when flits arrive into an empty queue, by transmission after it
	// pops, and by FailNode once routes are rebuilt.
	hop int32
}

// entry is one message's (or one retransmitted remainder's) payload
// waiting in a link's injection queue. The link cuts it into flits as it
// sends, FlitBytes at a time, so the flit sequence is the one a queue of
// flits split at injection would hold. Entries live in Network.inj,
// chained per link from link.injHead to link.injTail.
type entry struct {
	msg   int32
	next  int32 // next entry of the same queue, or of the free list; -1 ends it
	bytes int   // payload not yet sent
}

// link is a directed physical channel.
type link struct {
	from, to    int32
	flitsPerCyc int32
	class       topology.LinkClass
	latency     int64
	// pipeline[head:] are the flits crossing the SerDes, oldest first.
	// Arrivals leave from the front, so they advance head instead of
	// shifting a backlog that reaches a thousand flits under all-to-all
	// load; transmit slides the live flits back to the front when the
	// array fills (push).
	pipeline []inFlight
	head     int
	piped    bool // listed in Network.piped (the pipeline may have drained)
	// stats
	busyFlits int64

	// The injection queue: locally injected messages queue at the output
	// link their route departs through, so messages bound for different
	// links never head-of-line block each other. -1 when empty.
	injHead, injTail int32

	// rr is the round-robin cursor at the transmission stage of cycle
	// rrAt. A link whose router is skipped advances it lazily: at the
	// next visit the cursor catches up by the cycles it missed (step.go).
	rr   int
	rrAt int64

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

// lossRecord is a message declared undeliverable and why.
type lossRecord struct {
	m   *Message
	why string
}

// Network is the simulation instance.
type Network struct {
	Cfg    Config
	G      *topology.Graph
	Routes *topology.RouteTable

	// links are numbered from-major in G.Adj order, so node v's output
	// links are firstOut[v] to firstOut[v+1]-1.
	links    []link
	firstOut []int32
	// ports[li] is link li's input queue at links[li].to; qbuf holds every
	// queue's BufferFlits-sized array, port li's at qbuf[li·bufFlits:].
	ports    []port
	qbuf     []flit
	bufFlits int
	// inPorts lists each node's input ports in link-construction order
	// (node v's are inPorts[inStart[v]:inStart[v+1]]) — the deterministic
	// iteration the cycle loop uses instead of map ranging, so ejection
	// and fault-drain orders are reproducible.
	inPorts, inStart []int32
	// arbPorts lists each node's input ports in G.Adj order (node v's are
	// arbPorts[arbStart[v]:arbStart[v+1]]), the order its output links
	// arbitrate over them (each link's injection queue comes last). Built
	// by buildArb from the current topology.
	arbPorts, arbStart []int32
	// waiting[v] counts the transit flits in node v's input ports: raised
	// by the ejection scan, lowered as transmission pops them.
	waiting []int32
	// injecting[v] counts the entries in node v's injection queues.
	injecting []int32
	// always marks the routers transmission visits every cycle: those
	// with a faulty or derated output link, whose credit and cursor move
	// even with nothing to send. Any other router is visited only while
	// it holds flits.
	always []bool
	// arrivedAt marks the routers whose ports took flits this cycle, the
	// only ones the ejection scan visits.
	arrivedAt []bool
	// piped lists the links whose pipelines may hold flits, in no
	// particular order: arrivals are independent per link.
	piped []int32
	// inj holds every injection-queue entry; injFree heads its free list.
	inj     []entry
	injFree int32

	// dst[id] is message id's destination, so the head-of-queue route
	// check never loads a *Message.
	dst []int32

	now int64
	// txDone is the last cycle whose transmission stage ran: cursors are
	// settled to txDone+1 before a module failure shortens a port list.
	txDone    int64
	messages  []*Message
	pendingID int
	rngState  uint64
	// sinceYield counts the flit hops since Run last yielded.
	sinceYield int64

	// fault machinery
	plan            *fault.Plan
	failed          []bool // per-node permanent-failure flag
	ownsGraph       bool   // G was cloned before mutating it
	pendingFailures []fault.NodeFault
	retryQ          []*Message   // messages with dropped bytes awaiting timeout
	lost            []lossRecord // messages declared undeliverable

	scratch stepScratch // the cycle loop's workspace (step.go)

	// Running totals, which Stats reports: with Stats and each Message's
	// cycles and retries they are the simulator's one record of a run.
	BytesByClass map[topology.LinkClass]int64
	FlitHops     int64
	DroppedFlits int64
	Retransmits  int64
}

// New builds a network simulator over graph g. It panics on an invalid
// config (see Config.Validate) — a zero flit size or buffer capacity would
// otherwise livelock the simulator far from the cause.
func New(g *topology.Graph, cfg Config) *Network {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nl := g.Edges()
	n := &Network{
		Cfg:          cfg,
		G:            g,
		Routes:       topology.BuildRoutes(g),
		links:        make([]link, 0, nl),
		firstOut:     make([]int32, g.N+1),
		ports:        make([]port, nl),
		qbuf:         make([]flit, nl*cfg.BufferFlits),
		bufFlits:     cfg.BufferFlits,
		inPorts:      make([]int32, nl),
		inStart:      make([]int32, g.N+1),
		arbPorts:     make([]int32, 0, nl),
		arbStart:     make([]int32, g.N+1),
		waiting:      make([]int32, g.N),
		injecting:    make([]int32, g.N),
		always:       make([]bool, g.N),
		arrivedAt:    make([]bool, g.N),
		failed:       make([]bool, g.N),
		injFree:      -1,
		rngState:     cfg.Seed ^ 0x632be59bd9b4e019,
		BytesByClass: make(map[topology.LinkClass]int64),
	}
	for from := 0; from < g.N; from++ {
		n.firstOut[from] = int32(len(n.links))
		for _, e := range g.Adj[from] {
			l := link{
				from:         int32(from),
				to:           int32(e.To),
				class:        e.Class,
				flitsPerCyc:  int32(e.Class.Bandwidth() / cfg.ClockHz / float64(cfg.FlitBytes)),
				latency:      int64(cfg.SerDesCycles),
				injHead:      -1,
				injTail:      -1,
				rrAt:         1,
				profileScale: 1,
			}
			if l.flitsPerCyc < 1 {
				l.flitsPerCyc = 1
			}
			if e.Class == topology.Host {
				l.latency += int64(cfg.HostExtra)
			}
			n.links = append(n.links, l)
			n.inStart[e.To+1]++
		}
	}
	n.firstOut[g.N] = int32(len(n.links))
	for pi := range n.ports {
		n.ports[pi].hop = -1
	}
	// Bucket the ports by destination node, each bucket in link order.
	for v := 0; v < g.N; v++ {
		n.inStart[v+1] += n.inStart[v]
	}
	fill := append([]int32(nil), n.inStart[:g.N]...)
	for li := range n.links {
		to := n.links[li].to
		n.inPorts[fill[to]] = int32(li)
		fill[to]++
	}
	n.buildArb()
	return n
}

// queue returns port pi's queued flits; the slice's capacity is the
// port's BufferFlits-sized array.
func (n *Network) queue(pi int32) []flit {
	base := int(pi) * n.bufFlits
	return n.qbuf[base : base+int(n.ports[pi].n) : base+n.bufFlits]
}

// linkTo returns the index of the link from -> to, or -1 if there is none.
func (n *Network) linkTo(from, to int) int {
	for li := n.firstOut[from]; li < n.firstOut[from+1]; li++ {
		if int(n.links[li].to) == to {
			return int(li)
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
	n.arbPorts = n.arbPorts[:0]
	for v, adj := range n.G.Adj {
		n.arbStart[v] = int32(len(n.arbPorts))
		for _, e := range adj {
			if li := n.linkTo(e.To, v); li >= 0 {
				n.arbPorts = append(n.arbPorts, int32(li))
			}
		}
	}
	n.arbStart[len(n.G.Adj)] = int32(len(n.arbPorts))
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
	for li := range n.links {
		l := &n.links[li]
		from, to := int(l.from), int(l.to)
		l.faults = p.LinkFaultsFor(from, to)
		l.profileScale = p.ProfileFor(from).EffectiveLinkScale()
		if s := p.ProfileFor(to).EffectiveLinkScale(); s < l.profileScale {
			l.profileScale = s
		}
		if len(l.faults) > 0 || l.profileScale != 1 {
			n.always[from] = true
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
	// Every cursor moves on under its router's present port count up to
	// the next transmission stage before buildArb shortens the lists.
	n.settleCursors(n.txDone + 1)
	// Work on a private copy of the topology the first time it mutates, so
	// callers' graphs (shared with co-simulators and figures) stay pristine.
	if !n.ownsGraph {
		n.G = n.G.Clone()
		n.ownsGraph = true
	}
	for li := range n.links {
		l := &n.links[li]
		if int(l.from) != v && int(l.to) != v {
			continue
		}
		l.dead = true
		for _, inf := range l.pipeline[l.head:] {
			n.dropForFailure(inf.f, v)
		}
		l.pipeline, l.head = nil, 0
		for l.injHead >= 0 {
			// Drop the entry flit by flit, as the link would have sent it.
			e := n.inj[l.injHead]
			for b := e.bytes; b > 0; b -= n.Cfg.FlitBytes {
				n.dropForFailure(flit{msg: e.msg, bytes: int32(min(b, n.Cfg.FlitBytes))}, v)
			}
			n.unlinkEntry(l, -1, l.injHead)
		}
		if int(l.from) != v {
			continue
		}
		// Flits v already delivered into a surviving neighbour's port
		// leave arbitration with v's adjacency, so drop them too. All of
		// them are in transit: the ejection scan removes a flit destined
		// to the port's router the cycle it arrives.
		for _, f := range n.queue(int32(li)) {
			n.dropForFailure(f, v)
		}
		n.ports[li].n = 0
	}
	for _, pi := range n.inPorts[n.inStart[v]:n.inStart[v+1]] {
		for _, f := range n.queue(pi) {
			n.dropForFailure(f, v)
		}
		n.ports[pi].n = 0
	}
	n.G.RemoveNode(v)
	n.Routes = topology.BuildRoutes(n.G)
	n.buildArb()
	n.sweepUnroutable()
	for u := range n.waiting {
		row := n.Routes.NextHops(u)
		var w int32
		for _, pi := range n.inPorts[n.inStart[u]:n.inStart[u+1]] {
			q := n.queue(pi)
			n.ports[pi].hop = n.headHop(q, row)
			w += int32(len(q))
		}
		n.waiting[u] = w
	}
}

// headHop returns the next hop in row, a router's NextHops, of queue q's
// head flit, or -1 for an empty queue.
func (n *Network) headHop(q []flit, row []int32) int32 {
	if len(q) == 0 {
		return -1
	}
	return row[n.dst[q[0].msg]]
}

// settleCursors advances every live link's round-robin cursor to its
// value at the transmission stage of cycle at, under the current port
// lists (see transmitLink).
func (n *Network) settleCursors(at int64) {
	for li := range n.links {
		l := &n.links[li]
		if l.dead {
			continue
		}
		if d := at - l.rrAt; d > 0 {
			ns := int64(n.arbStart[l.from+1]-n.arbStart[l.from]) + 1
			l.rr = int((int64(l.rr) + d) % ns)
		}
		l.rrAt = at
	}
}

// dropForFailure handles one flit destroyed by module v's failure.
func (n *Network) dropForFailure(f flit, v int) {
	m := n.messages[f.msg]
	if m.delivered || m.lost {
		return
	}
	n.DroppedFlits++
	if m.Src == v || m.Dst == v {
		n.markLost(m, fmt.Sprintf("module %d failed", v))
		return
	}
	n.scheduleRetry(m, int(f.bytes))
}

// sweepUnroutable removes flits whose current node no longer has a route to
// their destination (the fabric partitioned), declaring their messages
// lost. Without the sweep such flits would head-of-line block a queue
// forever and the run would only fail at maxCycles. The first such flit of
// a message marks it lost; its later flits stay where they are.
func (n *Network) sweepUnroutable() {
	// strand reports whether flit f at node at is the one that declares
	// its message lost.
	strand := func(f flit, at int) bool {
		m := n.messages[f.msg]
		dst := int(n.dst[f.msg])
		if m.delivered || m.lost || dst == at || n.Routes.NextHop(at, dst) >= 0 {
			return false
		}
		n.markLost(m, fmt.Sprintf("no route %d->%d after failure", at, dst))
		return true
	}
	for v := range n.G.Adj {
		for _, pi := range n.inPorts[n.inStart[v]:n.inStart[v+1]] {
			q := n.queue(pi)
			kept := q[:0]
			for _, f := range q {
				if !strand(f, v) {
					kept = append(kept, f)
				}
			}
			n.ports[pi].n = int32(len(kept))
		}
	}
	for li := range n.links {
		l := &n.links[li]
		if l.dead {
			continue
		}
		kept := l.pipeline[:0]
		for _, inf := range l.pipeline[l.head:] {
			if !strand(inf.f, int(l.to)) {
				kept = append(kept, inf)
			}
		}
		l.pipeline, l.head = kept, 0
		// Injection queues are committed to l.to; check the route onward.
		// Only an entry's first flit can strand its message, and an entry
		// that loses its only flit leaves the queue.
		prev := int32(-1)
		for e := l.injHead; e >= 0; {
			next := n.inj[e].next
			ent := &n.inj[e]
			if strand(flit{msg: ent.msg, bytes: int32(min(ent.bytes, n.Cfg.FlitBytes))}, int(l.to)) {
				ent.bytes -= min(ent.bytes, n.Cfg.FlitBytes)
				if ent.bytes == 0 {
					n.unlinkEntry(l, prev, e)
					e = next
					continue
				}
			}
			prev, e = e, next
		}
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
	m.droppedBytes = 0
	n.lost = append(n.lost, lossRecord{m: m, why: why})
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
		n.enqueue(m, m.droppedBytes, hop)
		m.droppedBytes = 0
	}
	n.retryQ = kept
}

// enqueue queues bytes of message m as one entry on the injection queue of
// the link toward hop.
func (n *Network) enqueue(m *Message, bytes, hop int) {
	l := &n.links[n.linkTo(m.Src, hop)]
	e := n.injFree
	if e >= 0 {
		n.injFree = n.inj[e].next
	} else {
		e = int32(len(n.inj))
		n.inj = appendDoubling(n.inj, entry{})
	}
	n.inj[e] = entry{msg: int32(m.ID), next: -1, bytes: bytes}
	if l.injTail >= 0 {
		n.inj[l.injTail].next = e
	} else {
		l.injHead = e
	}
	l.injTail = e
	n.injecting[l.from]++
}

// unlinkEntry removes entry e, which follows prev (-1: e is the head),
// from link l's injection queue and returns it to the free list.
func (n *Network) unlinkEntry(l *link, prev, e int32) {
	next := n.inj[e].next
	if prev >= 0 {
		n.inj[prev].next = next
	} else {
		l.injHead = next
	}
	if l.injTail == e {
		l.injTail = prev
	}
	n.inj[e].next = n.injFree
	n.injFree = e
	n.injecting[l.from]--
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
	n.dst = appendDoubling(n.dst, int32(m.Dst))
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
	n.enqueue(m, m.Bytes, firstHop)
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

// yieldHops is the work interval, in flit hops, at which Run yields the
// processor. The loop allocates and never blocks, so without a yield the
// runtime's fractional GC mark worker may not get a processor while Run
// holds it, and the heap keeps growing through a long mark phase
// (DESIGN.md §7). 1,024 hops is about three cycles of the 256-module
// hybrid traffic.
const yieldHops = 1024

// Run drives the simulation until the driver is done and all traffic has
// drained, or maxCycles elapses (an error, indicating deadlock or
// overload). A message that becomes undeliverable — destination module
// failed, retransmit budget exhausted, or fabric partitioned — aborts the
// run immediately with a descriptive error rather than spinning to
// maxCycles. Run yields the processor every yieldHops flit hops.
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
		if n.sinceYield >= yieldHops {
			n.sinceYield = 0
			runtime.Gosched()
		}
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
	first := n.lost[0]
	m := first.m
	return fmt.Errorf("noc: %d message(s) lost; first: %d->%d (%d bytes): %s",
		len(n.lost), m.Src, m.Dst, m.Bytes, first.why)
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
	for v := range n.waiting {
		if n.waiting[v] != 0 || n.injecting[v] != 0 {
			return false
		}
	}
	for _, li := range n.piped {
		if l := &n.links[li]; len(l.pipeline) > l.head {
			return false
		}
	}
	return true
}

func (n *Network) deliverFlit(d Driver, f flit) {
	m := n.messages[f.msg]
	m.receivedBytes += int(f.bytes)
	if m.receivedBytes >= m.Bytes && !m.delivered {
		m.delivered = true
		m.DeliveredAt = n.now
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
		for li := range n.links {
			l := &n.links[li]
			if l.busyFlits == 0 {
				continue
			}
			u := float64(l.busyFlits) / (float64(n.now) * float64(l.flitsPerCyc))
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
	return s
}
