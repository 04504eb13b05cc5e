package noc

import (
	"mptwino/internal/fault"
	"mptwino/internal/topology"
)

// The cycle loop. Network.step runs the stages in order; each stage visits
// only what can change, in index order:
//
//   - arrivals walk the links whose pipelines hold flits (Network.piped).
//     Each port has exactly one feeding link, so their order is free;
//   - the ejection scan visits, in ascending order, the routers whose ports
//     took flits, and deliveries run after the whole scan;
//   - transmission visits, in ascending order, the routers that hold a
//     transit flit or an injection entry or have a faulty or derated
//     output link, and each visited router's links in index order. A
//     skipped router's links would only have advanced their round-robin
//     cursors, which catch up lazily at the next visit.
//
// Transmission's statistics and drop events fold into the global counters
// and the retransmit queue once every link has sent. That order is what
// TestParallelStepBitIdentical's digests pin.

// dropEvent is one flit destroyed by a fault during transmission, folded
// into the retransmit machinery once every link has sent.
type dropEvent struct {
	msg, bytes int32
}

// stepScratch is the cycle loop's per-cycle workspace.
type stepScratch struct {
	eject        []flit
	flitHops     int64
	dropped      int64
	bytesByClass [topology.Host + 1]int64
	drops        []dropEvent
}

// resetTransmit clears the transmission-stage accumulators.
func (sc *stepScratch) resetTransmit() {
	sc.flitHops = 0
	sc.dropped = 0
	for i := range sc.bytesByClass {
		sc.bytesByClass[i] = 0
	}
	sc.drops = sc.drops[:0]
}

// step advances one cycle: scheduled fault events, retransmit timers, link
// arrivals, ejection, then output arbitration and transmission.
func (n *Network) step(d Driver) {
	n.now++

	// 0. Fire scheduled module failures and due retransmit timers.
	for len(n.pendingFailures) > 0 && n.pendingFailures[0].At <= n.now {
		n.FailNode(n.pendingFailures[0].Node)
		n.pendingFailures = n.pendingFailures[1:]
	}
	n.processRetries()

	// 1. Deliver pipeline arrivals into downstream input queues (if
	// space).
	kept := n.piped[:0]
	for _, li := range n.piped {
		l := &n.links[li]
		if !l.dead && l.head < len(l.pipeline) {
			n.arriveLink(li)
		}
		if !l.dead && l.head < len(l.pipeline) {
			kept = append(kept, li)
		} else {
			l.piped = false
		}
	}
	n.piped = kept

	// 2. Eject flits destined to their local node: the scan pops every
	// node's destined flits, then deliveries — which may inject follow-up
	// traffic and consume the shared RNG — run in ascending node order.
	sc := &n.scratch
	sc.eject = sc.eject[:0]
	for v, arrived := range n.arrivedAt {
		if arrived {
			n.arrivedAt[v] = false
			n.scanNode(v, sc)
		}
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
	for v := range n.waiting {
		if n.waiting[v] == 0 && n.injecting[v] == 0 && !n.always[v] {
			continue
		}
		ports := n.arbPorts[n.arbStart[v]:n.arbStart[v+1]]
		for li := n.firstOut[v]; li < n.firstOut[v+1]; li++ {
			n.transmitLink(li, ports, sc)
		}
	}
	n.txDone = n.now
	n.applyTransmit(sc)
}

// arriveLink delivers link li's due pipeline flits into its destination
// input port, in pipeline order, as buffer space allows (stage 1 for one
// link), and records how many entered for the ejection scan. Once the port
// is full no later flit can enter this cycle, so the walk stops there and
// the rest of the pipeline is left as it is.
func (n *Network) arriveLink(li int32) {
	l := &n.links[li]
	q := n.queue(li)
	free := n.bufFlits - len(q)
	live := l.pipeline[l.head:]
	moved := 0
	for moved < len(live) && moved < free && live[moved].arriveAt <= n.now {
		q = append(q, live[moved].f)
		moved++
	}
	l.head += moved
	if moved < len(live) && moved < free && len(l.faults) > 0 {
		// live[moved] is not due yet, but a later flit may be: one sent
		// after a SerDes fault window closed has the shorter latency.
		// Move the due ones that fit and close the gaps they leave. A
		// link without faults has one latency, so its pipeline is in
		// arrival order and nothing behind live[moved] is due.
		rest := live[moved:]
		w, j := 0, 0
		for ; j < len(rest) && moved < free; j++ {
			if rest[j].arriveAt <= n.now {
				q = append(q, rest[j].f)
				moved++
				continue
			}
			rest[w] = rest[j]
			w++
		}
		if w < j {
			w += copy(rest[w:], rest[j:])
			l.pipeline = l.pipeline[:l.head+w]
		}
	}
	if l.head == len(l.pipeline) {
		l.pipeline, l.head = l.pipeline[:0], 0
	}
	if moved > 0 {
		p := &n.ports[li]
		p.n, p.arrived = int32(len(q)), int32(moved)
		n.arrivedAt[l.to] = true
	}
}

// push appends a flit to link li's pipeline and lists the link for the
// arrival stage. When the array is full and arrivals have consumed at
// least half of it, the live flits slide to the front instead of the array
// growing, so a link whose backlog stays bounded stops allocating; a slide
// moves at most as many flits as it frees slots.
func (n *Network) push(li int32, l *link, inf inFlight) {
	if len(l.pipeline) == cap(l.pipeline) && 2*l.head >= len(l.pipeline) && l.head > 0 {
		l.pipeline = l.pipeline[:copy(l.pipeline, l.pipeline[l.head:])]
		l.head = 0
	}
	l.pipeline = append(l.pipeline, inf)
	if !l.piped {
		l.piped = true
		n.piped = append(n.piped, li)
	}
}

// scanNode pops the flits destined to node v from its input ports into the
// ejection list (stage 2 scan for one node), and counts the transit flits
// that arrived. Ports are visited in their fixed construction order, so
// the ejection order is reproducible. Only the flits that arrived this
// cycle are examined: every earlier one destined to v was ejected the
// cycle it arrived, so the rest of each queue holds transit flits alone.
func (n *Network) scanNode(v int, sc *stepScratch) {
	waiting := n.waiting[v]
	for _, pi := range n.inPorts[n.inStart[v]:n.inStart[v+1]] {
		p := &n.ports[pi]
		if p.arrived == 0 {
			continue
		}
		q := n.queue(pi)
		old := len(q) - int(p.arrived)
		w := old
		for _, f := range q[old:] {
			if int(n.dst[f.msg]) == v {
				sc.eject = append(sc.eject, f)
			} else {
				q[w] = f
				w++
			}
		}
		waiting += int32(w - old)
		p.n, p.arrived = int32(w), 0
		if old == 0 {
			p.hop = n.headHop(q[:w], n.Routes.NextHops(v))
		}
	}
	n.waiting[v] = waiting
}

// transmitLink arbitrates and transmits up to one cycle's flit budget on
// link li (stage 3 for one link) over ports, its router's input ports in
// arbitration order, accumulating statistics and drop events in the
// cycle's scratch.
func (n *Network) transmitLink(li int32, ports []int32, sc *stepScratch) {
	l := &n.links[li]
	if l.dead {
		return
	}
	// The sources are the node's input ports in arbitration order, then
	// this link's injection queue (index len(ports)); the round-robin
	// cursor picks the first, and advances one source per cycle. The
	// cursor is l.rr as of cycle l.rrAt: each cycle since, the router was
	// skipped and the link would only have advanced it, so it catches up
	// by that many steps. A module failure settles every cursor first
	// (settleCursors), so the port count held over the skipped cycles.
	from := l.from
	ns := len(ports) + 1
	if d := n.now - l.rrAt; d > 0 {
		if l.rr += int(d); l.rr >= ns {
			l.rr %= ns
		}
	}
	l.rrAt = n.now + 1

	budget := int(l.flitsPerCyc)
	latency := l.latency
	scale := l.profileScale // static capability derating (1 = nominal)
	if len(l.faults) > 0 {
		fs, extra := fault.LinkState(l.faults, n.now)
		latency += int64(extra)
		scale *= fs
	}
	if scale <= 0 {
		return
	}
	if scale < 1 {
		l.credit += scale * float64(l.flitsPerCyc)
		budget = int(l.credit)
		if budget < 1 {
			return // sub-flit credit accumulates for later cycles
		}
		l.credit -= float64(budget)
	}
	start := l.rr
	if start >= ns {
		start %= ns // a module failure shrank the port list
	}
	arriveAt := n.now + latency
	waiting := &n.waiting[from]
	sent := 0
	src := start
	injected := false
	for s := 0; s < ns && budget > 0; s++ {
		if *waiting == 0 {
			// The ports are empty, so the injection queue is the only
			// source left that can send; visit it now or stop.
			if injected {
				break
			}
			src = len(ports)
		}
		if src == len(ports) {
			// Entries in this link's injection queue already committed to
			// this first hop (possibly a randomized minimal choice); cut
			// each into flits as it goes.
			injected = true
			for budget > 0 && l.injHead >= 0 {
				e := &n.inj[l.injHead]
				f := flit{msg: e.msg, bytes: int32(min(e.bytes, n.Cfg.FlitBytes))}
				budget--
				n.send(li, l, f, arriveAt, sent, sc)
				sent++
				if e.bytes -= int(f.bytes); e.bytes == 0 {
					n.unlinkEntry(l, -1, l.injHead)
				}
			}
		} else if pi := ports[src]; n.ports[pi].hop == l.to {
			// Transit flits follow the deterministic route table; a head
			// flit routed elsewhere ends this port's turn. The head's
			// next hop is cached on the port, so a port whose head wants
			// another link costs one compare.
			q := n.queue(pi)
			row := n.Routes.NextHops(int(from))
			k := 0
			for ; k < len(q) && budget > 0; k++ {
				f := q[k]
				if k > 0 && row[n.dst[f.msg]] != l.to {
					break
				}
				budget--
				n.send(li, l, f, arriveAt, sent, sc)
				sent++
			}
			q = q[:copy(q, q[k:])]
			*waiting -= int32(k)
			p := &n.ports[pi]
			p.n, p.hop = int32(len(q)), n.headHop(q, row)
		}
		if src++; src == ns {
			src = 0
		}
	}
	if start++; start == ns {
		start = 0
	}
	l.rr = start
}

// send puts flit f, the link's sent-th this cycle, on link li: into the
// SerDes pipeline to arrive at cycle arriveAt or, when a drop fault
// corrupts it in transit, nowhere. A dropped flit still takes its slot;
// its source retransmits on timeout.
func (n *Network) send(li int32, l *link, f flit, arriveAt int64, sent int, sc *stepScratch) {
	l.busyFlits++
	if len(l.faults) > 0 && n.plan != nil &&
		fault.DropFlit(n.plan.Seed, l.faults, int(l.from), int(l.to), n.now, sent) {
		sc.dropped++
		sc.drops = append(sc.drops, dropEvent{msg: f.msg, bytes: f.bytes})
		return
	}
	n.push(li, l, inFlight{f: f, arriveAt: arriveAt})
	sc.flitHops++
	sc.bytesByClass[l.class] += int64(f.bytes)
}

// applyTransmit folds the cycle's transmission results into the global
// counters and retransmit queue. Drop events arm retry timers in link
// order.
func (n *Network) applyTransmit(sc *stepScratch) {
	n.FlitHops += sc.flitHops
	n.sinceYield += sc.flitHops
	n.DroppedFlits += sc.dropped
	for class, b := range sc.bytesByClass {
		if b != 0 {
			n.BytesByClass[topology.LinkClass(class)] += b
		}
	}
	for _, ev := range sc.drops {
		n.scheduleRetry(n.messages[ev.msg], int(ev.bytes))
	}
}
