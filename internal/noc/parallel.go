package noc

import (
	"mptwino/internal/fault"
	"mptwino/internal/parallel"
	"mptwino/internal/topology"
)

// Sharded cycle execution. With Config.ShardWorkers > 1 the three
// per-cycle sweeps (pipeline arrivals, ejection, transmission) each run
// partitioned across a persistent worker pool with a barrier between
// stages. The partitioning keeps all mutated state shard-local:
//
//   - Links are grouped by their source router. Every output link of a
//     router arbitrates over the same input ports, so a shard owns whole
//     routers (contiguous node ranges) and with them every queue its links
//     read or write. Links were built in source-ascending order, so a node
//     range maps to a contiguous link range.
//   - Arrivals write only the link's own pipeline and its unique
//     destination port (one feeder link per port).
//   - Ejection scans pop destined flits into per-shard lists; the actual
//     deliveries (which can inject follow-up traffic and consume the
//     shared RNG) happen after the barrier, in ascending node order —
//     exactly the sequential order. Each scan also counts the transit
//     flits left in its router's ports, a count only that router's links
//     read and decrement during transmission.
//   - Transmission accumulates statistics and flit-drop events per shard;
//     they fold into the global counters and the retransmit queue after
//     the barrier, in ascending link order — again the sequential order.
//
// The sequential path (ShardWorkers <= 1) runs the same stage bodies over
// a single full-range shard, so both paths are one code path and the
// parallel results are bit-identical by construction. The determinism
// test asserts this across worker counts and seeds.

// dropEvent is one flit destroyed by a fault during transmission, recorded
// per shard and folded into the retransmit machinery after the barrier.
type dropEvent struct {
	msg   *Message
	bytes int
}

// stageFuncs are the three sharded per-cycle stages, bound to the network
// once so that running them allocates no closure per cycle.
type stageFuncs struct {
	arrive, scan, transmit func(shard int)
}

// stepScratch is one shard's per-cycle workspace.
type stepScratch struct {
	eject        []flit
	flitHops     int64
	dropped      int64
	bytesByClass [topology.Host + 1]int64
	drops        []dropEvent

	_ [64]byte // keep adjacent shards' counters off one cache line
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

// buildShards plans the node/link partition for the configured worker
// count. Called once from New; the plan indexes never change afterwards
// (module failures only mark links dead, they do not renumber).
func (n *Network) buildShards() {
	w := n.Cfg.ShardWorkers
	if w < 1 {
		w = 1
	}
	n.nodeShard = parallel.Shards(n.G.N, w)
	if len(n.nodeShard) == 0 {
		n.nodeShard = [][2]int{{0, 0}}
	}
	// linkStart[v] = index of the first link departing node v (links are
	// built in source-ascending order).
	linkStart := make([]int, n.G.N+1)
	for v := 0; v < n.G.N; v++ {
		linkStart[v+1] = linkStart[v] + len(n.outLinks[v])
	}
	n.linkShard = make([][2]int, len(n.nodeShard))
	for i, r := range n.nodeShard {
		n.linkShard[i] = [2]int{linkStart[r[0]], linkStart[r[1]]}
	}
	n.scratch = make([]stepScratch, len(n.nodeShard))
	n.stages = stageFuncs{arrive: n.arriveShard, scan: n.scanShard, transmit: n.transmitShard}
}

// arriveShard, scanShard and transmitShard are the stage bodies: each runs
// its stage over shard s's links or routers.
func (n *Network) arriveShard(s int) {
	r := n.linkShard[s]
	for li := r[0]; li < r[1]; li++ {
		n.arriveLink(li)
	}
}

func (n *Network) scanShard(s int) {
	sc := &n.scratch[s]
	sc.eject = sc.eject[:0]
	r := n.nodeShard[s]
	for v := r[0]; v < r[1]; v++ {
		n.scanNode(v, sc)
	}
}

func (n *Network) transmitShard(s int) {
	sc := &n.scratch[s]
	sc.resetTransmit()
	r := n.linkShard[s]
	for li := r[0]; li < r[1]; li++ {
		n.transmitLink(li, sc)
	}
}

// ensurePool lazily starts the worker pool behind sharded stepping. Run
// closes it on return; Step-driven co-simulations should call Close when
// finished with the network.
func (n *Network) ensurePool() {
	if n.pool == nil && len(n.scratch) > 1 {
		n.pool = parallel.NewPool(len(n.scratch))
	}
}

// Close releases the sharded stepper's worker pool, if any. It is safe to
// call on a sequential network and to call more than once; the network
// remains usable (the pool restarts on demand).
func (n *Network) Close() {
	if n.pool != nil {
		n.pool.Close()
		n.pool = nil
	}
}

// runStage executes fn for every shard: on the pool when sharding is
// active, inline otherwise.
func (n *Network) runStage(fn func(shard int)) {
	if n.pool != nil {
		n.pool.Run(fn)
		return
	}
	for s := range n.scratch {
		fn(s)
	}
}

// arriveLink delivers link li's due pipeline flits into its destination
// input port, in pipeline order, as buffer space allows (stage 1 for one
// link), and records how many entered for the ejection scan. Once the port
// is full no later flit can enter this cycle, so the walk stops there and
// the rest of the pipeline is left as it is.
func (n *Network) arriveLink(li int) {
	l := n.links[li]
	if l.dead || l.head == len(l.pipeline) {
		return
	}
	p := l.dst
	free := n.Cfg.BufferFlits - len(p.queue)
	live := l.pipeline[l.head:]
	moved := 0
	for moved < len(live) && moved < free && live[moved].arriveAt <= n.now {
		p.queue = append(p.queue, live[moved].f)
		moved++
	}
	l.head += moved
	if moved < len(live) && moved < free {
		// live[moved] is not due yet, but a later flit may be: one sent
		// after a SerDes fault window closed has the shorter latency.
		// Move the due ones that fit and close the gaps they leave.
		rest := live[moved:]
		w, j := 0, 0
		for ; j < len(rest) && moved < free; j++ {
			if rest[j].arriveAt <= n.now {
				p.queue = append(p.queue, rest[j].f)
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
	p.arrived = moved
}

// push appends a flit to the pipeline. When the array is full and
// arrivals have consumed at least half of it, the live flits slide to the
// front instead of the array growing, so a link whose backlog stays
// bounded stops allocating; a slide moves at most as many flits as it
// frees slots.
func (l *link) push(inf inFlight) {
	if len(l.pipeline) == cap(l.pipeline) && 2*l.head >= len(l.pipeline) && l.head > 0 {
		l.pipeline = l.pipeline[:copy(l.pipeline, l.pipeline[l.head:])]
		l.head = 0
	}
	l.pipeline = append(l.pipeline, inf)
}

// scanNode pops the flits destined to node v from its input ports into the
// shard's ejection list (stage 2 scan for one node), and counts the transit
// flits left. Ports are visited in their fixed construction order, so
// concatenating the shards' lists in shard order reproduces the sequential
// ejection order exactly. Only the flits that arrived this cycle are
// examined: every earlier one destined to v was ejected the cycle it
// arrived, so the rest of each queue holds transit flits alone.
func (n *Network) scanNode(v int, sc *stepScratch) {
	waiting := 0
	for _, p := range n.inOrder[v] {
		if p.arrived > 0 {
			q := p.queue
			old := len(q) - p.arrived
			w := old
			for _, f := range q[old:] {
				if f.msg.Dst == v {
					sc.eject = append(sc.eject, f)
				} else {
					q[w] = f
					w++
				}
			}
			p.queue = q[:w]
			p.arrived = 0
		}
		waiting += len(p.queue)
	}
	n.waiting[v] = waiting
}

// transmitLink arbitrates and transmits up to one cycle's flit budget on
// link li (stage 3 for one link), accumulating statistics and drop events
// in the shard scratch.
func (n *Network) transmitLink(li int, sc *stepScratch) {
	l := n.links[li]
	if l.dead {
		return
	}
	budget := l.flitsPerCyc
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
	// The sources are the node's input ports in arbitration order, then
	// this link's injection queue (index len(ports)); the round-robin
	// cursor picks the first, and advances one source per cycle.
	ports := n.arbPorts[l.from]
	ns := len(ports) + 1
	start := n.rr[li]
	if start >= ns {
		start %= ns // a module failure shrank the port list
	}
	waiting := &n.waiting[l.from]
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
		inject := src == len(ports)
		injected = injected || inject
		var q []flit
		if inject {
			q = n.injectQ[li]
		} else {
			q = ports[src].queue
		}
		k := 0
		for ; k < len(q) && budget > 0; k++ {
			f := q[k]
			// Flits in this link's injection queue already committed to
			// this first hop (possibly a randomized minimal choice);
			// transit flits follow the deterministic route table.
			if !inject && n.Routes.NextHop(l.from, f.msg.Dst) != l.to {
				break // head flit routes elsewhere; try next source
			}
			l.busyFlits++
			budget--
			if len(l.faults) > 0 && n.plan != nil &&
				fault.DropFlit(n.plan.Seed, l.faults, l.from, l.to, n.now, sent) {
				// Corrupted in transit: the slot is consumed but the
				// flit never arrives; the source retransmits on timeout.
				sc.dropped++
				sc.drops = append(sc.drops, dropEvent{msg: f.msg, bytes: f.bytes})
				sent++
				continue
			}
			l.push(inFlight{f: f, arriveAt: n.now + latency})
			sc.flitHops++
			sc.bytesByClass[l.class] += int64(f.bytes)
			sent++
		}
		if k > 0 {
			if inject {
				// Injection backlogs hold whole messages: advance past
				// the sent flits rather than shifting the rest, and
				// restart a drained queue at the front of its array.
				if k == len(q) {
					n.injectQ[li] = q[:0]
				} else {
					n.injectQ[li] = q[k:]
				}
			} else {
				ports[src].queue = q[:copy(q, q[k:])]
				*waiting -= k
			}
		}
		if src++; src == ns {
			src = 0
		}
	}
	if start++; start == ns {
		start = 0
	}
	n.rr[li] = start
}

// applyTransmit folds one shard's transmission results into the global
// counters and retransmit queue. Shards fold in ascending order, so drop
// events arm retry timers in the same order the sequential loop would.
func (n *Network) applyTransmit(sc *stepScratch) {
	n.FlitHops += sc.flitHops
	n.DroppedFlits += sc.dropped
	n.tel.flitHops.Add(sc.flitHops)
	n.tel.dropped.Add(sc.dropped)
	for class, b := range sc.bytesByClass {
		if b != 0 {
			n.BytesByClass[topology.LinkClass(class)] += b
			n.tel.bytesClass[class].Add(b)
		}
	}
	for _, ev := range sc.drops {
		n.scheduleRetry(ev.msg, ev.bytes)
	}
}
