package noc

// mustValidConfig asserts the network's config at driver start — drivers
// are the entry point for externally constructed traffic, and a bad config
// (zero flit size, zero buffers) would otherwise livelock deep inside the
// cycle loop.
func mustValidConfig(n *Network) {
	if err := n.Cfg.Validate(); err != nil {
		panic(err)
	}
}

// RingCollective drives a pipelined ring all-reduce (reduce-scatter +
// all-gather) over an ordered member list, the collective the paper's
// communication units implement in hardware (Section VI-C): the payload is
// split into len(members) chunks; chunk k starts at member k and is
// forwarded 2·(n−1) times around the ring, each forward gated on the
// previous delivery — exactly the "pipelined transfer" dependency
// structure, with all chunks in flight concurrently.
type RingCollective struct {
	Members []int
	Bytes   int // total payload per member (the gradient shard size)

	remaining int
	chunk     int
	msgs      messageSlab
}

// messageSlab hands out a driver's messages from one array sized to the
// driver's message count up front, so a run allocates, and the collector
// marks, one object per driver rather than one per message.
type messageSlab []Message

// next stores m in the slab's next free slot and returns that slot.
func (s *messageSlab) next(m Message) *Message {
	*s = append(*s, m)
	return &(*s)[len(*s)-1]
}

// Start injects hop 0 of every chunk.
func (r *RingCollective) Start(n *Network) {
	mustValidConfig(n)
	nm := len(r.Members)
	if nm <= 1 || r.Bytes <= 0 {
		r.remaining = 0
		return
	}
	r.chunk = (r.Bytes + nm - 1) / nm
	r.remaining = nm * 2 * (nm - 1)
	r.msgs = make(messageSlab, 0, r.remaining)
	for k := 0; k < nm; k++ {
		n.Inject(r.msgs.next(Message{
			Src:   r.Members[k],
			Dst:   r.Members[(k+1)%nm],
			Bytes: r.chunk,
			Tag:   k<<16 | 0, // chunk index, step 0
		}))
	}
}

// OnDeliver forwards the chunk to the next member until it has completed
// 2(n−1) steps.
func (r *RingCollective) OnDeliver(n *Network, m *Message) {
	r.remaining--
	nm := len(r.Members)
	step := m.Tag & 0xffff
	if step+1 >= 2*(nm-1) {
		return
	}
	// The member that just received the chunk forwards it on.
	pos := r.memberIndex(m.Dst)
	n.Inject(r.msgs.next(Message{
		Src:   m.Dst,
		Dst:   r.Members[(pos+1)%nm],
		Bytes: r.chunk,
		Tag:   (m.Tag &^ 0xffff) | (step + 1),
	}))
}

func (r *RingCollective) memberIndex(node int) int {
	for i, v := range r.Members {
		if v == node {
			return i
		}
	}
	panic("noc: node not a ring member")
}

// Done reports all hops delivered.
func (r *RingCollective) Done() bool { return r.remaining <= 0 }

// AllToAll drives the tile-transfer pattern: every member sends Bytes to
// every other member, all injected at once (gather and scatter of
// Winograd-domain tiles inside a cluster).
type AllToAll struct {
	Members []int
	Bytes   int // per source-destination pair

	remaining int
}

// Start injects the full n·(n−1) message set.
func (a *AllToAll) Start(n *Network) {
	mustValidConfig(n)
	if a.Bytes <= 0 {
		return
	}
	msgs := make(messageSlab, 0, len(a.Members)*(len(a.Members)-1))
	for _, s := range a.Members {
		for _, d := range a.Members {
			if s == d {
				continue
			}
			n.Inject(msgs.next(Message{Src: s, Dst: d, Bytes: a.Bytes}))
			a.remaining++
		}
	}
}

// OnDeliver counts completions.
func (a *AllToAll) OnDeliver(n *Network, m *Message) { a.remaining-- }

// Done reports all pairs delivered.
func (a *AllToAll) Done() bool { return a.remaining <= 0 }

// Hotspot drives all members toward a single destination — the worst-case
// pattern for tile gathering when one worker owns a popular tile region.
type Hotspot struct {
	Members []int
	Dst     int
	Bytes   int // per source

	remaining int
}

// Start injects one message per non-destination member.
func (h *Hotspot) Start(n *Network) {
	mustValidConfig(n)
	if h.Bytes <= 0 {
		return
	}
	msgs := make(messageSlab, 0, len(h.Members))
	for _, s := range h.Members {
		if s == h.Dst {
			continue
		}
		n.Inject(msgs.next(Message{Src: s, Dst: h.Dst, Bytes: h.Bytes}))
		h.remaining++
	}
}

// OnDeliver counts completions.
func (h *Hotspot) OnDeliver(n *Network, m *Message) { h.remaining-- }

// Done reports all sources drained.
func (h *Hotspot) Done() bool { return h.remaining <= 0 }

// MultiDriver runs several drivers concurrently over one fabric — e.g. a
// ring collective per group plus all-to-all per cluster, the paper's
// "concurrent collective operation of multiple messages". Each delivery
// goes only to the sub-driver that injected the message.
type MultiDriver struct {
	Drivers []Driver
	// owner[id] is 1 + the index in Drivers of the sub-driver that
	// injected message id (0 for messages injected from elsewhere); Inject
	// numbers messages densely.
	owner []int32
}

// NewMultiDriver wraps drivers for a combined run.
func NewMultiDriver(ds ...Driver) *MultiDriver {
	return &MultiDriver{Drivers: ds}
}

// adopt records Drivers[k] as the owner of msgs.
func (md *MultiDriver) adopt(msgs []*Message, k int) {
	for _, m := range msgs {
		for m.ID >= len(md.owner) {
			md.owner = appendDoubling(md.owner, 0)
		}
		md.owner[m.ID] = int32(k + 1)
	}
}

// Start starts every sub-driver, recording which one injected each
// message.
func (md *MultiDriver) Start(n *Network) {
	mustValidConfig(n)
	for k, d := range md.Drivers {
		before := len(n.messages)
		d.Start(n)
		md.adopt(n.messages[before:], k)
	}
}

// OnDeliver dispatches to the owning driver and tracks its follow-ups.
func (md *MultiDriver) OnDeliver(n *Network, m *Message) {
	if m.ID >= len(md.owner) || md.owner[m.ID] == 0 {
		return
	}
	k := int(md.owner[m.ID]) - 1
	before := len(n.messages)
	md.Drivers[k].OnDeliver(n, m)
	md.adopt(n.messages[before:], k)
}

// Done reports whether every sub-driver is done.
func (md *MultiDriver) Done() bool {
	for _, d := range md.Drivers {
		if !d.Done() {
			return false
		}
	}
	return true
}
