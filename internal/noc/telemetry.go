package noc

import (
	"fmt"

	"mptwino/internal/telemetry"
	"mptwino/internal/topology"
)

// instruments holds the network's resolved telemetry handles. The zero
// value (all nil) is the disabled state — every update through a nil
// handle is a no-op, so the cycle loop calls them unconditionally.
//
// Determinism: every emission site below runs on the cycle loop in a fixed
// order, and the counters are commutative sums, so metrics and trace bytes
// are bit-identical run to run.
type instruments struct {
	cycles      *telemetry.Counter
	flitHops    *telemetry.Counter
	dropped     *telemetry.Counter
	retransmits *telemetry.Counter
	failures    *telemetry.Counter
	lost        *telemetry.Counter
	delivered   *telemetry.Counter
	bytesClass  [topology.Host + 1]*telemetry.Counter
	linkUtil    *telemetry.Histogram
	tracer      *telemetry.Tracer
}

// Instrument attaches a metrics registry and/or tracer to the network.
// Call before Run/Step; pass nil for either to leave it disabled.
//
// Counters: noc.cycles, noc.flit_hops, noc.dropped_flits,
// noc.retransmits, noc.node_failures, noc.messages_lost,
// noc.messages_delivered, noc.bytes.{full,narrow,host}; histogram
// noc.link_util (busy-fraction of each active link over the run, observed
// once per link at stats time).
//
// Trace events land in the telemetry.PIDNoC lane: one span per delivered
// message (tid = source node, so each router gets its own timeline row)
// plus instant events for node failures, flit-drop retransmissions, and
// lost messages.
func (n *Network) Instrument(reg *telemetry.Registry, tr *telemetry.Tracer) {
	n.tel = instruments{
		cycles:      reg.Counter("noc.cycles"),
		flitHops:    reg.Counter("noc.flit_hops"),
		dropped:     reg.Counter("noc.dropped_flits"),
		retransmits: reg.Counter("noc.retransmits"),
		failures:    reg.Counter("noc.node_failures"),
		lost:        reg.Counter("noc.messages_lost"),
		delivered:   reg.Counter("noc.messages_delivered"),
		linkUtil:    reg.Histogram("noc.link_util"),
		tracer:      tr,
	}
	for c := topology.Full; c <= topology.Host; c++ {
		n.tel.bytesClass[c] = reg.Counter("noc.bytes." + c.String())
	}
	tr.NameProcess(telemetry.PIDNoC, "noc")
}

// traceMessages emits one complete-span per message (delivered or lost)
// in injection order — a deterministic sequential sweep at stats time.
func (n *Network) traceMessages() {
	if !n.tel.tracer.Enabled() {
		return
	}
	for _, m := range n.messages {
		name := fmt.Sprintf("msg %d->%d", m.Src, m.Dst)
		args := map[string]any{"id": m.ID, "bytes": m.Bytes, "retries": m.Retries, "tv": "comm.noc"}
		end := m.DeliveredAt
		if m.lost {
			name = "LOST " + name
			args["why"] = m.lossWhy
			end = n.now
		}
		n.tel.tracer.Span(telemetry.PIDNoC, m.Src, name, "noc.msg", m.InjectedAt, end-m.InjectedAt, args)
	}
}
