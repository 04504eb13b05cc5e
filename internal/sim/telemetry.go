package sim

import (
	"fmt"

	"mptwino/internal/model"
	"mptwino/internal/ndp"
	"mptwino/internal/telemetry"
)

// Trace emission for the system simulator. Spans are emitted only from
// assembleNetwork's index-ordered fold, the one place per-layer results
// pass through sequentially. Timestamps are simulated cycles at
// NDP.ClockHz, laid out as consecutive fwd/bwd spans per layer — one
// iteration per layer, with the Repeat multiplier reported in span args
// rather than unrolled (a 40-deep WRN stays readable on the timeline).
//
// Span taxonomy (consumed by internal/traceview — DESIGN.md §15): every
// span carries a "tv" category arg and, for non-root spans, a "tv_parent"
// arg naming its causal parent in the same (pid, tid) lane. Layer-phase
// spans ("<layer> fwd"/"<layer> bwd", tv="phase") are the roots; under
// each, the overlap rule of phase.seconds() is reified as child spans:
//
//	"<layer> <pass> compute"  tv="compute"    [t, t+c)      c = PhaseSeconds(systolic, vector, dram)
//	"<layer> <pass> tile"     tv="comm.tile"  [t, t+tile)   runs concurrently with compute
//	"<layer> <pass> coll"     tv="comm.coll"  [t+max(c,tile), +coll)  serialized after both
//
// The parent's duration is max(c, tile)+coll in integer cycles, derived
// from the children so they tile it exactly (the float sum ForwardSec
// rounds independently and could drift by a cycle). Comm hidden behind
// compute is therefore a pure interval intersection on the trace, which
// is what lets traceview prove (or gate) overlap claims machine-checkably.

// phaseCycles converts one pass's breakdown to integer-cycle child
// durations: the double-buffered compute block, the concurrent tile
// transfer, and the serialized collective.
func (s *System) phaseCycles(b Breakdown) (compute, tile, coll int64) {
	compute = int64(ndp.PhaseSeconds(b.SystolicSec, b.VectorSec, b.DRAMSec) * s.NDP.ClockHz)
	tile = int64(b.TileCommSec * s.NDP.ClockHz)
	coll = int64(b.CollSec * s.NDP.ClockHz)
	return compute, tile, coll
}

// tracePhase emits one layer pass: the root phase span plus its
// compute/tile/coll children, returning the phase's wall cycles.
func (s *System) tracePhase(tid int, layer, pass string, t int64, b Breakdown, args map[string]any) int64 {
	tr := s.Trace
	compute, tile, coll := s.phaseCycles(b)
	wall := compute
	if tile > wall {
		wall = tile
	}
	wall += coll

	root := layer + " " + pass
	args["tv"] = "phase"
	args["layer"] = layer
	tr.Span(telemetry.PIDSim, tid, root, "sim.phase", t, wall, args)
	if compute > 0 {
		tr.Span(telemetry.PIDSim, tid, root+" compute", "sim.exec", t, compute, map[string]any{
			"tv": "compute", "tv_parent": root, "layer": layer,
		})
	}
	if tile > 0 {
		tr.Span(telemetry.PIDSim, tid, root+" tile", "sim.exec", t, tile, map[string]any{
			"tv": "comm.tile", "tv_parent": root, "layer": layer,
		})
	}
	if coll > 0 {
		collStart := compute
		if tile > collStart {
			collStart = tile
		}
		tr.Span(telemetry.PIDSim, tid, root+" coll", "sim.exec", t+collStart, coll, map[string]any{
			"tv": "comm.coll", "tv_parent": root, "layer": layer,
		})
	}
	return wall
}

// traceNetwork emits the per-layer phase spans of one assembled network
// result into the telemetry.PIDSim lane, one thread row per system config.
func (s *System) traceNetwork(net model.Network, c SystemConfig, res NetworkResult) {
	tr := s.Trace
	if !tr.Enabled() {
		return
	}
	tid := int(c)
	tr.NameProcess(telemetry.PIDSim, "sim")
	tr.NameThread(telemetry.PIDSim, tid, "config "+c.String())
	var t int64
	for i, lr := range res.Layers {
		rep := net.Layers[i].EffectiveRepeat()
		if len(lr.Menu) > 0 {
			args := make(map[string]any, len(lr.Menu)+3)
			for _, cell := range lr.Menu {
				args[fmt.Sprintf("%dx%d_sec", cell.Ng, cell.Nc)] = cell.TotalSec
			}
			args["tv"] = "overhead"
			args["tv_parent"] = lr.Name + " fwd"
			args["layer"] = lr.Name
			tr.Instant(telemetry.PIDSim, tid, lr.Name+" menu", "sim.menu", t, args)
		}
		t += s.tracePhase(tid, lr.Name, "fwd", t, lr.Forward, map[string]any{
			"config": c.String(), "ng": lr.Ng, "nc": lr.Nc, "repeat": rep,
			"binding": lr.Forward.Binding(),
		})
		t += s.tracePhase(tid, lr.Name, "bwd", t, lr.Backward, map[string]any{
			"config": c.String(), "ng": lr.Ng, "nc": lr.Nc, "repeat": rep,
			"binding":    lr.Backward.Binding(),
			"tile_bytes": lr.TileBytes, "coll_bytes": lr.CollBytes,
		})
	}
}
