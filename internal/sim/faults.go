package sim

import (
	"fmt"
	"sort"

	"mptwino/internal/comm"
	"mptwino/internal/model"
	"mptwino/internal/telemetry"
	"mptwino/internal/winograd"
)

// RecoveryResult reports a fault-recovery simulation: the same network and
// system config run twice — once fully healthy and once after permanent
// module failures — with the dynamic-clustering optimizer re-solving the
// (Ng, Nc) grid over the survivor menu, plus the one-time cost of
// switching wirings.
type RecoveryResult struct {
	Healthy  NetworkResult // all provisioned workers alive
	Degraded NetworkResult // re-solved at the survivor count

	Workers   int   // provisioned workers
	Survivors int   // workers remaining after failures
	Failed    []int // failed module IDs (deduplicated, ascending)

	// ReconfigSec is the one-time recovery cost: reprogramming the
	// circuit-switched memory-centric network plus streaming every
	// surviving worker's new Winograd-domain weight shard from the host
	// over one full-width host link.
	ReconfigSec float64
}

// Slowdown returns the degraded iteration time relative to healthy
// (>= 1 in practice; 0 when the healthy run is degenerate).
func (r RecoveryResult) Slowdown() float64 {
	if r.Healthy.IterationSec == 0 {
		return 0
	}
	return r.Degraded.IterationSec / r.Healthy.IterationSec
}

const (
	// hostLinkBW is one full-width host link, one direction (Table III:
	// 16 lanes × 15 Gbps = 30 GB/s) — the path weight shards re-load over
	// during reconfiguration.
	hostLinkBW = 30e9

	// rewireSec is the circuit-switch reprogramming latency charged once
	// per recovery, covering the reconfigurable switch's route-table
	// rewrite and link retraining.
	rewireSec = 10e-6
)

// SimulateNetworkWithFailure simulates graceful degradation: workers in
// failed are removed, the clustering menu is re-solved over the survivor
// count (comm.SurvivorConfigs — e.g. 255 survivors offer (16,15), (4,63)
// and (1,255)), and the network is re-simulated at the degraded grid.
// Fixed-grid MPT configs fall back to the survivor menu's leading entry.
func (s System) SimulateNetworkWithFailure(net model.Network, c SystemConfig, failed []int) (RecoveryResult, error) {
	seen := make(map[int]bool)
	var uniq []int
	for _, f := range failed {
		if f < 0 || f >= s.Workers {
			return RecoveryResult{}, fmt.Errorf("sim: failed module %d out of range [0,%d)", f, s.Workers)
		}
		if !seen[f] {
			seen[f] = true
			uniq = append(uniq, f)
		}
	}
	sort.Ints(uniq)
	survivors := s.Workers - len(uniq)
	if survivors < 1 {
		return RecoveryResult{}, fmt.Errorf("sim: no surviving workers (%d failures of %d provisioned)", len(uniq), s.Workers)
	}

	res := RecoveryResult{Workers: s.Workers, Survivors: survivors, Failed: uniq}
	res.Healthy = s.SimulateNetwork(net, c)

	ds := s
	ds.Workers = survivors
	ds.Menu = comm.SurvivorConfigs(survivors)
	if s.fleetActive() {
		// Keep the capability profiles addressed to the right physical
		// modules: the survivor grid compacts over the living ids, so map
		// grid slots back through the pre-failure module list minus the
		// dead.
		ds.ActiveModules = survivorModules(s.activeModules(s.Workers), uniq)
	}
	res.Degraded = ds.SimulateNetwork(net, c)

	res.ReconfigSec = rewireSec + s.reshardSeconds(net, c, res.Degraded)
	if s.Trace.Enabled() {
		// The recovery lane: one span covering the one-time reconfiguration
		// (rewire + weight re-shard), starting where the healthy iteration
		// ended on the timeline.
		start := int64(res.Healthy.IterationSec * s.NDP.ClockHz)
		s.Trace.NameThread(telemetry.PIDSim, recoveryTID, "recovery")
		s.Trace.Span(telemetry.PIDSim, recoveryTID, "reconfigure", "sim.fault",
			start, int64(res.ReconfigSec*s.NDP.ClockHz), map[string]any{
				"survivors": survivors, "failed": len(uniq), "tv": "overhead",
			})
	}
	s.Metrics.Counter("sim.reconfigs").Inc()
	return res, nil
}

// recoveryTID is the trace thread row for fault-recovery events, clear of
// the per-config rows (tid = int(SystemConfig)).
const recoveryTID = 100

// survivorModules removes the failed module ids (sorted ascending) from
// the grid-ordered module list, preserving order — the compaction the
// degraded worker grid applies.
func survivorModules(modules, failed []int) []int {
	dead := make(map[int]bool, len(failed))
	for _, f := range failed {
		dead[f] = true
	}
	out := make([]int, 0, len(modules)-len(failed))
	for _, m := range modules {
		if !dead[m] {
			out = append(out, m)
		}
	}
	return out
}

// reshardSeconds prices the weight redistribution a wiring change implies:
// each surviving worker streams its new per-layer weight shard
// (comm.WeightShardBytes: the Winograd-domain W columns its cell now owns,
// or the full spatial replica for data-parallel layers) over the host
// link. Workers load in parallel, so the time is the per-worker byte total
// at hostLinkBW.
func (s *System) reshardSeconds(net model.Network, c SystemConfig, degraded NetworkResult) float64 {
	var perWorker int64
	for i, l := range net.Layers {
		r := degraded.Layers[i]
		st := comm.Strategy{Ng: r.Ng, Nc: r.Nc, Nf: r.Nf, Ni: r.Ni, Winograd: c != DDp}
		var tr *winograd.Transform
		if st.Winograd {
			var err error
			if tr, err = st.Transform(l.P.K); err != nil {
				continue
			}
		}
		perWorker += comm.WeightShardBytes(tr, l.P, st) * int64(l.EffectiveRepeat())
	}
	return float64(perWorker) / hostLinkBW
}
