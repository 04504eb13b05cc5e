package sim

import (
	"fmt"

	"mptwino/internal/comm"
)

// Heterogeneous-fleet cost model. The paper's timing model assumes 256
// identical modules; this file stretches the per-phase durations when the
// System carries per-module capability profiles (ComputeSpeeds /
// LinkSpeeds, from fault.Plan.ModuleSpeeds):
//
//   - The worker grid maps clusters onto modules in slot order: cluster c
//     owns grid slots [c·D, (c+1)·D) for its cell of D = Ng·Nf·Ni workers
//     (st.Cell()), and a cluster runs at its slowest member's speed (the
//     intra-cluster scatter/compute/gather barrier).
//   - Each cluster's share of the batch takes share/speed relative time;
//     the synchronous step waits for the worst cluster. Shares are treated
//     as continuous here (B ≫ Nc washes out sample granularity; the mpt
//     engine quantizes real sample counts by largest remainder).
//   - The weight collective rings pass through every active module, so
//     they run at the slowest link speed in the fleet.
//
// Everything is a pure function of (System, strategy, batch): no RNG, no
// iteration-order dependence, bit-identical at any host worker count.

// fleetFactors are the multiplicative stretches one strategy suffers on
// the profiled fleet, plus the realizable integer sharding they imply.
type fleetFactors struct {
	compute float64 // systolic + vector (slowest cluster's share/speed)
	dram    float64 // local streaming scales with the share alone
	tile    float64 // intra-cluster transfer at the cluster's link speed
	coll    float64 // ring collective at the fleet's slowest link
	shares  []int   // integer per-cluster sample counts (telemetry/mpt)
}

// fleetActive reports whether the System carries capability profiles.
func (s *System) fleetActive() bool {
	return len(s.ComputeSpeeds) > 0 || len(s.LinkSpeeds) > 0
}

// activeModules returns the physical module ids behind the first n grid
// slots (identity when no survivor compaction installed a mapping).
func (s *System) activeModules(n int) []int {
	if s.ActiveModules != nil {
		if n > len(s.ActiveModules) {
			n = len(s.ActiveModules)
		}
		return s.ActiveModules[:n]
	}
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// fleetFactors computes the stretches for one strategy. With
// all-1.0 speed slices every factor is exactly 1.0, so multiplying the
// phase durations reproduces the homogeneous results bit-for-bit.
func (s *System) fleetFactors(st comm.Strategy, batch int) fleetFactors {
	modules := s.activeModules(st.Workers())
	cs := comm.ClusterSpeeds(s.ComputeSpeeds, modules, st.Cell(), st.Nc)
	ls := comm.ClusterSpeeds(s.LinkSpeeds, modules, st.Cell(), st.Nc)

	// Effective cluster speed: a cluster is gated by whichever of compute
	// and intra-cluster bandwidth is more derated.
	eff := make([]float64, st.Nc)
	sumEff := 0.0
	for c := range eff {
		eff[c] = cs[c]
		if ls[c] < eff[c] {
			eff[c] = ls[c]
		}
		sumEff += eff[c]
	}

	ff := fleetFactors{compute: 1, dram: 1, tile: 1, coll: 1}
	for c := 0; c < st.Nc; c++ {
		r := 1.0 // equal split: every cluster holds batch/Nc
		if s.LoadAware && sumEff > 0 {
			r = eff[c] * float64(st.Nc) / sumEff
		}
		if v := r / cs[c]; v > ff.compute {
			ff.compute = v
		}
		if r > ff.dram {
			ff.dram = r
		}
		if v := r / ls[c]; v > ff.tile {
			ff.tile = v
		}
	}
	minLink := 1.0
	for _, m := range modules {
		if m >= 0 && m < len(s.LinkSpeeds) && s.LinkSpeeds[m] < minLink {
			minLink = s.LinkSpeeds[m]
		}
	}
	if minLink > 0 {
		ff.coll = 1 / minLink
	}

	if s.LoadAware {
		ff.shares = comm.LoadAwareShards(batch, eff)
	} else {
		ff.shares = comm.EqualShards(batch, st.Nc)
	}
	return ff
}

// apply stretches one phase's durations in place. Byte counts are left
// alone: a degraded fleet moves the same data, only slower.
func (ff fleetFactors) apply(p *phase) {
	p.systolicSec *= ff.compute
	p.vectorSec *= ff.compute
	p.dramSec *= ff.dram
	p.tileCommSec *= ff.tile
	p.collSec *= ff.coll
}

// recordFleetSpeeds mirrors the per-module effective speeds into gauges as
// permille integers, named fleet.effective_speed.m<id> (compute) and
// fleet.link_speed.m<id> (SerDes). Only derated modules get a gauge, so
// the registry stays small on a 256-module fleet with one straggler. Set
// is idempotent, so repeated network assemblies stay byte-identical.
func (s *System) recordFleetSpeeds() {
	if s.Metrics == nil {
		return
	}
	for m, v := range s.ComputeSpeeds {
		if v != 1 {
			s.Metrics.Gauge(fmt.Sprintf("fleet.effective_speed.m%03d", m)).Set(int64(v * 1000))
		}
	}
	for m, v := range s.LinkSpeeds {
		if v != 1 {
			s.Metrics.Gauge(fmt.Sprintf("fleet.link_speed.m%03d", m)).Set(int64(v * 1000))
		}
	}
}
