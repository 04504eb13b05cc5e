package sim

import (
	"mptwino/internal/comm"
	"mptwino/internal/model"
	"mptwino/internal/winograd"
)

// This file holds the planner's entry points into the phase model of
// layer.go, which runs every strategy of the four-axis space the
// auto-search planner explores (internal/planner, internal/comm/multiaxis):
// Ng element groups × Nc batch clusters × Nf filter shards × Ni input-
// channel shards.

// SimulateLayerStrategy runs one training iteration of layer l under an
// explicit parallelization strategy — the planner's cost oracle. The
// transform follows the strategy's tile axis (st.TileM, with 0 = the
// paper's kernel rule for st.Ng); non-Winograd strategies run the
// direct-convolution (d_dp) phase model. The result's BoundBytes carries
// the layer's dense communication floor so callers can report
// achieved-vs-bound traffic.
func (s System) SimulateLayerStrategy(l model.Layer, batch int, c SystemConfig, st comm.Strategy) LayerResult {
	tr := winograd.F4x4_3x3 // unused on the direct path
	if st.Winograd {
		var err error
		tr, err = st.Transform(l.P.K)
		if err != nil {
			panic(err)
		}
	} else {
		c = DDp
	}
	res := s.simulateWithStrategy(l, batch, c, st, tr)
	res.BoundBytes = comm.LowerBoundBytes(l.P, batch, s.clusterMenu())
	return res
}

// CommFloorSec returns a cheap lower bound on the layer's simulated
// iteration time under st, built from communication volumes and the link
// model alone — no compute or DRAM terms. Each phase's duration is
// max(compute, tileComm) + collective, so the tile and collective terms
// never exceed the simulated total and pruning candidates whose floor
// already exceeds a reference time is sound (to within a byte of int64
// rounding, far below any useful pruning slack). This is the Chen/Demmel-
// style bound the planner prunes with before invoking the full oracle.
func (s System) CommFloorSec(l model.Layer, batch int, st comm.Strategy) float64 {
	if !st.Winograd {
		return s.collectiveSeconds(comm.SpatialWeightBytes(l.P), s.Workers, s.ringBW(DDp))
	}
	tr, err := st.Transform(l.P.K)
	if err != nil {
		panic(err)
	}
	v := comm.LayerVolumes(tr, l.P, batch, st)
	tileBytes := int64(float64(v.TileGather)*l.EffectiveGatherScale()) + v.TileScatter + v.PartialSum
	msg, bw := s.weightCollective(tr, l.P, st)
	return s.tileSeconds(tileBytes, st.Cell()) + s.collectiveSeconds(msg, st.Nc, bw)
}
