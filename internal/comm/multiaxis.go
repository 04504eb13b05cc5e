package comm

import (
	"mptwino/internal/conv"
	"mptwino/internal/winograd"
)

// This file is the traffic model of the four-axis strategy space the
// per-layer auto-search planner explores (internal/planner): Ng
// Winograd-element groups × Nc batch clusters × Nf filter (output-channel)
// shards × Ni input-channel shards, with Ng·Nc·Nf·Ni = p. The extra axes
// follow Jia et al. ("Exploring Hidden Dimensions in Parallelizing CNNs"):
// sharding filters replicates input tiles, sharding input channels leaves
// partial output sums that an intra-cell reduction collective must
// combine. The paper's (Ng, Nc) model (Section III-C) is the Nf = Ni = 1
// case of the same formulas, so the fixed menu and the planner run one
// model.
//
// Traffic accounting (per worker, per iteration, whole bytes). One cluster
// owns the batch shard B/Nc; its cell of D = Ng·Nf·Ni workers initially
// holds the shard's tiles uniformly in position-major order (1/D each).
// Worker (g, f, i) of the cell computes, for group g's T²/Ng elements, the
// partial GEMM X[rows, In/Ni]·W[In/Ni, Out/Nf]:
//
//   - scatter (fprop X):   need = inT/(Nc·Ng·Ni); the resident fraction of
//     the need is 1/D, so (D−1)/D of it crosses the cell fabric.
//   - partial-sum reduce (fprop Y): the Ni channel shards hold partial
//     sums of the same outT/(Nc·Ng·Nf) values; a ring reduce moves
//     (Ni−1)/Ni of that payload per worker.
//   - gather (fprop Y): the reduced output tiles return to position-major
//     layout, (D−1)/D of the outT/(Nc·Ng·Nf) payload crossing.
//   - bprop mirrors with X and Y swapped: dY scattered over (g, f), dX
//     gathered over (g, i), dX partial sums reduced across Nf.
//   - updateGrad: each worker's dW shard (WeightShardBytes) ring-reduces
//     across the Nc clusters; X and dY shards are already co-located from
//     the forward/backward scatters, so no extra traffic.
//
// Every value is floored to whole bytes: each payload once, by a single
// division per tensor role (floor(floor(a/b)/c) = floor(a/(b·c)), so one
// division equals dividing by each axis in turn), then each crossing or
// partial share. A value is therefore below its exact rational payload by
// less than 2 bytes (TestPhaseVolumesWholeBytes).

// TileTraffic is one training phase's dense per-worker traffic on the cell
// fabric, in bytes.
type TileTraffic struct {
	Scatter int64 // X (fprop) or dY (bprop) tiles in
	Gather  int64 // Y (fprop) or dX (bprop) tiles out
	Partial int64 // intra-cell partial-sum reduction of the gathered tensor
}

// PhaseVolumes returns the raw (dense, un-reduced) per-worker tile traffic
// of fprop (scatter X, reduce+gather Y) and bprop (scatter dY,
// reduce+gather dX). Callers apply the Section V reductions, the 1-D
// gather shrink and gather scaling themselves; partial sums take none of
// them, since they move not-yet-final sums. A one-worker cell moves
// nothing.
func PhaseVolumes(tr *winograd.Transform, p conv.Params, batch int, s Strategy) (fwd, bwd TileTraffic) {
	d := int64(s.Cell())
	if d <= 1 {
		return fwd, bwd
	}
	nc, ng := int64(s.Nc), int64(s.Ng)
	nf, ni := int64(s.FilterShards()), int64(s.ChannelShards())
	in := TileBytes(tr, p, batch, p.In) / (nc * ng * ni)   // X / dX payload
	out := TileBytes(tr, p, batch, p.Out) / (nc * ng * nf) // Y / dY payload
	inCross, outCross := in*(d-1)/d, out*(d-1)/d
	fwd = TileTraffic{Scatter: inCross, Gather: outCross, Partial: out * (ni - 1) / ni}
	bwd = TileTraffic{Scatter: outCross, Gather: inCross, Partial: in * (nf - 1) / nf}
	return fwd, bwd
}

// Factorization is one ordered (Ng, Nc, Nf, Ni) split of the fleet.
type Factorization struct {
	Ng, Nc, Nf, Ni int
}

// Product returns Ng·Nc·Nf·Ni.
func (f Factorization) Product() int { return f.Ng * f.Nc * f.Nf * f.Ni }

// Factorizations enumerates every ordered (Ng, Nc, Nf, Ni) factorization
// of p workers, in deterministic lexicographic order (Ng outermost). The
// planner filters the list per layer (Ng ≤ T², Nc ≤ batch, Nf ≤ Out,
// Ni ≤ In); callers must not rely on any additional ordering property.
func Factorizations(p int) []Factorization {
	var out []Factorization
	for ng := 1; ng <= p; ng++ {
		if p%ng != 0 {
			continue
		}
		rem1 := p / ng
		for nc := 1; nc <= rem1; nc++ {
			if rem1%nc != 0 {
				continue
			}
			rem2 := rem1 / nc
			for nf := 1; nf <= rem2; nf++ {
				if rem2%nf != 0 {
					continue
				}
				out = append(out, Factorization{Ng: ng, Nc: nc, Nf: nf, Ni: rem2 / nf})
			}
		}
	}
	return out
}
