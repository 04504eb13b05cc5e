package sim

import (
	"mptwino/internal/comm"
	"mptwino/internal/conv"
	"mptwino/internal/energy"
	"mptwino/internal/model"
	"mptwino/internal/ndp"
	"mptwino/internal/parallel"
	"mptwino/internal/winograd"
)

// Breakdown exposes one pass's per-resource durations before the overlap
// rule combines them — which resource binds a pass explains every Fig. 15
// trend (early layers: tile fabric; w_dp late layers: DRAM weight
// streaming; backward passes: the serialized collective).
type Breakdown struct {
	SystolicSec float64 // dot-product matmuls
	VectorSec   float64 // Winograd transforms, activations
	DRAMSec     float64 // local 3D-stacked memory streaming
	TileCommSec float64 // tile scatter/gather on the cluster fabric
	CollSec     float64 // weight-gradient ring collective (serialized)
}

// Binding names the resource that determines the pass duration.
func (b Breakdown) Binding() string {
	name, best := "systolic", b.SystolicSec
	for _, c := range []struct {
		n string
		v float64
	}{{"vector", b.VectorSec}, {"dram", b.DRAMSec}, {"tile-comm", b.TileCommSec}} {
		if c.v > best {
			name, best = c.n, c.v
		}
	}
	if b.CollSec > best {
		return "collective"
	}
	return name
}

// LayerResult is the simulated outcome of one training iteration of one
// layer (the unit of Fig. 15).
type LayerResult struct {
	Name   string
	Config SystemConfig
	Ng, Nc int // chosen clustering (1,p for data-parallel configs)
	Nf, Ni int // planner shard axes (always 1 on the fixed menu)

	ForwardSec  float64          // fprop
	BackwardSec float64          // bprop + updateGrad
	Forward     Breakdown        // per-resource forward durations
	Backward    Breakdown        // per-resource backward durations
	Energy      energy.Breakdown // whole system
	DRAMBytes   int64            // per worker, whole iteration
	NetBytes    int64            // per worker, whole iteration (all fabrics)

	// TileBytes / CollBytes split the per-worker traffic by fabric: tile
	// scatter/gather on the cluster FBFLY vs. the weight-gradient ring
	// collective — the split behind the paper's Fig. 15 discussion.
	TileBytes int64
	CollBytes int64

	// Menu records every (Ng, Nc) candidate a dynamic-clustering config
	// evaluated for this layer (empty for fixed-grid configs). The chosen
	// entry is the earliest with the strictly smallest total time.
	Menu []MenuCell

	// BoundBytes is the layer's dense per-worker communication floor —
	// the minimum no-reduction traffic over the clustering menu
	// (comm.LowerBoundBytes) — against which the scenario matrix reports
	// achieved bytes. Identical across configs of one layer.
	BoundBytes int64

	// ShareImbalance is the residual spread of the realizable integer
	// batch sharding in permille (comm.ImbalancePermille); 0 on healthy
	// equal splits and on homogeneous systems without fleet profiles.
	ShareImbalance int64
}

// MenuCell is one evaluated dynamic-clustering candidate.
type MenuCell struct {
	Ng, Nc   int
	TotalSec float64
}

// TotalSec returns forward+backward time.
func (r LayerResult) TotalSec() float64 { return r.ForwardSec + r.BackwardSec }

// phase aggregates one phase's per-worker costs before overlap.
type phase struct {
	systolicSec float64
	vectorSec   float64
	dramSec     float64
	dramBytes   int64

	tileCommSec   float64
	tileCommBytes int64
	collSec       float64
	collBytes     int64

	macs     int64 // whole-system MACs (for energy)
	vops     int64 // whole-system vector ops
	netBytes int64 // whole-system byte·hops (for link energy)
}

// seconds returns the phase duration. Compute, DRAM streaming, and tile
// transfer overlap under double buffering (bound by the slowest resource),
// but the weight collective serializes after updateGrad: its final chunks
// only exist once the gradient computation finishes, and the updated
// weights must be broadcast and stored before the iteration ends.
func (p phase) seconds() float64 {
	t := ndp.PhaseSeconds(p.systolicSec, p.vectorSec, p.dramSec)
	if p.tileCommSec > t {
		t = p.tileCommSec
	}
	return t + p.collSec
}

// breakdown exports the phase's per-resource durations.
func (p phase) breakdown() Breakdown {
	return Breakdown{
		SystolicSec: p.systolicSec,
		VectorSec:   p.vectorSec,
		DRAMSec:     p.dramSec,
		TileCommSec: p.tileCommSec,
		CollSec:     p.collSec,
	}
}

// meanTileHops returns the average hop count of the cluster fabric the
// strategy implies: 1 for ≤4 fully-connected groups, 1.6 for the 4×4
// FBFLY (6 of 15 destinations at 1 hop, 9 at 2).
func meanTileHops(ng int) float64 {
	switch {
	case ng <= 1:
		return 0
	case ng <= 4:
		return 1
	case ng <= 16:
		return 1.6
	default:
		// Larger planner cells sit on a side×side FBFLY; the closed form
		// 2·side/(side+1) generalizes the 4×4 figure (2·4/5 = 1.6).
		side := 1
		for side*side < ng {
			side++
		}
		return 2 * float64(side) / float64(side+1)
	}
}

// SimulateLayer runs one training iteration of layer l at the given batch
// under config c, returning time, energy, and traffic. It runs every
// strategy Strategies lists for c through SimulateLayerStrategy and keeps
// the earliest with the strictly smallest total time: dynamic-clustering
// configs evaluate every allowed (Ng, Nc) wiring — the paper pre-computes
// exactly this per-layer choice offline ("the optimal configuration per
// layer ... is pre-determined and does not change", with footnote 9
// assuming optimal reorganization) — and fixed-grid configs list one.
func (s System) SimulateLayer(l model.Layer, batch int, c SystemConfig) LayerResult {
	sts := s.Strategies(c, l.P.K)
	if !c.usesDynamicClustering() {
		return s.SimulateLayerStrategy(l, batch, c, sts[0])
	}
	// Menu entries are independent; evaluate them concurrently and select
	// sequentially, preserving the sequential tie-break.
	results := parallel.Map(s.HostWorkers(), len(sts), func(i int) LayerResult {
		return s.SimulateLayerStrategy(l, batch, c, sts[i])
	})
	s.Metrics.Counter("sim.menu_cells").Add(int64(len(sts)))
	best := results[0]
	for _, r := range results[1:] {
		if r.TotalSec() < best.TotalSec() {
			best = r
		}
	}
	// Record the evaluated sweep on the winner so observability layers
	// can show WHY this (Ng, Nc) won (trace args, -metrics dumps).
	best.Menu = make([]MenuCell, len(results))
	for i, r := range results {
		best.Menu[i] = MenuCell{Ng: r.Ng, Nc: r.Nc, TotalSec: r.TotalSec()}
	}
	return best
}

// SimulateLayerStrategy runs one training iteration of layer l under one
// explicit parallelization strategy — the planner's cost oracle and the
// step SimulateLayer runs per listed strategy. The transform follows the
// strategy's tile axis (st.TileM, with 0 = the paper's kernel rule for
// st.Ng); non-Winograd strategies run the direct-convolution (d_dp) phase
// model and record config d_dp. The result's BoundBytes carries the
// layer's dense communication floor over the clustering menu, so callers
// can report achieved-vs-bound traffic.
func (s System) SimulateLayerStrategy(l model.Layer, batch int, c SystemConfig, st comm.Strategy) LayerResult {
	p := l.P
	var fwd, bwd phase
	if st.Winograd {
		tr, err := st.Transform(p.K)
		if err != nil {
			panic(err)
		}
		fwd, bwd = s.winogradPhases(p, batch, st, tr, l.EffectiveGatherScale())
	} else {
		c = DDp
		fwd, bwd = s.directPhases(p, batch)
	}
	res := LayerResult{Name: l.Name, Config: c, Ng: st.Ng, Nc: st.Nc,
		Nf: st.FilterShards(), Ni: st.ChannelShards(),
		BoundBytes: comm.LowerBoundBytes(p, batch, s.menu())}

	if s.fleetActive() {
		ff := s.fleetFactors(st, batch)
		ff.apply(&fwd)
		ff.apply(&bwd)
		res.ShareImbalance = comm.ImbalancePermille(ff.shares)
	}

	res.ForwardSec = fwd.seconds()
	res.BackwardSec = bwd.seconds()
	res.Forward = fwd.breakdown()
	res.Backward = bwd.breakdown()
	res.DRAMBytes = fwd.dramBytes + bwd.dramBytes
	res.TileBytes = fwd.tileCommBytes + bwd.tileCommBytes
	res.CollBytes = fwd.collBytes + bwd.collBytes
	res.NetBytes = res.TileBytes + res.CollBytes

	res.Energy = s.energyOf(fwd, res.ForwardSec, c, st)
	res.Energy.Add(s.energyOf(bwd, res.BackwardSec, c, st))
	return res
}

// CommFloorSec returns a cheap lower bound on the layer's simulated
// iteration time under st, built from communication volumes and the link
// model alone — no compute or DRAM terms: comm.TileVolumes' bytes on the
// cell fabric plus the weight ring's collective. Each phase's duration is
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
	if err == nil {
		err = st.Validate()
	}
	if err != nil {
		panic(err)
	}
	v := comm.TileVolumes(tr, l.P, batch, st)
	tileBytes := int64(float64(v.TileGather)*l.EffectiveGatherScale()) + v.TileScatter + v.PartialSum
	msg, bw := s.weightCollective(tr, l.P, st)
	return s.tileSeconds(tileBytes, st.Cell()) + s.collectiveSeconds(msg, st.Nc, bw)
}

// directPhases models the d_dp baseline: one big matmul per phase
// (im2col-lowered), full spatial data movement, spatial weight collective.
func (s *System) directPhases(p conv.Params, batch int) (fwd, bwd phase) {
	pw := int64(s.Workers)
	oh, ow := int64(p.OutH()), int64(p.OutW())
	rowsPerWorker := (int64(batch)*oh*ow + pw - 1) / pw // output pixels per worker
	k2 := int64(p.K) * int64(p.K)
	inner := int64(p.In) * k2

	fc := conv.FpropCost(p, batch)
	fwd.systolicSec = s.NDP.MatmulSeconds(rowsPerWorker, inner, int64(p.Out))
	fwd.dramBytes = fc.Total() / pw
	fwd.dramSec = s.NDP.DRAMSeconds(fwd.dramBytes)
	fwd.macs = fc.MACs

	bc := conv.BpropCost(p, batch)
	uc := conv.UpdateGradCost(p, batch)
	// bprop matmul mirrors fprop; updateGrad reduces over output pixels.
	bwd.systolicSec = s.NDP.MatmulSeconds(rowsPerWorker, int64(p.Out)*k2, int64(p.In)) +
		s.NDP.MatmulSeconds(inner, rowsPerWorker, int64(p.Out))
	bwd.dramBytes = (bc.Total() + uc.Total()) / pw
	bwd.dramSec = s.NDP.DRAMSeconds(bwd.dramBytes)
	bwd.macs = bc.MACs + uc.MACs

	// Weight collective: reduce + broadcast of spatial weights.
	wBytes := comm.SpatialWeightBytes(p)
	oneWay := comm.RingCollectivePerWorker(wBytes, s.Workers)
	bwd.collBytes = 2 * oneWay
	bwd.collSec = s.collectiveSeconds(wBytes, s.Workers, s.ringBW(DDp))
	bwd.netBytes = 2 * oneWay * pw
	return fwd, bwd
}

// winogradPhases models every Winograd strategy, from the paper's menu to
// the planner's four-axis cells: element-partitioned In/Ni × Out/Nf GEMM
// shards, transforms on the vector unit, tile transfer and partial sums on
// the D = Ng·Nf·Ni cell fabric, and the weight collective across the Nc
// clusters.
func (s *System) winogradPhases(p conv.Params, batch int, st comm.Strategy, tr *winograd.Transform, gatherScale float64) (fwd, bwd phase) {
	// Active workers in the grid. For healthy divisible configurations this
	// equals s.Workers; survivor menus may idle a remainder (e.g. (16,15)
	// uses 240 of 255 survivors), and idle workers contribute no compute or
	// traffic.
	pw := int64(st.Workers())
	t2 := int64(tr.T) * int64(tr.T)
	// Element load per worker. When Ng divides T² each group owns whole
	// elements; otherwise the surplus elements' output channels are
	// co-partitioned across the groups sharing them (the tile gather
	// already collects Y fragments from every group, and each group
	// ring-reduces only its own dW columns), so the load balances to
	// T²/Ng fractionally.
	elemsPerWorker := float64(t2) / float64(st.Ng)
	ni, nf := int64(st.ChannelShards()), int64(st.FilterShards())
	inShard := (int64(p.In) + ni - 1) / ni
	outShard := (int64(p.Out) + nf - 1) / nf
	tiles := comm.TileBytes(tr, p, batch, 1) / 4 / t2 // tiles per channel-batch
	rowsPerWorker := tiles / int64(st.Nc)
	if rowsPerWorker < 1 {
		rowsPerWorker = 1
	}

	fc := winograd.FpropCost(tr, p, batch)
	bc := winograd.BpropCost(tr, p, batch)
	uc := winograd.UpdateGradCost(tr, p, batch)
	tf, tb := comm.PhaseVolumes(tr, p, batch, st)

	// --- forward ---
	// Dot products: elemsPerWorker independent (rows × I/Ni)·(I/Ni × J/Nf)
	// matmuls.
	fwd.systolicSec = elemsPerWorker * s.NDP.MatmulSeconds(rowsPerWorker, inShard, outShard)
	fwd.vectorSec = float64(s.NDP.VectorCycles(fc.TransformMACs/pw)) / s.NDP.ClockHz
	fwd.dramBytes = s.winogradDRAMBytes(fc, st, rowsPerWorker)
	fwd.dramSec = s.NDP.DRAMSeconds(fwd.dramBytes)
	fwd.macs = fc.DotMACs
	fwd.vops = fc.TransformMACs
	s.chargeTiles(&fwd, tf, st, tr, gatherScale)

	// --- backward: bprop + updateGrad ---
	bwd.systolicSec = elemsPerWorker * (s.NDP.MatmulSeconds(rowsPerWorker, outShard, inShard) +
		s.NDP.MatmulSeconds(inShard, rowsPerWorker, outShard))
	bwd.vectorSec = float64(s.NDP.VectorCycles(bc.TransformMACs/pw)) / s.NDP.ClockHz
	bwd.dramBytes = s.winogradDRAMBytes(bc, st, rowsPerWorker) +
		s.winogradDRAMBytes(uc, st, rowsPerWorker)
	bwd.dramSec = s.NDP.DRAMSeconds(bwd.dramBytes)
	bwd.macs = bc.DotMACs + uc.DotMACs
	bwd.vops = bc.TransformMACs
	s.chargeTiles(&bwd, tb, st, tr, gatherScale)

	// Weight collective: every worker's shard ring-reduced and broadcast
	// across the Nc clusters.
	msg, bw := s.weightCollective(tr, p, st)
	oneWay := comm.RingCollectivePerWorker(msg, st.Nc)
	bwd.collBytes = 2 * oneWay
	bwd.collSec = s.collectiveSeconds(msg, st.Nc, bw)
	bwd.netBytes += 2 * oneWay * pw
	return fwd, bwd
}

// chargeTiles puts one phase's tile traffic on the cell fabric. The
// Section V reductions, gather scaling and the 1-D gather shrink apply to
// the scatter and gather; partial sums move as they are.
func (s *System) chargeTiles(ph *phase, v comm.TileTraffic, st comm.Strategy, tr *winograd.Transform, gatherScale float64) {
	scatter := float64(v.Scatter) * (1 - st.ScatterReduction)
	gather := float64(v.Gather) * (1 - st.GatherReduction) * gatherScale
	if winograd.HoldsWholeLines(tr.T, st.Ng) && st.Ng > 1 {
		// Whole-line ownership enables the 1-D inverse transform at the
		// source: gathered data shrinks from T to m values per line.
		gather *= float64(tr.M) / float64(tr.T)
	}
	total := scatter + gather + float64(v.Partial)
	ph.tileCommBytes = int64(total)
	ph.tileCommSec = s.tileSeconds(ph.tileCommBytes, st.Cell())
	ph.netBytes = int64(total * meanTileHops(st.Cell()) * float64(st.Workers()))
}

// weightCollective returns a Winograd strategy's weight-collective payload
// (comm.WeightShardBytes) and its ring bandwidth: a one-worker cell keeps
// data-parallel spatial weights on all links, a larger cell rings its
// Winograd-domain shard on the MPT half.
func (s *System) weightCollective(tr *winograd.Transform, p conv.Params, st comm.Strategy) (msg int64, bw float64) {
	cls := WMp
	if st.Cell() == 1 {
		cls = WDp
	}
	return comm.WeightShardBytes(tr, p, st), s.ringBW(cls)
}

// winogradDRAMBytes distributes one phase's data volume to a worker:
// tiles and spatial data split across all workers; the weight shard is
// the cell-local 1/D share and is re-read once per systolic pass when it
// exceeds the double-buffered SRAM.
func (s *System) winogradDRAMBytes(cst winograd.Cost, st comm.Strategy, rows int64) int64 {
	pw := int64(st.Workers())
	b := (cst.TileBytes + cst.SpatialBytes) / pw
	shard := cst.WeightBytes / int64(st.Cell())
	if shard > 0 {
		passes := int64(1)
		if !s.NDP.WeightsFitInBuffer(shard) {
			passes = (rows + int64(s.NDP.SystolicDim) - 1) / int64(s.NDP.SystolicDim)
			if passes < 1 {
				passes = 1
			}
		}
		b += shard * passes
	}
	return b
}

// tileSeconds converts per-worker tile-fabric bytes to time for a D-worker
// cell on the MPT half of the link budget, derated by the mean hop count
// (intermediate hops consume link capacity) plus the diameter's SerDes
// latency.
func (s *System) tileSeconds(bytes int64, cell int) float64 {
	if bytes == 0 || cell <= 1 {
		return 0
	}
	bw := s.LinkBW / 2 // MPT tile share
	hops := meanTileHops(cell)
	cong := s.TileCongestion
	if cong <= 0 {
		cong = 1
	}
	return float64(bytes)*hops*cong/bw + 2*hops*s.SerDesSec
}

// collectiveSeconds models the pipelined ring reduce+broadcast of a
// msg-byte payload over an n-worker ring: bandwidth term 2·msg·(n−1)/n at
// the per-worker ring bandwidth, plus the pipeline fill of 2(n−1) hops of
// one chunk.
func (s *System) collectiveSeconds(msg int64, n int, bw float64) float64 {
	if n <= 1 || msg <= 0 {
		return 0
	}
	bwTerm := 2 * float64(msg) * float64(n-1) / float64(n) / bw
	fill := 2 * float64(n-1) * (s.SerDesSec + float64(s.ChunkBytes)/bw)
	return bwTerm + fill
}

// energyOf charges one phase's energy for the whole p-worker system.
func (s *System) energyOf(ph phase, wallSec float64, c SystemConfig, st comm.Strategy) energy.Breakdown {
	e := s.Energy
	var b energy.Breakdown
	b.Add(e.MACs(ph.macs))
	b.Add(e.MACs(ph.vops)) // transforms are multiply-adds on the vector unit
	dram := ph.dramBytes * int64(s.Workers)
	b.Add(e.DRAM(dram))
	b.Add(e.SRAM(2 * dram)) // every DRAM byte passes through a buffer twice
	b.Add(e.LinkTraffic(ph.netBytes))
	b.Add(e.LinkIdle(s.activeLinks(c, st, ph), wallSec*float64(s.Workers)))
	return b
}

// activeLinks returns the per-worker powered link count for a phase,
// honoring the paper's "unused links are turned-off ... while maintaining
// minimal connectivity to the host".
func (s *System) activeLinks(c SystemConfig, st comm.Strategy, ph phase) int {
	switch {
	case ph.collBytes > 0 && ph.tileCommBytes > 0:
		return 4
	case ph.collBytes > 0:
		if c.isMPT() {
			return 2
		}
		return 4
	case ph.tileCommBytes > 0:
		return 2
	default:
		return 1 // minimal host connectivity
	}
}
