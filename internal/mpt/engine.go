// Package mpt is a functional execution engine for multi-dimensional
// parallel training: it really runs the paper's distributed computation —
// batch shards across Nc clusters, tile elements across Ng groups, tile
// scatter/gather inside clusters, and a chunked ring all-reduce of each
// group's weight-gradient shard across clusters (built on the ndp Reduce
// blocks) — and produces results numerically equal to single-worker
// training. It is the executable specification the timing simulator
// (internal/sim) abstracts, and it measures real traffic byte counts that
// validate the closed-form model in internal/comm.
package mpt

import (
	"fmt"
	"math"

	"mptwino/internal/comm"
	"mptwino/internal/conv"
	"mptwino/internal/ndp"
	"mptwino/internal/parallel"
	"mptwino/internal/quant"
	"mptwino/internal/tensor"
	"mptwino/internal/winograd"
)

// Config selects the worker organization and the Section V optimizations.
type Config struct {
	Ng, Nc int

	// TileM selects the Winograd tile output size m of F(m×m,r×r) when a
	// transform is resolved per layer (NewNetConfigs): 0 keeps the
	// group-count rule of winograd.ForKernel, matching all pre-planner
	// behavior bit-for-bit; an explicit m runs F(m×m) regardless of Ng —
	// the planner's tile-size axis carried into the numeric engine.
	TileM int

	// Predict enables activation prediction during FpropReLU's tile
	// gathering: tiles provably non-activated skip their payload.
	Predict bool
	// PredictRegions/PredictBits configure the non-uniform quantizer
	// (defaults 4 regions, 6 bits when zero).
	PredictRegions, PredictBits int
	// ZeroSkip counts (and skips) exactly-zero values during tile
	// scattering, the §V-B scatter optimization.
	ZeroSkip bool

	// Speeds, when non-empty, holds each cluster's relative effective
	// speed (compute or link scale, whichever binds — see
	// comm.ClusterSpeeds) and switches the batch shard from the equal
	// B/Nc split to largest-remainder apportionment proportional to
	// speed (comm.LoadAwareShards). len(Speeds) must equal Nc. Empty
	// keeps the exact historical equal-split bounds, so homogeneous
	// fleets are bit-identical to pre-profile builds. Identical
	// (grid, Speeds) pairs always produce identical bounds, which is
	// what makes post-rebalance recovery trajectories bit-exact.
	Speeds []float64
}

// Traffic tallies real per-direction bytes moved by the engine, per
// worker-visible transfer (quantized prediction pre-sends included).
type Traffic struct {
	ScatterBytes    int64 // Winograd-domain tiles scattered across groups
	ScatterRawBytes int64 // scatter volume before zero-skip compression
	GatherBytes     int64 // Winograd-domain tiles gathered back
	PredictBytes    int64 // quantized pre-send payloads
	CollectiveBytes int64 // ring all-reduce traffic (all workers, one way)
	SkippedTiles    int64 // tiles whose gather was skipped by prediction
	TotalTiles      int64 // tiles considered for gathering
}

// add accumulates o into t.
func (t *Traffic) add(o Traffic) {
	t.ScatterBytes += o.ScatterBytes
	t.ScatterRawBytes += o.ScatterRawBytes
	t.GatherBytes += o.GatherBytes
	t.PredictBytes += o.PredictBytes
	t.CollectiveBytes += o.CollectiveBytes
	t.SkippedTiles += o.SkippedTiles
	t.TotalTiles += o.TotalTiles
}

// Engine is one MPT-organized layer instance. Every pass fans its Nc
// cluster shards out over the host's pool workers (DESIGN.md §7); an
// Engine is not safe for concurrent use, and neither are the engines of
// one Net, which share a workspace.
type Engine struct {
	Tr  *winograd.Transform
	P   conv.Params
	Cfg Config

	tiling *winograd.Tiling
	// W is the full Winograd-domain weight set; group g only ever touches
	// the element matrices in groupEls[g], preserving the paper's
	// invariant that each weight part stays within its group.
	W        *winograd.Weights
	groupEls [][]int

	// Activation prediction (nil unless Cfg.Predict): the configured
	// quantizer, and one predictor per cluster worker, each calibrating
	// its own quantizer per shard. oneD selects the 1-D predictor.
	quantizer *quant.Quantizer
	preds     []predictor
	oneD      bool

	Traffic Traffic

	ws *workspace // shared with the Net's other engines

	// Pass state, sized by size for sizedBatch images under the grid and
	// speeds recorded beside it: the clusters' shard bounds, their cached
	// forward inputs (for UpdateGrad), tensor views of their shards, and
	// their traffic tallies (folded into Traffic in cluster order).
	sizedBatch  int
	sizedSpeeds []float64
	bounds      [][2]int
	xd          []domainView
	inView      []tensor.Tensor
	outView     []tensor.Tensor
	tally       []Traffic
	// fwdBatch is the batch of the cached forward inputs (0: none).
	fwdBatch int
}

// predictor is one cluster worker's activation-prediction state: its own
// quantizer, and the lane buffers for one output-Domain row of the layer.
type predictor struct {
	q     *quant.Quantizer
	p     *quant.Predictor
	lanes *quant.Lanes
}

// NewEngine builds an MPT engine. Ng must not exceed T².
func NewEngine(tr *winograd.Transform, p conv.Params, cfg Config, rng *tensor.RNG) (*Engine, error) {
	if cfg.Ng < 1 || cfg.Nc < 1 {
		return nil, fmt.Errorf("mpt: Ng=%d Nc=%d must be >= 1", cfg.Ng, cfg.Nc)
	}
	t2 := tr.T * tr.T
	if cfg.Ng > t2 {
		return nil, fmt.Errorf("mpt: %d groups exceed %d tile elements", cfg.Ng, t2)
	}
	if len(cfg.Speeds) > 0 && len(cfg.Speeds) != cfg.Nc {
		return nil, fmt.Errorf("mpt: %d cluster speeds for Nc=%d", len(cfg.Speeds), cfg.Nc)
	}
	tl, err := winograd.NewTiling(tr, p)
	if err != nil {
		return nil, err
	}
	ws := tensor.New(p.Out, p.In, p.K, p.K)
	rng.FillHe(ws, p.In*p.K*p.K)
	e := &Engine{
		Tr:     tr,
		P:      p,
		Cfg:    cfg,
		tiling: tl,
		W:      winograd.TransformWeights(tr, ws),
		ws:     &workspace{},
	}
	e.setGroups(cfg.Ng)
	if cfg.Predict {
		regions, bits := cfg.PredictRegions, cfg.PredictBits
		if regions == 0 {
			regions = 4
		}
		if bits == 0 {
			bits = 6
		}
		// Sigma is calibrated on every use (per-layer profiling in the
		// paper); start with 1 and recalibrate in FpropReLU.
		if e.quantizer, err = quant.NewQuantizer(regions, bits, 1); err != nil {
			return nil, fmt.Errorf("mpt: %w", err)
		}
	}
	return e, nil
}

// setGroups assigns each of ng groups its tile elements.
func (e *Engine) setGroups(ng int) {
	e.groupEls = e.groupEls[:0]
	for g := 0; g < ng; g++ {
		e.groupEls = append(e.groupEls, winograd.GroupElements(e.Tr.T, ng, g))
	}
	e.oneD = winograd.HoldsWholeLines(e.Tr.T, ng)
}

// SetWeights replaces the engine's Winograd-domain weights (e.g. to mirror
// a reference winograd.Layer for equivalence tests).
func (e *Engine) SetWeights(w *winograd.Weights) { e.W = w.Clone() }

// Weights returns the current (full) Winograd-domain weights.
func (e *Engine) Weights() *winograd.Weights { return e.W }

// shardBounds splits the batch into Nc cluster shards: equal B/Nc splits
// when Cfg.Speeds is empty, speed-proportional largest-remainder splits
// otherwise.
func (e *Engine) shardBounds(batch int) ([][2]int, error) {
	return shardBoundsFor(batch, e.Cfg.Nc, e.Cfg.Speeds)
}

// shardBoundsFor computes the [lo,hi) image ranges the Nc clusters own.
// With no speeds it reproduces the historical c*batch/Nc formula exactly
// (bit-compatible with pre-profile builds); with speeds it accumulates
// comm.LoadAwareShards. Both paths are pure functions of (batch, nc,
// speeds), so equal inputs always shard — and therefore accumulate
// floating-point reductions — identically.
func shardBoundsFor(batch, nc int, speeds []float64) ([][2]int, error) {
	if batch < nc {
		return nil, fmt.Errorf("mpt: batch %d smaller than Nc=%d", batch, nc)
	}
	out := make([][2]int, nc)
	if len(speeds) > 0 {
		if len(speeds) != nc {
			return nil, fmt.Errorf("mpt: %d cluster speeds for Nc=%d", len(speeds), nc)
		}
		lo := 0
		for c, share := range comm.LoadAwareShards(batch, speeds) {
			out[c] = [2]int{lo, lo + share}
			lo += share
		}
		return out, nil
	}
	for c := 0; c < nc; c++ {
		out[c] = [2]int{c * batch / nc, (c + 1) * batch / nc}
	}
	return out, nil
}

// sized reports whether the pass state fits batch under the current grid
// and speed profile.
func (e *Engine) sized(batch int) bool {
	if batch != e.sizedBatch || len(e.bounds) != e.Cfg.Nc || len(e.sizedSpeeds) != len(e.Cfg.Speeds) {
		return false
	}
	for i, s := range e.Cfg.Speeds {
		if e.sizedSpeeds[i] != s {
			return false
		}
	}
	return true
}

// size readies the pass state for batch images: the shard bounds, the
// per-cluster views and forward caches, one predictor per cluster worker
// and the workspace's reservations. It allocates only when the batch, grid
// or speed profile differs from the last sizing, and drops the cached
// forward inputs then.
func (e *Engine) size(batch int) error {
	if e.sized(batch) {
		return nil
	}
	bounds, err := e.shardBounds(batch)
	if err != nil {
		return err
	}
	nc := len(bounds)
	e.bounds = bounds
	e.sizedBatch = batch
	e.sizedSpeeds = append(e.sizedSpeeds[:0], e.Cfg.Speeds...)
	e.fwdBatch = 0
	e.inView = make([]tensor.Tensor, nc)
	e.outView = make([]tensor.Tensor, nc)
	e.tally = make([]Traffic, nc)
	e.xd = make([]domainView, nc)
	t2, maxShard := e.Tr.T*e.Tr.T, 0
	for c, b := range bounds {
		e.xd[c].reserve(t2, (b[1]-b[0])*e.tiling.Tiles()*e.P.In)
		maxShard = max(maxShard, b[1]-b[0])
	}
	e.ws.reserve(e, maxShard)
	if e.quantizer != nil {
		for len(e.preds) < e.ws.clusterWorkers(nc) {
			q := *e.quantizer
			e.preds = append(e.preds, predictor{q: &q, p: quant.NewPredictor(e.Tr, &q),
				lanes: quant.NewLanes(e.Tr, e.P.Out)})
		}
	}
	return nil
}

// fitsInput reports whether x's images match the layer's input.
func (e *Engine) fitsInput(x *tensor.Tensor) bool {
	return x.C == e.P.In && x.H == e.P.H && x.W == e.P.W
}

// checkInput rejects a forward input that does not match the layer.
func (e *Engine) checkInput(x *tensor.Tensor) error {
	if !e.fitsInput(x) {
		return fmt.Errorf("mpt: input %s does not match layer input %dx%dx%d",
			x.ShapeString(), e.P.In, e.P.H, e.P.W)
	}
	return nil
}

// checkGrad rejects an output gradient that does not match the layer.
func (e *Engine) checkGrad(dy *tensor.Tensor) error {
	if dy.C != e.P.Out || dy.H != e.P.OutH() || dy.W != e.P.OutW() {
		return fmt.Errorf("mpt: output gradient %s does not match layer output %dx%dx%d",
			dy.ShapeString(), e.P.Out, e.P.OutH(), e.P.OutW())
	}
	return nil
}

// countScatter charges tile-scattering traffic for one cluster's Domain:
// each of the Ng workers keeps its own 1/Ng of the rows' elements and
// sends the rest, so (Ng−1)/Ng of the domain crosses the cluster fabric.
// With zero-skipping only non-zero values pay; ScatterRawBytes keeps the
// uncompressed volume so the compression ratio stays observable.
func (e *Engine) countScatter(t *Traffic, d *winograd.Domain) {
	if e.Cfg.Ng <= 1 {
		return
	}
	var raw int64
	for _, el := range d.El {
		raw += int64(len(el.Data))
	}
	values := raw
	if e.Cfg.ZeroSkip {
		values = 0
		for _, el := range d.El {
			values += nonZero(el.Data)
		}
	}
	t.ScatterBytes += 4 * values * int64(e.Cfg.Ng-1) / int64(e.Cfg.Ng)
	t.ScatterRawBytes += 4 * raw * int64(e.Cfg.Ng-1) / int64(e.Cfg.Ng)
}

// nonZero counts the values of vs that are not ±0 (NaN included), as
// v != 0 does, in integer arithmetic with no data-dependent branch:
// x = |bits| is 0 only for ±0, and x + 0x7fffffff carries into bit 31 for
// every other x.
func nonZero(vs []float32) int64 {
	var n int64
	for _, v := range vs {
		n += int64((math.Float32bits(v)&0x7fffffff + 0x7fffffff) >> 31)
	}
	return n
}

// countGather charges tile-gathering traffic for one cluster's output
// Domain, honoring prediction skips (the skipped tiles pay only the
// quantized pre-send).
func (e *Engine) countGather(t *Traffic, d *winograd.Domain, skipped int64) {
	if e.Cfg.Ng <= 1 {
		return
	}
	t2 := int64(len(d.El))
	tiles := int64(d.Rows()) * int64(d.C)
	frac := int64(e.Cfg.Ng-1) * 4 / int64(e.Cfg.Ng) // bytes per value crossing
	if e.Cfg.Predict {
		bits := int64(e.quantizer.CodeBits())
		t.PredictBytes += tiles * t2 * bits / 8 * int64(e.Cfg.Ng-1) / int64(e.Cfg.Ng)
	}
	t.GatherBytes += (tiles - skipped) * t2 * frac
}

// fold adds the clusters' traffic tallies to Traffic in cluster order and
// clears them for the next pass.
func (e *Engine) fold() {
	for c := range e.tally {
		e.Traffic.add(e.tally[c])
		e.tally[c] = Traffic{}
	}
}

// Fprop runs the exact distributed forward pass and returns the spatial
// output (no activation), concatenated over cluster shards in batch order.
func (e *Engine) Fprop(x *tensor.Tensor) (*tensor.Tensor, error) {
	return e.forward(x, false)
}

// FpropReLU runs the forward pass with ReLU applied, using activation
// prediction (when enabled) to skip gathering tiles that are provably
// all-non-activated. The output is bit-exact with ReLU(Fprop(x)) because
// the predictor never produces false negatives.
func (e *Engine) FpropReLU(x *tensor.Tensor) (*tensor.Tensor, error) {
	return e.forward(x, true)
}

func (e *Engine) forward(x *tensor.Tensor, relu bool) (*tensor.Tensor, error) {
	if err := e.checkInput(x); err != nil {
		return nil, err
	}
	if err := e.size(x.N); err != nil {
		return nil, err
	}
	y := tensor.New(x.N, e.P.Out, e.P.OutH(), e.P.OutW())
	e.fpropInto(y, x, relu)
	return y, nil
}

// fpropInto runs the forward pass into y (ReLU'd and predicted when relu
// is set) and caches every cluster's Winograd-domain input for
// updateGradInto. The pass state must be sized for x.N.
func (e *Engine) fpropInto(y, x *tensor.Tensor, relu bool) {
	if parts := e.ws.split(len(e.bounds)); len(parts) == 1 {
		for c := range e.bounds {
			e.fpropCluster(parts[0], 0, c, y, x, relu)
		}
	} else {
		parallel.ForEachWorker(len(parts), len(e.bounds), func(w, c int) {
			e.fpropCluster(parts[w], w, c, y, x, relu)
		})
	}
	e.fold()
	e.fwdBatch = x.N
}

// fpropCluster runs cluster c's shard on pool worker w: the input
// transform into the cluster's cached Domain, every group's element GEMMs
// into the worker's staging Domain (each group on its own disjoint
// elements, exactly as Ng separate workers writing their own partitions
// would), prediction, and the inverse transform straight into the shard's
// rows of y.
func (e *Engine) fpropCluster(sc *winograd.Scratch, w, c int, y, x *tensor.Tensor, relu bool) {
	lo, hi := e.bounds[c][0], e.bounds[c][1]
	t := &e.tally[c]
	xd := e.xd[c].fit(e.tiling, hi-lo, e.P.In)
	e.tiling.TransformInputInto(xd, shardView(&e.inView[c], x, lo, hi), sc)
	e.countScatter(t, xd)
	yd := e.ws.stage[w].a.fit(e.tiling, hi-lo, e.P.Out)
	for _, els := range e.groupEls {
		winograd.MulForwardInto(yd, xd, e.W, els, sc)
	}
	var skipped int64
	if relu && e.Cfg.Predict {
		skipped = e.predictSkips(t, &e.preds[w], yd)
	}
	e.countGather(t, yd, skipped)
	ys := shardView(&e.outView[c], y, lo, hi)
	e.tiling.InverseOutputInto(ys, yd, sc)
	if relu {
		// Skipped tiles are provably non-activated, so their zeros are
		// already correct (the inverse transform computed them, but a real
		// system would not have gathered them — the traffic counters above
		// reflect that).
		for i, v := range ys.Data {
			if v < 0 {
				ys.Data[i] = 0
			}
		}
	}
}

// predictSkips counts the tiles of one cluster's output Domain whose
// gathering is skipped, tallying prediction statistics. It predicts a
// Domain row at a time, its channels' tiles as lanes. When each group
// holds whole tile lines, the tighter 1-D predictor runs (source-side
// first inverse stage); a tile is skipped when every line is provably
// non-activated, which is exactly what Lanes.CountNonActivated counts.
func (e *Engine) predictSkips(t *Traffic, ps *predictor, yd *winograd.Domain) int64 {
	rows := yd.Rows()
	t.TotalTiles += int64(rows) * int64(yd.C)
	// Re-derive Δ in place from the shard's Winograd-domain distribution
	// (the paper profiles per layer and precomputes Δ). A σ that is not
	// finite (NaN or Inf in the input), or whose Δ underflows to 0 or
	// overflows to +Inf, bounds nothing, so the shard predicts nothing and
	// every tile is gathered.
	if ps.q.Calibrate(quant.DomainSigma(yd)) != nil {
		return 0
	}
	var skipped int64
	for r := 0; r < rows; r++ {
		if e.oneD {
			ps.p.Predict1DRowInto(ps.lanes, yd, r)
		} else {
			ps.p.Predict2DRowInto(ps.lanes, yd, r)
		}
		skipped += int64(ps.lanes.CountNonActivated())
	}
	t.SkippedTiles += skipped
	return skipped
}

// Bprop runs the distributed backward pass, returning dx. The output
// gradient is scattered (dY elements to groups), each group multiplies by
// its own Wᵀ, and dX is gathered for the inverse transform.
func (e *Engine) Bprop(dy *tensor.Tensor) (*tensor.Tensor, error) {
	if err := e.checkGrad(dy); err != nil {
		return nil, err
	}
	if err := e.size(dy.N); err != nil {
		return nil, err
	}
	dx := tensor.New(dy.N, e.P.In, e.P.H, e.P.W)
	e.bpropInto(dx, dy)
	return dx, nil
}

// bpropInto runs the backward pass into dx; the pass state must be sized
// for dy.N.
func (e *Engine) bpropInto(dx, dy *tensor.Tensor) {
	if parts := e.ws.split(len(e.bounds)); len(parts) == 1 {
		for c := range e.bounds {
			e.bpropCluster(parts[0], 0, c, dx, dy)
		}
	} else {
		parallel.ForEachWorker(len(parts), len(e.bounds), func(w, c int) {
			e.bpropCluster(parts[w], w, c, dx, dy)
		})
	}
	e.fold()
}

func (e *Engine) bpropCluster(sc *winograd.Scratch, w, c int, dx, dy *tensor.Tensor) {
	lo, hi := e.bounds[c][0], e.bounds[c][1]
	t := &e.tally[c]
	st := &e.ws.stage[w]
	dyd := st.a.fit(e.tiling, hi-lo, e.P.Out)
	e.tiling.TransformOutputGradInto(dyd, shardView(&e.outView[c], dy, lo, hi), sc)
	e.countScatter(t, dyd)
	dxd := st.b.fit(e.tiling, hi-lo, e.P.In)
	for _, els := range e.groupEls {
		winograd.MulBackwardInto(dxd, dyd, e.W, els, sc)
	}
	e.countGather(t, dxd, 0)
	e.tiling.InverseInputGradInto(shardView(&e.inView[c], dx, lo, hi), dxd, sc)
}

// UpdateGrad computes the Winograd-domain weight gradient distributed
// across the 2-D worker grid: each cluster produces a partial dW for every
// group's elements from its own batch shard; each group then ring-reduces
// its shard across the Nc clusters using chunked, pipelined transfers
// through ndp.ReduceBlock (Fig. 13(c)), and the reduced result is
// broadcast back. Fprop (or FpropReLU) must run first, on the same batch
// and grid.
func (e *Engine) UpdateGrad(dy *tensor.Tensor) (*winograd.Weights, error) {
	if err := e.checkGrad(dy); err != nil {
		return nil, err
	}
	if e.fwdBatch == 0 || !e.sized(e.fwdBatch) {
		return nil, fmt.Errorf("mpt: UpdateGrad before Fprop (no forward input cached for Nc=%d)", e.Cfg.Nc)
	}
	if dy.N != e.fwdBatch {
		return nil, fmt.Errorf("mpt: UpdateGrad batch %d does not match the cached forward batch %d", dy.N, e.fwdBatch)
	}
	e.ws.reserveUpdate(e)
	dw := winograd.NewWeights(e.Tr, e.P.In, e.P.Out)
	e.updateGradInto(dw, dy)
	return dw, nil
}

// updateGradInto writes the reduced weight gradient into dw. Each
// cluster's partials land straight in its region of the workspace's ring
// buffers (reserveUpdate must have sized them), which the per-group
// all-reduce then combines in ring order.
func (e *Engine) updateGradInto(dw *winograd.Weights, dy *tensor.Tensor) {
	if parts := e.ws.split(len(e.bounds)); len(parts) == 1 {
		for c := range e.bounds {
			e.updateCluster(parts[0], 0, c, dy)
		}
	} else {
		parallel.ForEachWorker(len(parts), len(e.bounds), func(w, c int) {
			e.updateCluster(parts[w], w, c, dy)
		})
	}
	for _, els := range e.groupEls {
		e.ringAllReduce(els, dw)
	}
}

// partialLen is the length of one cluster's partial dW in the ring
// buffers: the full T²·In·Out weight set, element-major, so a group's
// contiguous element run is one contiguous region.
func (e *Engine) partialLen() int { return len(e.W.El) * e.P.In * e.P.Out }

func (e *Engine) updateCluster(sc *winograd.Scratch, w, c int, dy *tensor.Tensor) {
	lo, hi := e.bounds[c][0], e.bounds[c][1]
	dyd := e.ws.stage[w].a.fit(e.tiling, hi-lo, e.P.Out)
	e.tiling.TransformOutputGradInto(dyd, shardView(&e.outView[c], dy, lo, hi), sc)
	n := e.partialLen()
	pw := e.ws.partials[c].fit(e.Tr, e.P.In, e.P.Out, e.ws.ring[c*n:(c+1)*n])
	for _, els := range e.groupEls {
		winograd.MulGradInto(pw, &e.xd[c].d, dyd, els, sc)
	}
}

// ringAllReduce reduces the clusters' partials of one group's elements
// into dw using a chunked ring schedule: chunk k starts at cluster k and
// accumulates through Nc−1 hops (each hop an ndp.ReduceBlock accept),
// then is broadcast Nc−1 hops. Traffic is charged per hop. The running
// sum of chunk k stays in cluster k's ring region: each hop hands it back
// to the reduce block, which adds the next cluster's contribution in
// place — the same additions, in the same order, as a fresh buffer per
// hop.
func (e *Engine) ringAllReduce(els []int, dw *winograd.Weights) {
	nc, n := len(e.bounds), e.partialLen()
	elLen := e.P.In * e.P.Out
	off := els[0] * elLen        // the group's region in every partial
	shardLen := len(els) * elLen // its length
	region := e.ws.ring[:nc*n]
	if nc == 1 {
		putFlat(dw, off, region[off:off+shardLen])
		return
	}
	rb := e.ws.rb
	for s := 0; s < nc-1; s++ {
		for k := 0; k < nc; k++ {
			// After step s, cluster (k+s+1) mod nc holds the running sum
			// of chunk k over s+2 contributors.
			dst := (k + s + 1) % nc
			lo, hi := off+k*shardLen/nc, off+(k+1)*shardLen/nc
			run := region[k*n+lo : k*n+hi]
			rb.Reset(k)
			rb.Recycle(run)
			if _, err := rb.Accept(ndp.Chunk{MsgID: k, Index: s, Data: run}); err != nil {
				panic(err)
			}
			sum, err := rb.Accept(ndp.Chunk{MsgID: k, Index: s, Data: region[dst*n+lo : dst*n+hi]})
			if err != nil || sum == nil {
				panic(fmt.Sprintf("mpt: reduce block did not release chunk %d at step %d: %v", k, s, err))
			}
			e.Traffic.CollectiveBytes += int64(4 * len(sum))
		}
	}
	// All-gather (broadcast) costs the same traffic again.
	e.Traffic.CollectiveBytes += int64(4*shardLen) * int64(nc-1) / int64(nc) * int64(nc)
	for k := 0; k < nc; k++ {
		lo, hi := off+k*shardLen/nc, off+(k+1)*shardLen/nc
		putFlat(dw, lo, region[k*n+lo:k*n+hi])
	}
}

// putFlat copies src into w's element matrices read as one element-major
// flat buffer, starting at flat offset off.
func putFlat(w *winograd.Weights, off int, src []float32) {
	n := w.In * w.Out
	for len(src) > 0 {
		k := copy(w.El[off/n].Data[off%n:], src)
		src, off = src[k:], off+k
	}
}

// Step applies the SGD update to the (group-sharded) weights.
func (e *Engine) Step(lr float32, dw *winograd.Weights) {
	e.W.AXPY(-lr, dw)
}

// ResetTraffic clears the counters.
func (e *Engine) ResetTraffic() { e.Traffic = Traffic{} }
