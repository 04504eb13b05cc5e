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

// predictRegions and predictBits are the activation-prediction
// quantizer's grid: the paper's 2-D headline setting (§V-B).
const predictRegions, predictBits = 4, 6

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

// Engine is one MPT-organized layer instance. Every pass runs as one
// phased fan-out over the host's pool workers (DESIGN.md §7): per-cluster
// transforms, one product per tile element over every cluster's rows, and
// per-cluster gathers. An Engine is not safe for concurrent use, and
// neither are the engines of one Net, which share a workspace.
type Engine struct {
	Tr  *winograd.Transform
	P   conv.Params
	Cfg Config

	tiling *winograd.Tiling
	// W is the full Winograd-domain weight set; group g only ever touches
	// the element matrices in groupEls[g], preserving the paper's
	// invariant that each weight part stays within its group. elems lists
	// every tile element, so elems[el:el+1] selects element el alone.
	W        *winograd.Weights
	groupEls [][]int
	elems    []int

	// Activation prediction (nil unless Cfg.Predict): the quantizer, and
	// one predictor per cluster worker, each calibrating its own quantizer
	// per shard. oneD selects the 1-D predictor.
	quantizer *quant.Quantizer
	preds     []predictor
	oneD      bool

	Traffic Traffic

	ws *workspace // shared with the Net's other engines

	// Pass state, sized by size for sizedBatch images under the grid and
	// speeds recorded beside it: the clusters' shard bounds, the cached
	// whole-batch forward input (for the weight gradient) with its
	// per-cluster row views, tensor views of the clusters' shards, and
	// their traffic tallies (folded into Traffic in cluster order).
	sizedBatch  int
	sizedSpeeds []float64
	bounds      [][2]int
	xd          batchDomain
	inView      []tensor.Tensor
	outView     []tensor.Tensor
	tally       []Traffic
	// fwdBatch is the batch of the cached forward input (0: none).
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
	if len(cfg.Speeds) > 0 {
		if err := checkSpeeds(cfg.Nc, cfg.Speeds); err != nil {
			return nil, err
		}
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
		elems:  winograd.GroupElements(tr.T, 1, 0),
		ws:     &workspace{},
	}
	e.setGroups(cfg.Ng)
	if cfg.Predict {
		// Sigma is calibrated on every use (per-layer profiling in the
		// paper); start with 1 and recalibrate in FpropReLU.
		e.quantizer = quant.MustQuantizer(predictRegions, predictBits, 1)
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
		if err := checkSpeeds(nc, speeds); err != nil {
			return nil, err
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

// checkSpeeds rejects a speed profile that does not give each of nc
// clusters one finite speed. A NaN or infinite speed has no share to
// apportion.
func checkSpeeds(nc int, speeds []float64) error {
	if len(speeds) != nc {
		return fmt.Errorf("mpt: %d cluster speeds for Nc=%d", len(speeds), nc)
	}
	for c, s := range speeds {
		if math.IsNaN(s) || math.IsInf(s, 0) {
			return fmt.Errorf("mpt: cluster %d speed %v is not finite", c, s)
		}
	}
	return nil
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
// per-cluster views and forward cache, one predictor per cluster worker
// and the workspace's reservations. It allocates only when the batch, grid
// or speed profile differs from the last sizing, and drops the cached
// forward input then.
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
	t2 := e.Tr.T * e.Tr.T
	e.xd.reserve(t2, batch*e.tiling.Tiles()*e.P.In, nc)
	e.ws.reserve(e, batch)
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
// is set) and caches the Winograd-domain input for backwardInto. The pass
// state must be sized for x.N. Its three phases run in one fan-out:
// scatterInput per cluster, productForward per tile element, gatherOutput
// per cluster. With one pool worker they run as plain loops, which create
// no closure (winograd/scratch.go).
func (e *Engine) fpropInto(y, x *tensor.Tensor, relu bool) {
	e.xd.fit(e.tiling, e.bounds, e.P.In)
	e.ws.out.fit(e.tiling, e.bounds, e.P.Out)
	n := [3]int{len(e.bounds), len(e.elems), len(e.bounds)}
	if e.ws.workers == 1 {
		for phase, k := range n {
			for i := 0; i < k; i++ {
				e.forwardItem(phase, 0, i, y, x, relu)
			}
		}
	} else {
		parallel.ForEachPhase(e.ws.workers, n[:], func(phase, w, i int) {
			e.forwardItem(phase, w, i, y, x, relu)
		})
	}
	e.fold()
	e.fwdBatch = x.N
}

// forwardItem runs item i of the forward pass's phase on pool worker w.
func (e *Engine) forwardItem(phase, w, i int, y, x *tensor.Tensor, relu bool) {
	switch phase {
	case 0:
		e.scatterInput(w, i, x)
	case 1:
		e.productForward(w, i)
	default:
		e.gatherOutput(w, i, y, relu)
	}
}

// scatterInput runs cluster c's input transform on pool worker w, into
// the cluster's rows of the cached whole-batch Domain, and charges its
// scatter.
func (e *Engine) scatterInput(w, c int, x *tensor.Tensor) {
	lo, hi := e.bounds[c][0], e.bounds[c][1]
	xd := e.xd.cluster(c)
	e.tiling.TransformInputInto(xd, shardView(&e.inView[c], x, lo, hi), e.ws.clusterPart(len(e.bounds), w, c))
	e.countScatter(&e.tally[c], xd)
}

// productForward runs tile element el's product on pool worker w: Y = X·W
// over every cluster's rows at once, the owning group's GEMM for all Nc
// clusters. Each output row keeps its own ascending-k chain, so the result
// is the clusters' own products stacked by rows.
func (e *Engine) productForward(w, el int) {
	winograd.MulForwardInto(e.ws.out.all(), e.xd.all(), e.W, e.elems[el:el+1],
		e.ws.elementPart(len(e.bounds), len(e.elems), w))
}

// gatherOutput finishes cluster c's shard on pool worker w: prediction,
// the gather charge, and the inverse transform straight into the shard's
// rows of y, ReLU'd when relu is set.
func (e *Engine) gatherOutput(w, c int, y *tensor.Tensor, relu bool) {
	lo, hi := e.bounds[c][0], e.bounds[c][1]
	t := &e.tally[c]
	yd := e.ws.out.cluster(c)
	var skipped int64
	if relu && e.Cfg.Predict {
		skipped = e.predictSkips(t, &e.preds[e.ws.clusterSlot(len(e.bounds), w, c)], yd)
	}
	e.countGather(t, yd, skipped)
	ys := shardView(&e.outView[c], y, lo, hi)
	e.tiling.InverseOutputInto(ys, yd, e.ws.clusterPart(len(e.bounds), w, c))
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
	e.ws.reserveBprop(e)
	dx := tensor.New(dy.N, e.P.In, e.P.H, e.P.W)
	e.backwardInto(nil, dx, dy)
	return dx, nil
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
	e.backwardInto(dw, nil, dy)
	return dw, nil
}

// backwardInto runs the backward pass from dy: the reduced weight gradient
// into dw and the input gradient into dx, either of which may be nil
// (UpdateGrad computes dw, Bprop dx, Net.backward both). The halves share
// one dY transform per cluster and one phased fan-out:
//   - scatterGrad per cluster: the dY transform, the scatter charge (only
//     when dx is computed) and, for dw, the cluster's partial dW straight
//     into its region of the ring buffers;
//   - for dx, productBackward per tile element and gatherGrad per cluster.
//
// The per-group ring all-reduce then combines the partials in ring order,
// after the fan-out. The pass state must be sized for dy.N, the forward
// input cached for dw (reserveUpdate) and the dX staging reserved for dx
// (reserveBprop).
func (e *Engine) backwardInto(dw *winograd.Weights, dx, dy *tensor.Tensor) {
	e.ws.out.fit(e.tiling, e.bounds, e.P.Out)
	n, phases := [3]int{len(e.bounds), len(e.elems), len(e.bounds)}, 1
	if dx != nil {
		e.ws.dx.fit(e.tiling, e.bounds, e.P.In)
		phases = 3
	}
	if e.ws.workers == 1 {
		for phase, k := range n[:phases] {
			for i := 0; i < k; i++ {
				e.backwardItem(phase, 0, i, dw, dx, dy)
			}
		}
	} else {
		parallel.ForEachPhase(e.ws.workers, n[:phases], func(phase, w, i int) {
			e.backwardItem(phase, w, i, dw, dx, dy)
		})
	}
	if dw != nil {
		for _, els := range e.groupEls {
			e.ringAllReduce(els, dw)
		}
	}
	e.fold()
}

// backwardItem runs item i of the backward pass's phase on pool worker w.
func (e *Engine) backwardItem(phase, w, i int, dw *winograd.Weights, dx, dy *tensor.Tensor) {
	switch phase {
	case 0:
		e.scatterGrad(w, i, dw, dx, dy)
	case 1:
		e.productBackward(w, i)
	default:
		e.gatherGrad(w, i, dx)
	}
}

// scatterGrad runs cluster c's dY transform on pool worker w, into the
// cluster's rows of the whole-batch staging. With dx set it charges the
// scatter; with dw set it multiplies the cluster's cached input by its dY
// into the cluster's partial dW, group by group.
func (e *Engine) scatterGrad(w, c int, dw *winograd.Weights, dx, dy *tensor.Tensor) {
	lo, hi := e.bounds[c][0], e.bounds[c][1]
	sc := e.ws.clusterPart(len(e.bounds), w, c)
	dyd := e.ws.out.cluster(c)
	e.tiling.TransformOutputGradInto(dyd, shardView(&e.outView[c], dy, lo, hi), sc)
	if dx != nil {
		e.countScatter(&e.tally[c], dyd)
	}
	if dw != nil {
		n := e.partialLen()
		pw := e.ws.partials[c].fit(e.Tr, e.P.In, e.P.Out, e.ws.ring[c*n:(c+1)*n])
		for _, els := range e.groupEls {
			winograd.MulGradInto(pw, e.xd.cluster(c), dyd, els, sc)
		}
	}
}

// productBackward runs tile element el's product on pool worker w:
// dX = dY·Wᵀ over every cluster's rows at once, stacked as in
// productForward.
func (e *Engine) productBackward(w, el int) {
	winograd.MulBackwardInto(e.ws.dx.all(), e.ws.out.all(), e.W, e.elems[el:el+1],
		e.ws.elementPart(len(e.bounds), len(e.elems), w))
}

// gatherGrad charges cluster c's dX gather and runs its inverse transform
// on pool worker w, into the shard's images of dx.
func (e *Engine) gatherGrad(w, c int, dx *tensor.Tensor) {
	lo, hi := e.bounds[c][0], e.bounds[c][1]
	dxd := e.ws.dx.cluster(c)
	e.countGather(&e.tally[c], dxd, 0)
	e.tiling.InverseInputGradInto(shardView(&e.inView[c], dx, lo, hi), dxd, e.ws.clusterPart(len(e.bounds), w, c))
}

// partialLen is the length of one cluster's partial dW in the ring
// buffers: the full T²·In·Out weight set, element-major, so a group's
// contiguous element run is one contiguous region.
func (e *Engine) partialLen() int { return len(e.W.El) * e.P.In * e.P.Out }

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
