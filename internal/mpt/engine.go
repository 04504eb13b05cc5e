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

	"mptwino/internal/comm"
	"mptwino/internal/conv"
	"mptwino/internal/ndp"
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

// Engine is one MPT-organized layer instance.
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

	// Activation prediction state (nil unless Cfg.Predict), built once:
	// FpropReLU recalibrates the quantizer in place and predicts every
	// tile through the one Prediction and tile buffer, allocation-free.
	quantizer *quant.Quantizer
	predictor *quant.Predictor
	pred      *quant.Prediction
	tile      *tensor.Mat

	Traffic Traffic

	// per-cluster forward caches for updateGrad
	lastX []*winograd.Domain

	// sc holds the per-worker tile/packing scratch the Into kernels use;
	// built lazily so engines constructed under one worker setting size
	// their slots for it.
	sc *winograd.Scratch
}

func (e *Engine) scratch() *winograd.Scratch {
	if e.sc == nil {
		e.sc = winograd.NewScratch()
	}
	return e.sc
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
	}
	for g := 0; g < cfg.Ng; g++ {
		e.groupEls = append(e.groupEls, winograd.GroupElements(tr.T, cfg.Ng, g))
	}
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
		e.predictor = quant.NewPredictor(tr, e.quantizer)
		e.pred = quant.NewPrediction(tr)
		e.tile = tensor.NewMat(tr.T, tr.T)
	}
	return e, nil
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

// shard copies images [lo,hi) into a fresh tensor.
func shard(x *tensor.Tensor, lo, hi int) *tensor.Tensor {
	out := tensor.New(hi-lo, x.C, x.H, x.W)
	stride := x.C * x.H * x.W
	copy(out.Data, x.Data[lo*stride:hi*stride])
	return out
}

// countScatter charges tile-scattering traffic for one cluster's Domain:
// each of the Ng workers keeps its own 1/Ng of the rows' elements and
// sends the rest, so (Ng−1)/Ng of the domain crosses the cluster fabric.
// With zero-skipping only non-zero values pay; ScatterRawBytes keeps the
// uncompressed volume so the compression ratio stays observable.
func (e *Engine) countScatter(d *winograd.Domain) {
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
			for _, v := range el.Data {
				if v != 0 {
					values++
				}
			}
		}
	}
	e.Traffic.ScatterBytes += 4 * values * int64(e.Cfg.Ng-1) / int64(e.Cfg.Ng)
	e.Traffic.ScatterRawBytes += 4 * raw * int64(e.Cfg.Ng-1) / int64(e.Cfg.Ng)
}

// countGather charges tile-gathering traffic for one cluster's output
// Domain, honoring prediction skips (the skipped tiles pay only the
// quantized pre-send).
func (e *Engine) countGather(d *winograd.Domain, skipped int64) {
	if e.Cfg.Ng <= 1 {
		return
	}
	t2 := int64(len(d.El))
	tiles := int64(d.Rows()) * int64(d.C)
	frac := int64(e.Cfg.Ng-1) * 4 / int64(e.Cfg.Ng) // bytes per value crossing
	if e.Cfg.Predict {
		bits := int64(e.quantizer.CodeBits())
		e.Traffic.PredictBytes += tiles * t2 * bits / 8 * int64(e.Cfg.Ng-1) / int64(e.Cfg.Ng)
	}
	e.Traffic.GatherBytes += (tiles - skipped) * t2 * frac
}

// fpropDomain runs the distributed forward dot products for one cluster
// shard: every group computes its own elements directly into the cluster's
// union output Domain (the element selection of MulForwardInto keeps each
// group on its own disjoint element set, exactly as Ng separate workers
// writing their own partitions would — no per-group staging copies).
func (e *Engine) fpropDomain(xd *winograd.Domain) *winograd.Domain {
	sc := e.scratch()
	yd := winograd.NewDomain(e.tiling, xd.B, e.W.Out)
	for g := 0; g < e.Cfg.Ng; g++ {
		winograd.MulForwardInto(yd, xd, e.W, e.groupEls[g], sc)
	}
	return yd
}

// Fprop runs the exact distributed forward pass and returns the spatial
// output (no activation), concatenated over cluster shards in batch order.
func (e *Engine) Fprop(x *tensor.Tensor) (*tensor.Tensor, error) {
	bounds, err := e.shardBounds(x.N)
	if err != nil {
		return nil, err
	}
	out := tensor.New(x.N, e.P.Out, e.P.OutH(), e.P.OutW())
	e.lastX = e.lastX[:0]
	for _, b := range bounds {
		xs := shard(x, b[0], b[1])
		xd := e.tiling.TransformInput(xs)
		e.countScatter(xd)
		e.lastX = append(e.lastX, xd)
		yd := e.fpropDomain(xd)
		e.countGather(yd, 0)
		ys := e.tiling.InverseOutput(yd)
		copyShardOut(out, ys, b[0])
	}
	return out, nil
}

// FpropReLU runs the forward pass with ReLU applied, using activation
// prediction (when enabled) to skip gathering tiles that are provably
// all-non-activated. The output is bit-exact with ReLU(Fprop(x)) because
// the predictor never produces false negatives.
func (e *Engine) FpropReLU(x *tensor.Tensor) (*tensor.Tensor, error) {
	bounds, err := e.shardBounds(x.N)
	if err != nil {
		return nil, err
	}
	out := tensor.New(x.N, e.P.Out, e.P.OutH(), e.P.OutW())
	e.lastX = e.lastX[:0]
	for _, b := range bounds {
		xs := shard(x, b[0], b[1])
		xd := e.tiling.TransformInput(xs)
		e.countScatter(xd)
		e.lastX = append(e.lastX, xd)
		yd := e.fpropDomain(xd)

		var skipped int64
		if e.Cfg.Predict {
			skipped = e.predictSkips(yd)
		}
		e.countGather(yd, skipped)

		ys := e.tiling.InverseOutput(yd)
		// ReLU; skipped tiles are provably non-activated so their zeros
		// are already correct (InverseOutput computed them, but a real
		// system would not have gathered them — the traffic counter above
		// reflects that).
		for i, v := range ys.Data {
			if v < 0 {
				ys.Data[i] = 0
			}
		}
		copyShardOut(out, ys, b[0])
	}
	return out, nil
}

// predictSkips counts the tiles of one cluster's output Domain whose
// gathering is skipped, tallying prediction statistics. When each group
// holds whole tile lines, the tighter 1-D predictor runs (source-side
// first inverse stage); a tile is skipped when every line is provably
// non-activated, which is exactly Prediction.NonActivated.
func (e *Engine) predictSkips(yd *winograd.Domain) int64 {
	rows := yd.Rows()
	e.Traffic.TotalTiles += int64(rows) * int64(yd.C)
	// Re-derive Δ in place from the shard's Winograd-domain distribution
	// (the paper profiles per layer and precomputes Δ). A σ that is not
	// finite (NaN or Inf in the input) bounds nothing, so the shard
	// predicts nothing and every tile is gathered.
	if e.quantizer.Calibrate(quant.DomainSigma(yd)) != nil {
		return 0
	}
	oneD := winograd.HoldsWholeLines(e.Tr.T, e.Cfg.Ng)
	var skipped int64
	for r := 0; r < rows; r++ {
		for c := 0; c < yd.C; c++ {
			yd.TileInto(e.tile, r, c)
			if oneD {
				e.predictor.Predict1DInto(e.pred, e.tile)
			} else {
				e.predictor.Predict2DInto(e.pred, e.tile)
			}
			if e.pred.NonActivated() {
				skipped++
			}
		}
	}
	e.Traffic.SkippedTiles += skipped
	return skipped
}

// Bprop runs the distributed backward pass, returning dx. The output
// gradient is scattered (dY elements to groups), each group multiplies by
// its own Wᵀ, and dX is gathered for the inverse transform.
func (e *Engine) Bprop(dy *tensor.Tensor) (*tensor.Tensor, error) {
	bounds, err := e.shardBounds(dy.N)
	if err != nil {
		return nil, err
	}
	dx := tensor.New(dy.N, e.P.In, e.P.H, e.P.W)
	for _, b := range bounds {
		dys := shard(dy, b[0], b[1])
		dyd := e.tiling.TransformOutputGrad(dys)
		e.countScatter(dyd)
		dxd := winograd.NewDomain(e.tiling, dyd.B, e.W.In)
		for g := 0; g < e.Cfg.Ng; g++ {
			winograd.MulBackwardInto(dxd, dyd, e.W, e.groupEls[g], e.scratch())
		}
		e.countGather(dxd, 0)
		dxs := e.tiling.InverseInputGrad(dxd)
		copyShardIn(dx, dxs, b[0])
	}
	return dx, nil
}

func copyShardOut(dst, src *tensor.Tensor, atImage int) {
	stride := dst.C * dst.H * dst.W
	copy(dst.Data[atImage*stride:], src.Data)
}

func copyShardIn(dst, src *tensor.Tensor, atImage int) {
	stride := dst.C * dst.H * dst.W
	copy(dst.Data[atImage*stride:], src.Data)
}

// UpdateGrad computes the Winograd-domain weight gradient distributed
// across the 2-D worker grid: each cluster produces a partial dW for every
// group's elements from its own batch shard; each group then ring-reduces
// its shard across the Nc clusters using chunked, pipelined transfers
// through ndp.ReduceBlock (Fig. 13(c)), and the reduced result is
// broadcast back. Fprop (or FpropReLU) must run first.
func (e *Engine) UpdateGrad(dy *tensor.Tensor) (*winograd.Weights, error) {
	if len(e.lastX) != e.Cfg.Nc {
		return nil, fmt.Errorf("mpt: UpdateGrad before Fprop (have %d cached shards, want %d)",
			len(e.lastX), e.Cfg.Nc)
	}
	bounds, err := e.shardBounds(dy.N)
	if err != nil {
		return nil, err
	}
	// Per-cluster partial gradients.
	partials := make([]*winograd.Weights, e.Cfg.Nc)
	for c, b := range bounds {
		dys := shard(dy, b[0], b[1])
		dyd := e.tiling.TransformOutputGrad(dys)
		dw := winograd.NewWeights(e.Tr, e.P.In, e.P.Out)
		for g := 0; g < e.Cfg.Ng; g++ {
			winograd.MulGradInto(dw, e.lastX[c], dyd, e.groupEls[g], e.scratch())
		}
		partials[c] = dw
	}
	// Ring all-reduce per group over its element shard.
	out := winograd.NewWeights(e.Tr, e.P.In, e.P.Out)
	for g := 0; g < e.Cfg.Ng; g++ {
		if err := e.ringAllReduce(partials, e.groupEls[g], out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ringAllReduce reduces the named elements of the per-cluster partials
// into out using a chunked ring schedule: chunk k starts at cluster k,
// accumulates through Nc−1 hops (each hop an ndp.ReduceBlock accept), and
// is then broadcast Nc−1 hops. Traffic is charged per hop.
func (e *Engine) ringAllReduce(partials []*winograd.Weights, els []int, out *winograd.Weights) error {
	nc := e.Cfg.Nc
	// Flatten the group's shard per cluster.
	flat := make([][]float32, nc)
	var shardLen int
	for c := 0; c < nc; c++ {
		for _, el := range els {
			flat[c] = append(flat[c], partials[c].El[el].Data...)
		}
		shardLen = len(flat[c])
	}
	if nc == 1 {
		e.unflatten(out, els, flat[0])
		return nil
	}
	// Chunk boundaries (Nc near-equal chunks).
	chunkLo := func(k int) int { return k * shardLen / nc }
	chunkHi := func(k int) int { return (k + 1) * shardLen / nc }

	// Reduce-scatter: after step s, cluster (k+s+1) mod nc holds the
	// running sum of chunk k over s+2 contributors.
	reduced := make([][]float32, nc) // chunk k's running value
	for k := 0; k < nc; k++ {
		reduced[k] = append([]float32(nil), flat[k][chunkLo(k):chunkHi(k)]...)
	}
	for s := 0; s < nc-1; s++ {
		for k := 0; k < nc; k++ {
			dst := (k + s + 1) % nc
			rb := ndp.NewReduceBlock(k, 2)
			if _, err := rb.Accept(ndp.Chunk{MsgID: k, Index: s, Data: reduced[k]}); err != nil {
				return err
			}
			local := flat[dst][chunkLo(k):chunkHi(k)]
			sum, err := rb.Accept(ndp.Chunk{MsgID: k, Index: s, Data: local})
			if err != nil {
				return err
			}
			if sum == nil {
				return fmt.Errorf("mpt: reduce block did not release chunk %d at step %d", k, s)
			}
			reduced[k] = sum
			e.Traffic.CollectiveBytes += int64(4 * len(sum))
		}
	}
	// All-gather (broadcast) costs the same traffic again.
	e.Traffic.CollectiveBytes += int64(4*shardLen) * int64(nc-1) / int64(nc) * int64(nc)

	full := make([]float32, shardLen)
	for k := 0; k < nc; k++ {
		copy(full[chunkLo(k):chunkHi(k)], reduced[k])
	}
	e.unflatten(out, els, full)
	return nil
}

func (e *Engine) unflatten(w *winograd.Weights, els []int, flat []float32) {
	pos := 0
	for _, el := range els {
		n := len(w.El[el].Data)
		copy(w.El[el].Data, flat[pos:pos+n])
		pos += n
	}
}

// Step applies the SGD update to the (group-sharded) weights.
func (e *Engine) Step(lr float32, dw *winograd.Weights) {
	e.W.AXPY(-lr, dw)
}

// ResetTraffic clears the counters.
func (e *Engine) ResetTraffic() { e.Traffic = Traffic{} }
