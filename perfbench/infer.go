package main

import (
	"fmt"
	"math"

	"mptwino/internal/conv"
	"mptwino/internal/model"
	"mptwino/internal/mpt"
	"mptwino/internal/sim"
	"mptwino/internal/telemetry"
	"mptwino/internal/tensor"
	"mptwino/internal/winograd"
)

// predictedCfg is the w_mp++ engine configuration the planner plans for:
// activation prediction and zero-skip on.
var predictedCfg = mpt.Config{Predict: true, ZeroSkip: true}

// negShiftSigmas leans every layer's pre-activations negative by this many
// of their standard deviations, as in a trained ReLU net; the Fig. 12
// reproduction (internal/figures/prediction.go) uses the same −0.7σ. With
// unshifted He weights the predictor skips almost nothing and prediction
// is pure overhead.
const negShiftSigmas = 0.7

type inferInputs struct {
	seed    uint64
	params  []conv.Params
	x       *tensor.Tensor
	ws      []*tensor.Tensor // spatial weights per layer
	modelUS float64
}

func inferInputsFor(seed uint64) (inputs, error) {
	in := &inferInputs{seed: seed, params: alexBody()}
	rng := tensor.NewRNG(dataSeed(seed))
	in.x = tensor.New(alexBatch, in.params[0].In, alexHW, alexHW)
	rng.FillUniform(in.x, 0, 1)

	plan := planAlexNet()
	sys := sim.DefaultSystem()
	for i, c := range plan.Choices {
		l := model.AlexNet().Layers[i]
		in.modelUS += sys.SimulateLayerStrategy(l, model.AlexNet().Batch, plan.Config, c.St).ForwardSec * 1e6
	}

	// Draw each layer's weights, then shift their mean so the layer's
	// pre-activations average −0.7σ on the input it actually sees: for
	// non-negative inputs x and He weights of deviation σw over fan-in F,
	// a weight mean μ moves the output by μ·F·E[x] against a spread of
	// σw·√(F·E[x²]).
	net, err := mpt.NewNetConfigs(in.params, plan.EngineConfigs(predictedCfg, alexBatch), tensor.NewRNG(seed))
	if err != nil {
		return nil, err
	}
	cur := in.x
	for i, p := range in.params {
		fanIn := p.In * p.K * p.K
		ws := tensor.New(p.Out, p.In, p.K, p.K)
		rng.FillHe(ws, fanIn)
		var sum, sq float64
		for _, v := range cur.Data {
			sum += float64(v)
			sq += float64(v) * float64(v)
		}
		n := float64(len(cur.Data))
		if sum <= 0 {
			return nil, fmt.Errorf("layer %d input is all zero", i)
		}
		sigmaW := math.Sqrt(2 / float64(fanIn))
		mu := -negShiftSigmas * sigmaW * math.Sqrt(sq/n) / (math.Sqrt(float64(fanIn)) * sum / n)
		for j := range ws.Data {
			ws.Data[j] += float32(mu)
		}
		in.ws = append(in.ws, ws)
		e := net.Engines[i]
		e.SetWeights(winograd.TransformWeights(e.Tr, ws))
		if cur, err = e.FpropReLU(cur); err != nil {
			return nil, err
		}
	}
	return in, nil
}

func (in *inferInputs) build() (instance, error) {
	plan := planAlexNet()
	net, err := mpt.NewNetConfigs(in.params, plan.EngineConfigs(predictedCfg, alexBatch), tensor.NewRNG(in.seed))
	if err != nil {
		return nil, err
	}
	for i, e := range net.Engines {
		e.SetWeights(winograd.TransformWeights(e.Tr, in.ws[i]))
	}
	return &inferInst{in: in, net: net}, nil
}

type inferInst struct {
	in  *inferInputs
	net *mpt.Net
	// Checks: ReLU(Fprop(x)) per layer on the same engines, and the skip
	// counts of the warm-up op.
	ref   []*tensor.Tensor
	skips []int64
	// Per-layer skipped and predicted tiles summed over traced ops.
	tracedSkips, tracedTiles []int64
}

type inferResult struct {
	outs         []*tensor.Tensor
	skips, tiles []int64
	ref          []*tensor.Tensor
	wantSkips    []int64
	modelUS      float64
	bytes        int64
}

func (r *inferResult) check() error {
	for i, y := range r.outs {
		if len(y.Data) != len(r.ref[i].Data) {
			return fmt.Errorf("%s: output has %d values, want %d", alexLayers[i], len(y.Data), len(r.ref[i].Data))
		}
		for j, v := range y.Data {
			if math.Float32bits(v) != math.Float32bits(r.ref[i].Data[j]) {
				return fmt.Errorf("%s: output[%d] = %v, ReLU(Fprop) = %v", alexLayers[i], j, v, r.ref[i].Data[j])
			}
		}
		if r.skips[i] != r.wantSkips[i] {
			return fmt.Errorf("%s: skipped %d tiles, warm-up skipped %d", alexLayers[i], r.skips[i], r.wantSkips[i])
		}
	}
	return nil
}

func (r *inferResult) model() (float64, float64) { return r.modelUS, float64(r.bytes) / 1e6 }

// forward runs FpropReLU through the layers, spanned when tr is set.
func (t *inferInst) forward(tr *tracer) (result, error) {
	n := len(t.net.Engines)
	r := &inferResult{outs: make([]*tensor.Tensor, n), skips: make([]int64, n), tiles: make([]int64, n),
		ref: t.ref, wantSkips: t.skips, modelUS: t.in.modelUS}
	cur := t.in.x
	for i, e := range t.net.Engines {
		before := e.Traffic
		id := tr.begin("mpt.fprop_relu." + alexLayers[i])
		y, err := e.FpropReLU(cur)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		r.outs[i] = y
		r.skips[i] = e.Traffic.SkippedTiles - before.SkippedTiles
		r.tiles[i] = e.Traffic.TotalTiles - before.TotalTiles
		r.bytes += modelBytes(e.Traffic) - modelBytes(before)
		cur = y
	}
	return r, nil
}

func (t *inferInst) op() (result, error) { return t.forward(nil) }

func (t *inferInst) traced(tr *tracer, _ *telemetry.Registry) (result, error) {
	res, err := t.forward(tr)
	if err != nil {
		return nil, err
	}
	r := res.(*inferResult)
	for i := range r.skips {
		t.tracedSkips[i] += r.skips[i]
		t.tracedTiles[i] += r.tiles[i]
	}
	return r, nil
}

func (t *inferInst) calibrate(warm result) error {
	w := warm.(*inferResult)
	t.skips = w.skips
	t.tracedSkips = make([]int64, len(w.skips))
	t.tracedTiles = make([]int64, len(w.skips))
	cur := t.in.x
	t.ref = t.ref[:0]
	for _, e := range t.net.Engines {
		y, err := e.Fprop(cur)
		if err != nil {
			return err
		}
		for j, v := range y.Data {
			if v < 0 {
				y.Data[j] = 0
			}
		}
		t.ref = append(t.ref, y)
		cur = y
	}
	w.ref, w.wantSkips = t.ref, t.skips
	return nil
}

// probe times Engine.Fprop on each layer's input, the pass FpropReLU runs
// before it predicts; the difference is prediction's cost.
func (t *inferInst) probe(tr *tracer) {
	cur := t.in.x
	for i, e := range t.net.Engines {
		id := tr.begin("mpt.fprop." + alexLayers[i])
		_, err := e.Fprop(cur)
		tr.end(id)
		if err != nil {
			return
		}
		cur = t.ref[i]
	}
}

func (t *inferInst) perLayer(tr *tracer, reg *telemetry.Registry, ops int) map[string]float64 {
	s := newSpanStats(tr, ops)
	out := map[string]float64{
		"mpt.alloc_mb.fprop":      s.allocMB(layerNames("mpt.fprop", alexLayers)...),
		"mpt.alloc_mb.fprop_relu": s.allocMB(layerNames("mpt.fprop_relu", alexLayers)...),
		"tensor.gemm_gflop":       gemmGFLOP(reg, ops),
	}
	var skips, tiles int64
	for i, l := range alexLayers {
		relu, fprop := s.ms("mpt.fprop_relu."+l), s.ms("mpt.fprop."+l)
		out["mpt.fprop_relu_ms."+l] = relu
		out["mpt.fprop_ms."+l] = fprop
		out["quant.predict_ms."+l] = relu - fprop
		out["quant.skip_frac."+l] = frac(t.tracedSkips[i], t.tracedTiles[i])
		skips += t.tracedSkips[i]
		tiles += t.tracedTiles[i]
	}
	out["quant.skip_frac"] = frac(skips, tiles)
	return out
}

func frac(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
