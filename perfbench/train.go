package main

import (
	"fmt"
	"math"

	"mptwino/internal/conv"
	"mptwino/internal/model"
	"mptwino/internal/mpt"
	"mptwino/internal/planner"
	"mptwino/internal/sim"
	"mptwino/internal/telemetry"
	"mptwino/internal/tensor"
)

// AlexNet's conv2–conv5 body as the numeric workloads run it: every layer
// at 13×13 so the four chain, channels divided by alexChanDiv, batch
// alexBatch. The sizes make one train step ~0.14 s on a 2-vCPU VM, so a
// 20-s run holds well over a hundred ops.
const (
	alexChanDiv = 8
	alexBatch   = 8
	alexHW      = 13
	trainLR     = 0.0005
	refSteps    = 3 // leading steps checked against the Nc = 1 reference
)

func alexBody() []conv.Params {
	var out []conv.Params
	for _, l := range model.AlexNet().Layers {
		p := l.P
		p.In /= alexChanDiv
		p.Out /= alexChanDiv
		p.H, p.W = alexHW, alexHW
		out = append(out, p)
	}
	return out
}

// planAlexNet is the 256-module plan whose per-layer grids the numeric
// workloads run, the plan internal/planner/testdata/plan_alexnet.tsv pins.
func planAlexNet() planner.Plan {
	return planner.Build(model.AlexNet(), planner.Options{System: sim.DefaultSystem()})
}

// dataSeed derives the stream for inputs and targets from the workload
// seed, kept apart from the stream that draws the weights.
func dataSeed(seed uint64) uint64 { return seed ^ 0x9e3779b97f4a7c15 }

type trainInputs struct {
	seed      uint64
	params    []conv.Params
	x, target *tensor.Tensor
	ref       []float64 // Nc = 1 losses of the first refSteps steps
	modelUS   float64
}

func trainInputsFor(seed uint64) (inputs, error) {
	in := &trainInputs{seed: seed, params: alexBody()}
	rng := tensor.NewRNG(dataSeed(seed))
	first, last := in.params[0], in.params[len(in.params)-1]
	in.x = tensor.New(alexBatch, first.In, alexHW, alexHW)
	in.target = tensor.New(alexBatch, last.Out, alexHW, alexHW)
	rng.FillNormal(in.x, 0, 1)
	rng.FillNormal(in.target, 0, 1)

	// The reference keeps each layer's group count and tile size (the
	// engine steps weights in the Winograd domain, so the trajectory
	// depends on the transform) but runs every layer on one cluster.
	plan := planAlexNet()
	in.modelUS = plan.ExecSec * 1e6
	cfgs := plan.EngineConfigs(mpt.Config{}, alexBatch)
	for i := range cfgs {
		cfgs[i] = mpt.Config{Ng: cfgs[i].Ng, Nc: 1, TileM: cfgs[i].TileM}
	}
	ref, err := mpt.NewNetConfigs(in.params, cfgs, tensor.NewRNG(seed))
	if err != nil {
		return nil, err
	}
	for s := 0; s < refSteps; s++ {
		loss, err := ref.TrainStepMSE(in.x, in.target, trainLR)
		if err != nil {
			return nil, err
		}
		in.ref = append(in.ref, loss)
	}
	return in, nil
}

func (in *trainInputs) build() (instance, error) {
	return in.buildNet()
}

func (in *trainInputs) buildNet() (*trainInst, error) {
	plan := planAlexNet()
	net, err := mpt.NewNetConfigs(in.params, plan.EngineConfigs(mpt.Config{}, alexBatch), tensor.NewRNG(in.seed))
	if err != nil {
		return nil, err
	}
	return &trainInst{in: in, net: net}, nil
}

// checkReplay proves the traced op measures the same program as the
// untraced one: on twin nets built from the same seed, the replay through
// Engine calls and Net.TrainStepMSE produce bit-identical losses.
func (in *trainInputs) checkReplay() error {
	a, err := in.buildNet()
	if err != nil {
		return err
	}
	b, err := in.buildNet()
	if err != nil {
		return err
	}
	for s := 0; s < refSteps; s++ {
		want, err := a.net.TrainStepMSE(in.x, in.target, trainLR)
		if err != nil {
			return err
		}
		got, err := b.replay(nil)
		if err != nil {
			return err
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			return fmt.Errorf("replay step %d: loss %v, TrainStepMSE %v", s, got, want)
		}
	}
	return nil
}

type trainInst struct {
	in    *trainInputs
	net   *mpt.Net
	steps int
}

type trainResult struct {
	loss    float64
	step    int
	ref     []float64
	modelUS float64
	bytes   int64
}

func (r *trainResult) check() error {
	if math.IsNaN(r.loss) || math.IsInf(r.loss, 0) {
		return fmt.Errorf("train step %d: loss %v", r.step, r.loss)
	}
	// TestEngineConsumesPlan's tolerance for a plan-net against Nc = 1.
	if r.step < len(r.ref) && math.Abs(r.loss-r.ref[r.step]) > 1e-3*(1+r.ref[r.step]) {
		return fmt.Errorf("train step %d: loss %v, Nc = 1 reference %v", r.step, r.loss, r.ref[r.step])
	}
	return nil
}

func (r *trainResult) model() (float64, float64) { return r.modelUS, float64(r.bytes) / 1e6 }

func modelBytes(t mpt.Traffic) int64 {
	return t.ScatterBytes + t.GatherBytes + t.PredictBytes + t.CollectiveBytes
}

func (t *trainInst) result(loss float64, before mpt.Traffic) *trainResult {
	r := &trainResult{loss: loss, step: t.steps, ref: t.in.ref, modelUS: t.in.modelUS,
		bytes: modelBytes(t.net.TotalTraffic()) - modelBytes(before)}
	t.steps++
	return r
}

func (t *trainInst) op() (result, error) {
	before := t.net.TotalTraffic()
	loss, err := t.net.TrainStepMSE(t.in.x, t.in.target, trainLR)
	if err != nil {
		return nil, err
	}
	return t.result(loss, before), nil
}

func (t *trainInst) traced(tr *tracer, _ *telemetry.Registry) (result, error) {
	before := t.net.TotalTraffic()
	loss, err := t.replay(tr)
	if err != nil {
		return nil, err
	}
	return t.result(loss, before), nil
}

func (t *trainInst) calibrate(result) error { return nil }

// replay runs Net.TrainStepMSE's step through the engines' public calls,
// in Net.Forward's and Net.Backward's order, with a span around each.
// What runs between the spans (ReLU masks, loss) is the op's self time.
func (t *trainInst) replay(tr *tracer) (float64, error) {
	engines := t.net.Engines
	last := len(engines) - 1
	masks := make([][]bool, last)
	x := t.in.x
	for i, e := range engines {
		id := tr.begin("mpt.fprop." + alexLayers[i])
		y, err := e.Fprop(x)
		tr.end(id)
		if err != nil {
			return 0, err
		}
		if i < last {
			mask := make([]bool, len(y.Data))
			for j, v := range y.Data {
				if v > 0 {
					mask[j] = true
				} else {
					y.Data[j] = 0
				}
			}
			masks[i] = mask
		}
		x = y
	}
	dy := x.Clone()
	dy.AXPY(-1, t.in.target)
	var loss float64
	for _, v := range dy.Data {
		loss += 0.5 * float64(v) * float64(v)
	}
	for i := last; i >= 0; i-- {
		e := engines[i]
		id := tr.begin("mpt.update." + alexLayers[i])
		dw, err := e.UpdateGrad(dy)
		tr.end(id)
		if err != nil {
			return 0, err
		}
		if i > 0 {
			id := tr.begin("mpt.bprop." + alexLayers[i])
			dx, err := e.Bprop(dy)
			tr.end(id)
			if err != nil {
				return 0, err
			}
			for j, live := range masks[i-1] {
				if !live {
					dx.Data[j] = 0
				}
			}
			dy = dx
		}
		id = tr.begin("mpt.sgd." + alexLayers[i])
		e.Step(trainLR, dw)
		tr.end(id)
	}
	return loss, nil
}

func (t *trainInst) perLayer(tr *tracer, reg *telemetry.Registry, ops int) map[string]float64 {
	s := newSpanStats(tr, ops)
	out := map[string]float64{
		"mpt.glue_ms":         s.selfMS("op"),
		"mpt.alloc_mb.fprop":  s.allocMB(layerNames("mpt.fprop", alexLayers)...),
		"mpt.alloc_mb.bprop":  s.allocMB(layerNames("mpt.bprop", alexLayers)...),
		"mpt.alloc_mb.update": s.allocMB(layerNames("mpt.update", alexLayers)...),
		"tensor.gemm_gflop":   gemmGFLOP(reg, ops),
	}
	var sgd float64
	for _, l := range alexLayers {
		out["mpt.fprop_ms."+l] = s.ms("mpt.fprop." + l)
		out["mpt.update_ms."+l] = s.ms("mpt.update." + l)
		sgd += s.ms("mpt.sgd." + l)
	}
	for _, l := range alexLayers[1:] { // the first layer has no input gradient
		out["mpt.bprop_ms."+l] = s.ms("mpt.bprop." + l)
	}
	out["mpt.sgd_ms"] = sgd
	return out
}

// gemmGFLOP is the GEMM work per traced op, from the tensor.gemm_flops
// counter that tensor.Attach feeds while a traced op runs.
func gemmGFLOP(reg *telemetry.Registry, ops int) float64 {
	return float64(reg.Counter("tensor.gemm_flops").Load()) / float64(ops) / 1e9
}
