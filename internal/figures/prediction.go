package figures

import (
	"fmt"
	"strings"

	"mptwino/internal/conv"
	"mptwino/internal/nn"
	"mptwino/internal/quant"
	"mptwino/internal/tensor"
	"mptwino/internal/winograd"
	"mptwino/internal/workload"
)

// predictionWorkload builds a Winograd-domain output Domain from a real
// forward pass over synthetic data shaped like the named dataset, with the
// pre-activation distribution biased negative the way trained CNNs with
// ReLU are (most neurons non-activated).
func predictionWorkload(dataset string, seed uint64) *winograd.Domain {
	var p conv.Params
	var batch int
	switch dataset {
	case "cifar":
		p = conv.Params{In: 8, Out: 16, K: 3, Pad: 1, H: 32, W: 32}
		batch = 8
	default: // imagenet-like
		p = conv.Params{In: 8, Out: 16, K: 3, Pad: 1, H: 56, W: 56}
		batch = 4
	}
	rng := tensor.NewRNG(seed)
	tr := winograd.F2x2_3x3
	tl, err := winograd.NewTiling(tr, p)
	if err != nil {
		panic(err)
	}
	x := workload.GaussianImages(batch, p.In, p.H, p.W, 0, 1, seed+1)
	// ReLU the inputs (outputs of a previous layer are non-negative).
	for i, v := range x.Data {
		if v < 0 {
			x.Data[i] = 0
		}
	}
	w := tensor.New(p.Out, p.In, 3, 3)
	rng.FillHe(w, p.In*9)
	xd := tl.TransformInput(x)
	wd := winograd.TransformWeights(tr, w)
	yd := winograd.MulForward(xd, wd, nil)
	// Shift pre-activations negative: trained CNNs see most neurons
	// non-activated under ReLU; emulate with a −0.7σ output bias lifted
	// exactly into the Winograd domain.
	yd.AddOutputBias(-0.7 * quant.DomainSigma(yd))
	return yd
}

// Fig12 reproduces Figure 12: actual vs predicted non-activated tile and
// line ratios across quantization settings (regions × levels) for the two
// dataset shapes, plus the §V-B traffic-reduction numbers.
func Fig12() Result {
	var b strings.Builder
	metrics := map[string]float64{}
	tr := winograd.F2x2_3x3
	fmt.Fprintf(&b, "%-9s %8s %6s | %9s %9s | %9s %9s | %5s\n",
		"dataset", "regions", "bits", "tile(act)", "tile(pred)", "line(act)", "line(pred)", "falseN")
	for _, dataset := range []string{"cifar", "imagenet"} {
		yd := predictionWorkload(dataset, 1234)
		sigma := quant.DomainSigma(yd)
		for _, regions := range []int{1, 2, 4} {
			for _, bits := range []int{4, 5, 6} {
				if (1<<(bits-1))%regions != 0 {
					continue
				}
				q2 := quant.MustQuantizer(regions, bits, sigma)
				q1 := quant.MustQuantizer(regions, bits, sigma)
				s := quant.MeasureGather(yd, quant.NewPredictor(tr, q2), quant.NewPredictor(tr, q1))
				fmt.Fprintf(&b, "%-9s %8d %6d | %9.3f %9.3f | %9.3f %9.3f | %5d\n",
					dataset, regions, bits,
					s.TrueTileRatio(), s.TileSkipRatio(),
					s.TrueLineRatio(), s.LineSkipRatio(), s.FalseNegatives)
				key := fmt.Sprintf("%s_r%d_b%d", dataset, regions, bits)
				metrics[key+"_tile_pred"] = s.TileSkipRatio()
				metrics[key+"_line_pred"] = s.LineSkipRatio()
				metrics[key+"_false_neg"] = float64(s.FalseNegatives)
			}
		}
		// Headline §V-B settings: 6-bit 4-region for 2-D, 5-bit 4-region
		// for 1-D.
		s := quant.MeasureGather(yd,
			quant.NewPredictor(tr, quant.MustQuantizer(4, 6, sigma)),
			quant.NewPredictor(tr, quant.MustQuantizer(4, 5, sigma)))
		metrics[dataset+"_gather2D"] = s.TileSkipRatio()
		metrics[dataset+"_gather1D"] = s.LineSkipRatio()
	}
	fmt.Fprintf(&b, "paper §V-B: 2D predict (6b) saves 34.0%% of gathering, 1D predict (5b) saves 78.1%%\n")
	return Result{
		ID:      "fig12",
		Title:   "Fig. 12: non-activated tile/line ratios, actual vs predicted, by quantization setting",
		Table:   b.String(),
		Metrics: metrics,
	}
}

// Fig14 reproduces Figure 14: FractalNet's modified join (mean computed in
// the Winograd domain) trains identically to the standard join. Both
// blocks start from the same weights; the loss trajectories must coincide.
func Fig14() Result {
	var b strings.Builder
	metrics := map[string]float64{}
	p := conv.Params{In: 1, Out: 4, K: 3, Pad: 1, H: 8, W: 8}
	ds := workload.QuadrantBlobs(32, 1, 8, 8, 55)

	build := func(mode nn.JoinMode) (*nn.FractalBlock, *nn.Sequential) {
		rng := tensor.NewRNG(77)
		blk, err := nn.NewFractalBlock(winograd.F2x2_3x3, p, mode, rng)
		if err != nil {
			panic(err)
		}
		head := &nn.Sequential{Layers: []nn.Layer{
			&nn.ReLU{}, &nn.AvgPool2{}, nn.NewDense(4*4*4, 4, tensor.NewRNG(88)),
		}}
		return blk, head
	}
	stdBlk, stdHead := build(nn.SpatialJoin)
	modBlk, modHead := build(nn.WinogradJoin)
	modBlk.CloneWeightsFrom(stdBlk)

	x, labels := ds.Batch(0, 32)
	fmt.Fprintf(&b, "%6s %14s %14s %10s\n", "epoch", "standard join", "modified join", "|diff|")
	var maxDiff float64
	var lastStd, lastMod float64
	for epoch := 0; epoch < 15; epoch++ {
		l1 := step(stdBlk, stdHead, x, labels)
		l2 := step(modBlk, modHead, x, labels)
		d := abs(l1 - l2)
		if d > maxDiff {
			maxDiff = d
		}
		lastStd, lastMod = l1, l2
		if epoch%3 == 0 || epoch == 14 {
			fmt.Fprintf(&b, "%6d %14.5f %14.5f %10.2e\n", epoch, l1, l2, d)
		}
	}
	metrics["max_loss_diff"] = maxDiff
	metrics["final_loss_std"] = lastStd
	metrics["final_loss_mod"] = lastMod
	fmt.Fprintf(&b, "max trajectory difference: %.3e (paper: same validation accuracy)\n", maxDiff)
	return Result{
		ID:      "fig14",
		Title:   "Fig. 14: standard vs modified (Winograd-domain) join training curves",
		Table:   b.String(),
		Metrics: metrics,
	}
}

func step(blk *nn.FractalBlock, head *nn.Sequential, x *tensor.Tensor, labels []int) float64 {
	h := blk.Forward(x)
	logits := head.Forward(h)
	loss, dl := nn.SoftmaxCrossEntropy(logits, labels)
	dh := head.Backward(dl)
	blk.Backward(dh)
	head.Step(0.05)
	blk.Step(0.05)
	return loss
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
