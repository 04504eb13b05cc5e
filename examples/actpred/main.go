// Actpred demonstrates Section V end to end: a real Winograd-domain
// forward pass is quantized with the non-uniform quantizer, activation of
// spatial neurons is predicted conservatively at the destination, and the
// saved tile-gathering traffic is measured — with a proof run showing zero
// false negatives (no accuracy loss).
package main

import (
	"fmt"

	"mptwino/internal/conv"
	"mptwino/internal/ndp"
	"mptwino/internal/quant"
	"mptwino/internal/tensor"
	"mptwino/internal/winograd"
)

func main() {
	tr := winograd.F2x2_3x3
	p := conv.Params{In: 8, Out: 16, K: 3, Pad: 1, H: 32, W: 32}
	rng := tensor.NewRNG(7)

	// Forward pass: ReLU-sparse inputs through a He-initialized layer.
	tl, err := winograd.NewTiling(tr, p)
	if err != nil {
		panic(err)
	}
	x := tensor.New(8, p.In, p.H, p.W)
	rng.FillNormal(x, -0.3, 1)
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

	// Calibrate the quantizer to the observed Winograd-domain sigma (the
	// paper: "values of Winograd domain tiles follow normal distribution").
	sigma := quant.DomainSigma(yd)
	fmt.Printf("Winograd-domain sigma = %.3f\n", sigma)

	// Trained ReLU networks keep most neurons non-activated; emulate that
	// operating point with a −0.7σ pre-activation bias lifted exactly into
	// the Winograd domain.
	yd.AddOutputBias(-0.7 * sigma)

	q := quant.MustQuantizer(4, 6, sigma)
	fmt.Printf("quantizer: %d regions, %d-bit codes, base step %.4f, range ±%.2f\n",
		q.Regions, q.Bits, q.Delta, q.HalfRange())

	// One tile in detail.
	tile := tensor.NewMat(tr.T, tr.T)
	yd.TileInto(tile, 0, 0)
	pred := quant.NewPredictor(tr, q)
	pr := pred.Predict2D(tile)
	fmt.Printf("example tile: estimate[0,0]=%.3f maxErr[0,0]=%.3f -> non-activated: %v (truth: %v)\n",
		pr.Est.At(0, 0), pr.MaxErr.At(0, 0), pr.NonActivated(), quant.TrueNonActivated(tr, tile))

	// Whole-layer measurement: Fig. 12 quantities.
	p1 := quant.NewPredictor(tr, quant.MustQuantizer(4, 5, sigma))
	stats := quant.MeasureGather(yd, pred, p1)
	fmt.Printf("\ntiles: %d  truly non-activated: %.1f%%  2D-predicted: %.1f%%  (false negatives: %d)\n",
		stats.Tiles, 100*stats.TrueTileRatio(), 100*stats.TileSkipRatio(), stats.FalseNegatives)
	fmt.Printf("lines: %d  truly non-activated: %.1f%%  1D-predicted: %.1f%%\n",
		stats.Lines, 100*stats.TrueLineRatio(), 100*stats.LineSkipRatio())
	fmt.Printf("net gather traffic reduction: 2D %.1f%%, 1D %.1f%% (paper: 34.0%% / 78.1%%)\n",
		100*quant.GatherTrafficReduction(stats.TileSkipRatio(), 6),
		100*quant.GatherTrafficReduction(stats.LineSkipRatio(), 5))

	// Zero-skipping on the scatter side.
	fmt.Printf("input-tile zero ratio (zero-skipping potential): %.1f%% (paper: 39.3%% 2D / 64.7%% 1D)\n",
		100*quant.ScatterZeroRatio(xd))

	// The packing DMA (Fig. 13(b)): pack one worker's tile stream under an
	// activation map built from the predictions.
	unit := tr.T * tr.T
	nTiles := 64
	m := ndp.NewActivationMap(nTiles)
	data := make([]float32, nTiles*unit)
	for ti := 0; ti < nTiles; ti++ {
		yd.TileInto(tile, ti, 0)
		copy(data[ti*unit:], tile.Data)
		pred.Predict2DInto(pr, tile)
		if pr.NonActivated() {
			m.Kill(ti)
		}
	}
	dma := ndp.PackingDMA{UnitLen: unit}
	packed := dma.Pack(data, m)
	fmt.Printf("\npacking DMA: %d of %d tiles live -> payload %d of %d values (%.1f%% saved)\n",
		m.LiveCount(), nTiles, len(packed), len(data),
		100*(1-float64(len(packed))/float64(len(data))))
}
