package quant

import (
	"math"
	"testing"
	"testing/quick"

	"math/rand"

	"mptwino/internal/conv"
	"mptwino/internal/tensor"
	"mptwino/internal/winograd"
)

func TestNewQuantizerValidation(t *testing.T) {
	if _, err := NewQuantizer(0, 6, 1); err == nil {
		t.Fatal("regions=0 accepted")
	}
	if _, err := NewQuantizer(4, 1, 1); err == nil {
		t.Fatal("bits=1 accepted")
	}
	if _, err := NewQuantizer(4, 6, 0); err == nil {
		t.Fatal("sigma=0 accepted")
	}
	if _, err := NewQuantizer(3, 6, 1); err == nil {
		t.Fatal("32 levels / 3 regions accepted (not divisible)")
	}
	// Grids whose top point S·(2^R − 1) passes 2^24 base steps. At R ≥ 64
	// the old (1<<R)−1 wrapped to −1: (64, 8) gave Δ = −2 and (1024, 16)
	// Δ = −0.125, and both broke the one-sided error bound.
	for _, c := range [][2]int{{64, 8}, {1024, 16}, {32, 6}, {16, 14}} {
		if q, err := NewQuantizer(c[0], c[1], 1); err == nil {
			t.Fatalf("regions=%d bits=%d accepted (Δ = %v)", c[0], c[1], q.Delta)
		}
	}
	// σ values that are positive and finite but whose base step Δ is not:
	// Δ = 4σ/(S·(2^R − 1)) rounds to +Inf on the (1,2) grid at σ = 3e38, to
	// 0 on the default grid below σ ≈ 2e-44, and to 0 on the widest grid
	// at σ = 1e-39. Calibrate rejects them too, leaving the quantizer as it
	// was.
	for _, c := range []struct {
		regions, bits int
		sigma         float32
	}{{1, 2, 3e38}, {4, 6, 1e-44}, {4, 6, math.SmallestNonzeroFloat32}, {16, 13, 1e-39}} {
		if q, err := NewQuantizer(c.regions, c.bits, c.sigma); err == nil {
			t.Fatalf("regions=%d bits=%d sigma=%v accepted (Δ = %v)", c.regions, c.bits, c.sigma, q.Delta)
		}
		q := MustQuantizer(c.regions, c.bits, 1)
		before := *q
		if err := q.Calibrate(c.sigma); err == nil || *q != before {
			t.Fatalf("Calibrate(%v) on grid (%d,%d): error %v, quantizer %+v -> %+v",
				c.sigma, c.regions, c.bits, err, before, *q)
		}
	}
	for _, sigma := range []float32{1e-40, 3e37} {
		if q, err := NewQuantizer(4, 6, sigma); err != nil || !(q.Delta > 0) || math.IsInf(float64(q.Delta), 1) {
			t.Fatalf("sigma %v: Δ %v, error %v", sigma, q.Delta, err)
		}
	}
	q, err := NewQuantizer(4, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	if q.StepsPerRegion != 8 {
		t.Fatalf("StepsPerRegion = %d, want 8", q.StepsPerRegion)
	}
	// The widest accepted grid: 256 steps × (2^16 − 1) = 2^24 − 256.
	if _, err := NewQuantizer(16, 13, 1); err != nil {
		t.Fatalf("regions=16 bits=13 rejected: %v", err)
	}
}

// TestQuantizeOneSidedOnWidestGrid checks 0 ≤ v − q ≤ res on the widest
// grid NewQuantizer accepts (16 regions of 256 steps) at every grid point
// of every region and at both float32 neighbours of each, for both signs.
// Quantize floors v/Δ after a rounded division, so a value one ulp below
// a grid point can land on it, at this grid as at the default one; the
// check allows that one ulp of v and nothing more.
func TestQuantizeOneSidedOnWidestGrid(t *testing.T) {
	for _, sigma := range []float32{1, 0.37, 3e-5, 7.3, 1e30} {
		q := MustQuantizer(16, 13, sigma)
		if !(q.Delta > 0) {
			t.Fatalf("sigma %v: Δ = %v", sigma, q.Delta)
		}
		top := q.StepsPerRegion * (1<<q.Regions - 1)
		check := func(v float32) {
			qv, res, ov := q.Quantize(v)
			if ov {
				return
			}
			abs := float32(math.Abs(float64(v)))
			ulp := float64(math.Nextafter32(abs, float32(math.Inf(1)))) - float64(abs)
			if e := float64(v) - float64(qv); e < -ulp || e > float64(res)+ulp {
				t.Fatalf("sigma %v: Quantize(%v) = %v, res %v: v − q = %v", sigma, v, qv, res, e)
			}
		}
		for r := 0; r < q.Regions; r++ {
			step, low := 1<<r, (1<<r-1)*q.StepsPerRegion
			for i := 0; i <= q.StepsPerRegion; i++ {
				for _, g := range []int{low + i*step - 1, low + i*step, low + i*step + 1} {
					if g < 0 || g > top {
						continue
					}
					gp := q.Delta * float32(g)
					for _, v := range []float32{math.Nextafter32(gp, 0), gp, math.Nextafter32(gp, float32(math.Inf(1)))} {
						check(v)
						check(-v)
					}
				}
			}
		}
	}
}

func TestHalfRangeCoversRangeSigmas(t *testing.T) {
	q := MustQuantizer(4, 6, 2.0)
	want := 4.0 * 2.0 // RangeSigmas × sigma
	if got := float64(q.HalfRange()); math.Abs(got-want) > 1e-4 {
		t.Fatalf("HalfRange = %v, want %v", got, want)
	}
}

// Property: quantization floors toward −∞ with one-sided error 0 ≤ v−q ≤ res.
func TestQuantizeOneSidedError(t *testing.T) {
	q := MustQuantizer(4, 6, 1.0)
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		for i := 0; i < 50; i++ {
			v := float32(r.NormFloat64() * 1.2)
			qv, res, ov := q.Quantize(v)
			if ov {
				continue // overflow handled separately
			}
			e := v - qv
			if e < 0 || e > res {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantizeStepDoubling(t *testing.T) {
	q := MustQuantizer(4, 6, 1.0)
	// A value in the first region gets resolution Δ; deep values double.
	_, r0, _ := q.Quantize(q.Delta / 2)
	if r0 != q.Delta {
		t.Fatalf("region-0 resolution = %v, want Δ=%v", r0, q.Delta)
	}
	// value in region 1: between S·Δ and 3S·Δ
	v1 := q.Delta * float32(q.StepsPerRegion) * 1.5
	_, r1, _ := q.Quantize(v1)
	if r1 != 2*q.Delta {
		t.Fatalf("region-1 resolution = %v, want 2Δ", r1)
	}
	// deepest region
	v3 := q.HalfRange() * 0.99
	_, r3, _ := q.Quantize(v3)
	if r3 != 8*q.Delta {
		t.Fatalf("region-3 resolution = %v, want 8Δ", r3)
	}
}

func TestQuantizeOverflow(t *testing.T) {
	q := MustQuantizer(4, 6, 1.0)
	_, _, ov := q.Quantize(q.HalfRange() * 1.5)
	if !ov {
		t.Fatal("overflow not flagged")
	}
	_, _, ov = q.Quantize(-q.HalfRange() * 1.5)
	if !ov {
		t.Fatal("negative overflow not flagged")
	}
	_, _, ov = q.Quantize(q.HalfRange() * 0.5)
	if ov {
		t.Fatal("in-range value flagged as overflow")
	}
}

func TestQuantizeZeroAndSymmetry(t *testing.T) {
	q := MustQuantizer(2, 5, 1.0)
	qv, res, ov := q.Quantize(0)
	if qv != 0 || ov {
		t.Fatalf("Quantize(0) = %v, overflow %v", qv, ov)
	}
	if res != q.Delta {
		t.Fatalf("Quantize(0) res = %v, want Δ", res)
	}
	// Negative values floor downward: q ≤ v.
	for _, v := range []float32{-0.01, -0.5, -1.3, -2.0} {
		qv, res, _ := q.Quantize(v)
		if qv > v {
			t.Fatalf("Quantize(%v) = %v > v", v, qv)
		}
		if v-qv > res {
			t.Fatalf("Quantize(%v): error %v exceeds res %v", v, v-qv, res)
		}
	}
}

func TestQuantizeSliceLengthMismatchPanics(t *testing.T) {
	q := MustQuantizer(4, 6, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	q.QuantizeSlice(make([]float32, 3), make([]float32, 2), make([]float32, 3))
}

func TestEstimateSigma(t *testing.T) {
	r := tensor.NewRNG(3)
	vals := make([]float32, 50000)
	for i := range vals {
		vals[i] = float32(r.NormFloat64() * 2.5)
	}
	got := EstimateSigma(vals)
	if math.Abs(float64(got)-2.5) > 0.05 {
		t.Fatalf("EstimateSigma = %v, want ~2.5", got)
	}
	if EstimateSigma(nil) != 1 {
		t.Fatal("EstimateSigma(nil) should default to 1")
	}
}

// randomTile draws a Winograd-domain output tile with the Gaussian
// statistics the paper observed, biased negative so a useful fraction of
// tiles is fully non-activated.
func randomTile(tr *winograd.Transform, r *tensor.RNG, bias float32) *tensor.Mat {
	// Build it as the transform of a spatial pre-activation patch so the
	// tile is realizable (lives in the range of the transform).
	m := tensor.NewMat(tr.T, tr.T)
	for i := range m.Data {
		m.Data[i] = float32(r.NormFloat64()) + bias
	}
	return tr.InputToWinograd(m) // any full-rank lift works for testing
}

// TestNoFalseNegatives is the paper's correctness guarantee: a neuron (or
// tile, or line) predicted non-activated must truly be non-activated, for
// both 1-D and 2-D prediction, across quantizer settings.
func TestNoFalseNegatives(t *testing.T) {
	tr := winograd.F2x2_3x3
	r := tensor.NewRNG(71)
	// Calibrate sigma from a sample of tiles.
	var sample []float32
	for i := 0; i < 50; i++ {
		sample = append(sample, randomTile(tr, r, -0.5).Data...)
	}
	sigma := EstimateSigma(sample)

	for _, cfg := range []struct{ regions, bits int }{
		{1, 4}, {2, 5}, {4, 6}, {2, 4}, {4, 8}, {1, 6},
	} {
		q := MustQuantizer(cfg.regions, cfg.bits, sigma)
		p := NewPredictor(tr, q)
		for trial := 0; trial < 300; trial++ {
			tile := randomTile(tr, r, -0.5)
			p2 := p.Predict2D(tile)
			if p2.NonActivated() && !TrueNonActivated(tr, tile) {
				t.Fatalf("regions=%d bits=%d: 2D false negative", cfg.regions, cfg.bits)
			}
			p1 := p.Predict1D(tile)
			pr := p1.NonActivatedRows()
			truth := TrueNonActivatedRows(tr, tile)
			for i := range pr {
				if pr[i] && !truth[i] {
					t.Fatalf("regions=%d bits=%d: 1D false negative row %d", cfg.regions, cfg.bits, i)
				}
			}
		}
	}
}

// realOutputTile runs an actual Winograd forward pass with constant input
// +1 and constant weight wv, and returns the Winograd-domain output tile at
// tile index (0,0). All spatial outputs then have sign(wv)·(taps) values,
// making the tile provably activated (wv>0) or non-activated (wv<0).
func realOutputTile(tr *winograd.Transform, wv float32) *tensor.Mat {
	p := conv.Params{In: 1, Out: 1, K: tr.R, Pad: conv.SamePad(tr.R), H: 8, W: 8}
	tl, err := winograd.NewTiling(tr, p)
	if err != nil {
		panic(err)
	}
	x := tensor.New(1, 1, p.H, p.W)
	for i := range x.Data {
		x.Data[i] = 1
	}
	w := tensor.New(1, 1, tr.R, tr.R)
	for i := range w.Data {
		w.Data[i] = wv
	}
	xd := tl.TransformInput(x)
	wd := winograd.TransformWeights(tr, w)
	yd := winograd.MulForward(xd, wd, nil)
	tile := tensor.NewMat(tr.T, tr.T)
	for e := range yd.El {
		tile.Data[e] = yd.El[e].At(0, 0)
	}
	return tile
}

// TestPredictionCatchesObviousCases: strongly negative output tiles must be
// predicted non-activated (the prediction is useful, not just safe), and
// strongly positive tiles must not be.
func TestPredictionUseful(t *testing.T) {
	tr := winograd.F2x2_3x3

	negTile := realOutputTile(tr, -1)
	if !TrueNonActivated(tr, negTile) {
		t.Fatal("test setup: negative tile is not truly non-activated")
	}
	pNeg := NewPredictor(tr, MustQuantizer(4, 6, EstimateSigma(negTile.Data)))
	if !pNeg.Predict2D(negTile).NonActivated() {
		t.Fatal("strongly negative tile not predicted non-activated (2D)")
	}
	if rows := pNeg.Predict1D(negTile).NonActivatedRows(); !rows[0] || !rows[1] {
		t.Fatal("strongly negative tile not predicted non-activated (1D)")
	}

	posTile := realOutputTile(tr, 1)
	pPos := NewPredictor(tr, MustQuantizer(4, 6, EstimateSigma(posTile.Data)))
	if pPos.Predict2D(posTile).NonActivated() {
		t.Fatal("strongly positive tile predicted non-activated")
	}
}

// Test1DTighterThan2D: with equal settings, 1-D prediction must catch at
// least as many non-activated lines as 2-D catches tiles, because its error
// bound skips one accumulation stage (Section V-B's headline result).
func Test1DTighterThan2D(t *testing.T) {
	tr := winograd.F2x2_3x3
	r := tensor.NewRNG(79)
	var sample []float32
	for i := 0; i < 50; i++ {
		sample = append(sample, randomTile(tr, r, -0.8).Data...)
	}
	sigma := EstimateSigma(sample)
	q := MustQuantizer(4, 5, sigma)
	p := NewPredictor(tr, q)

	var pred1Err, pred2Err float64
	const trials = 200
	for i := 0; i < trials; i++ {
		tile := randomTile(tr, r, -0.8)
		e2 := p.Predict2D(tile).MaxErr
		e1 := p.Predict1D(tile).MaxErr
		for j := range e1.Data {
			pred1Err += float64(e1.Data[j])
			pred2Err += float64(e2.Data[j])
		}
	}
	if pred1Err >= pred2Err {
		t.Fatalf("1D mean error bound %v not tighter than 2D %v", pred1Err, pred2Err)
	}
}

func TestPredictionOverflowIsConservative(t *testing.T) {
	tr := winograd.F2x2_3x3
	q := MustQuantizer(4, 6, 0.001) // tiny range: everything overflows
	p := NewPredictor(tr, q)
	tile := tensor.NewMat(tr.T, tr.T)
	for i := range tile.Data {
		tile.Data[i] = -100 // truly non-activated but unrepresentable
	}
	pr := p.Predict2D(tile)
	if !pr.Overflow {
		t.Fatal("overflow not detected")
	}
	if pr.NonActivated() {
		t.Fatal("overflowed tile must be treated as activated")
	}
	for _, row := range pr.NonActivatedRows() {
		if row {
			t.Fatal("overflowed rows must be treated as activated")
		}
	}
}

// TestMeasureGatherOnRealLayer runs the full measurement pipeline on a
// real Winograd forward pass with negative-biased pre-activations and
// checks the Fig. 12 structure: pred ≤ true, no false negatives, and a
// non-trivial skip ratio.
func TestMeasureGatherOnRealLayer(t *testing.T) {
	tr := winograd.F2x2_3x3
	p := conv.Params{In: 4, Out: 8, K: 3, Pad: 1, H: 12, W: 12}
	r := tensor.NewRNG(83)
	tl, err := winograd.NewTiling(tr, p)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(4, p.In, p.H, p.W)
	w := tensor.New(p.Out, p.In, 3, 3)
	r.FillNormal(x, -0.2, 1) // bias toward non-activation
	r.FillHe(w, p.In*9)
	xd := tl.TransformInput(x)
	wd := winograd.TransformWeights(tr, w)
	yd := winograd.MulForward(xd, wd, nil)

	sigma := DomainSigma(yd)
	p2 := NewPredictor(tr, MustQuantizer(4, 6, sigma))
	p1 := NewPredictor(tr, MustQuantizer(4, 5, sigma))

	s := MeasureGather(yd, p2, p1)
	if s.FalseNegatives != 0 {
		t.Fatalf("%d false negatives", s.FalseNegatives)
	}
	if s.PredNonActTiles > s.TrueNonActTiles {
		t.Fatal("2D prediction exceeds oracle")
	}
	if s.PredNonActLines > s.TrueNonActLines {
		t.Fatal("1D prediction exceeds oracle")
	}
	if s.Tiles == 0 || s.Lines != s.Tiles*tr.M {
		t.Fatalf("tile/line accounting wrong: %d tiles, %d lines", s.Tiles, s.Lines)
	}
	if s.TrueNonActTiles > 0 && s.PredNonActTiles == 0 {
		t.Log("warning: 2D prediction caught nothing; acceptable but weak")
	}
}

func TestScatterZeroRatio(t *testing.T) {
	tr := winograd.F2x2_3x3
	p := conv.Params{In: 2, Out: 2, K: 3, Pad: 1, H: 8, W: 8}
	tl, _ := winograd.NewTiling(tr, p)
	x := tensor.New(1, 2, 8, 8) // all zero input
	xd := tl.TransformInput(x)
	if r := ScatterZeroRatio(xd); r != 1 {
		t.Fatalf("all-zero input: ratio %v, want 1", r)
	}
	rng := tensor.NewRNG(5)
	rng.FillNormal(x, 1, 0.1) // strictly positive, dense input
	xd = tl.TransformInput(x)
	ratio := ScatterZeroRatio(xd)
	// Some elements are exactly zero only by cancellation; ratio must be
	// small but the function must not report 1.
	if ratio > 0.5 {
		t.Fatalf("dense input: ratio %v unexpectedly high", ratio)
	}
}

func TestGatherTrafficReduction(t *testing.T) {
	// 50% skip with 6-bit codes: 0.5 − 6/32 = 0.3125
	if got := GatherTrafficReduction(0.5, 6); math.Abs(got-0.3125) > 1e-12 {
		t.Fatalf("reduction = %v", got)
	}
	// overhead exceeding savings clamps to 0
	if got := GatherTrafficReduction(0.1, 6); got != 0 {
		t.Fatalf("reduction = %v, want 0", got)
	}
}

// Property: Encode/Decode round-trips Quantize exactly for in-range values.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	q := MustQuantizer(4, 6, 1.0)
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		for i := 0; i < 40; i++ {
			v := float32(r.NormFloat64() * 1.5)
			qv, res, ov := q.Quantize(v)
			if ov {
				continue
			}
			dq, dres := q.Decode(q.Encode(v))
			if math.Abs(float64(dq-qv)) > 1e-6 || math.Abs(float64(dres-res)) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeFitsCodeWidth(t *testing.T) {
	for _, cfg := range []struct{ regions, bits int }{{4, 6}, {2, 5}, {1, 4}} {
		q := MustQuantizer(cfg.regions, cfg.bits, 1.0)
		r := tensor.NewRNG(5)
		for i := 0; i < 500; i++ {
			v := float32(r.NormFloat64() * 10) // includes overflow values
			code := q.Encode(v)
			if code >= 1<<cfg.bits {
				t.Fatalf("code %d exceeds %d bits", code, cfg.bits)
			}
		}
	}
}

func TestDecodeSignHandling(t *testing.T) {
	q := MustQuantizer(4, 6, 1.0)
	qv, _, _ := q.Quantize(float32(-0.37))
	dq, _ := q.Decode(q.Encode(-0.37))
	if dq != qv {
		t.Fatalf("negative decode %v != quantize %v", dq, qv)
	}
	if dq >= 0 {
		t.Fatal("negative value decoded non-negative")
	}
}
