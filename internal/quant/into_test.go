package quant

import (
	"math"
	"math/rand"
	"testing"

	"mptwino/internal/conv"
	"mptwino/internal/tensor"
	"mptwino/internal/winograd"
)

// The MatMul formulation of prediction, kept as the reference the
// schedule-driven Into forms must reproduce bit for bit. It runs on the
// naive reference loops rather than through the GEMM dispatch, like the
// fused transforms' reference (winograd's sandwichRef).
func matMulRef(a, b *tensor.Mat) *tensor.Mat {
	out := tensor.NewMat(a.Rows, b.Cols)
	tensor.MatMulNaiveInto(out, a, b)
	return out
}

// refPredict2D: Z = Q·A, P = R·A⁺, N = R·A⁻, then Est = Aᵀ·Z and
// MaxErr = Aᵀ⁺·P + Aᵀ⁻·N.
func refPredict2D(p *Predictor, y *tensor.Mat) (est, maxErr *tensor.Mat, overflow bool) {
	tr := p.Tr
	qv, res := tensor.NewMat(tr.T, tr.T), tensor.NewMat(tr.T, tr.T)
	overflow = p.Q.QuantizeSlice(y.Data, qv.Data, res.Data)
	aPos, aNeg := winograd.PNSplit(tr.A)
	atPos, atNeg := winograd.PNSplit(tr.AT)
	est = matMulRef(tr.AT, matMulRef(qv, tr.A))
	maxErr = matMulRef(atPos, matMulRef(res, aPos))
	neg := matMulRef(atNeg, matMulRef(res, aNeg))
	for i := range maxErr.Data {
		maxErr.Data[i] += neg.Data[i]
	}
	return est, maxErr, overflow
}

// refPredict1D: Z = y·A exactly, quantized, then Est = Aᵀ·Q(Z) and
// MaxErr = Aᵀ⁺·R(Z).
func refPredict1D(p *Predictor, y *tensor.Mat) (est, maxErr *tensor.Mat, overflow bool) {
	tr := p.Tr
	z := matMulRef(y, tr.A)
	qz, rz := tensor.NewMat(z.Rows, z.Cols), tensor.NewMat(z.Rows, z.Cols)
	overflow = p.Q.QuantizeSlice(z.Data, qz.Data, rz.Data)
	atPos, _ := winograd.PNSplit(tr.AT)
	return matMulRef(tr.AT, qz), matMulRef(atPos, rz), overflow
}

// checkBitIdentical runs both Into forms on y (into pr, reused) and fails
// unless Est, MaxErr and Overflow equal the reference chain's bit for bit.
func checkBitIdentical(t *testing.T, p *Predictor, pr *Prediction, y *tensor.Mat) {
	t.Helper()
	for _, c := range []struct {
		name string
		into func(*Prediction, *tensor.Mat)
		ref  func(*Predictor, *tensor.Mat) (*tensor.Mat, *tensor.Mat, bool)
	}{
		{"Predict2DInto", p.Predict2DInto, refPredict2D},
		{"Predict1DInto", p.Predict1DInto, refPredict1D},
	} {
		c.into(pr, y)
		est, maxErr, overflow := c.ref(p, y)
		if pr.Overflow != overflow {
			t.Fatalf("%s %s: Overflow %v, reference %v (tile %v)", p.Tr, c.name, pr.Overflow, overflow, y.Data)
		}
		for i := range est.Data {
			if math.Float32bits(pr.Est.Data[i]) != math.Float32bits(est.Data[i]) ||
				math.Float32bits(pr.MaxErr.Data[i]) != math.Float32bits(maxErr.Data[i]) {
				t.Fatalf("%s %s: neuron %d Est/MaxErr %v/%v, reference %v/%v (tile %v)", p.Tr, c.name, i,
					pr.Est.Data[i], pr.MaxErr.Data[i], est.Data[i], maxErr.Data[i], y.Data)
			}
		}
	}
}

// TestPredictIntoBitIdentical: the schedule-driven Into forms reproduce
// the MatMul chain's Est/MaxErr bits and Overflow flag for every tile size
// the engine predicts on — plus F(6×6,5×5), whose T = 10 is past every
// size the engine uses — over tiles
// holding exact zeros (padding) and elements past the quantizer range,
// into one reused Prediction.
func TestPredictIntoBitIdentical(t *testing.T) {
	wide, err := winograd.MakeTransform(6, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range []*winograd.Transform{winograd.F2x2_3x3, winograd.F4x4_3x3, winograd.F6x6_3x3, wide} {
		rng := rand.New(rand.NewSource(int64(tr.T)))
		p := NewPredictor(tr, MustQuantizer(4, 6, 1))
		pr := NewPrediction(tr)
		y := tensor.NewMat(tr.T, tr.T)
		for trial := 0; trial < 500; trial++ {
			for i := range y.Data {
				switch u := rng.Float64(); {
				case u < 0.25:
					y.Data[i] = 0
				case u < 0.3:
					y.Data[i] = float32(rng.NormFloat64() * 100) // far past 4σ
				default:
					y.Data[i] = float32(rng.NormFloat64())
				}
			}
			checkBitIdentical(t, p, pr, y)
		}
	}
}

func TestPredictIntoShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a Prediction sized for T=4 accepted a T=6 predictor")
		}
	}()
	p := NewPredictor(winograd.F4x4_3x3, MustQuantizer(4, 6, 1))
	p.Predict2DInto(NewPrediction(winograd.F2x2_3x3), tensor.NewMat(6, 6))
}

// TestNonFiniteSigmaRejected: σ = NaN or ±Inf cannot calibrate a
// quantizer. With σ = +Inf, Δ was +Inf, the activated ramp tile 0…15
// predicted NaN estimates with no overflow, and a ">= 0" test read the NaN
// tile as non-activated — a false negative.
func TestNonFiniteSigmaRejected(t *testing.T) {
	for _, sigma := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
		if _, err := NewQuantizer(4, 6, sigma); err == nil {
			t.Fatalf("NewQuantizer accepted sigma %v", sigma)
		}
		q := MustQuantizer(4, 6, 2)
		before := *q
		if err := q.Calibrate(sigma); err == nil {
			t.Fatalf("Calibrate accepted sigma %v", sigma)
		}
		if *q != before {
			t.Fatalf("failed Calibrate(%v) changed the quantizer: %+v -> %+v", sigma, before, *q)
		}
	}
}

// Calibrate re-derives Δ with NewQuantizer's formula: recalibrating in
// place gives the bits of a fresh quantizer.
func TestCalibrateMatchesNewQuantizer(t *testing.T) {
	q := MustQuantizer(4, 5, 1)
	for _, sigma := range []float32{0.37, 1e-12, 3, 1e30} {
		if err := q.Calibrate(sigma); err != nil {
			t.Fatal(err)
		}
		if fresh := MustQuantizer(4, 5, sigma); *q != *fresh {
			t.Fatalf("Calibrate(%v) gives %+v, NewQuantizer %+v", sigma, *q, *fresh)
		}
	}
}

// TestNaNBoundReadsActivated forces the pre-fix state — Δ = +Inf — and
// checks the "< 0" rule: NaN estimates never make a tile or row read as
// non-activated.
func TestNaNBoundReadsActivated(t *testing.T) {
	tr := winograd.F2x2_3x3
	q := MustQuantizer(4, 6, 1)
	q.Delta = float32(math.Inf(1))
	p := NewPredictor(tr, q)
	ramp := tensor.NewMat(tr.T, tr.T)
	for i := range ramp.Data {
		ramp.Data[i] = float32(i)
	}
	if TrueNonActivated(tr, ramp) {
		t.Fatal("test setup: the ramp tile should be activated")
	}
	for name, pr := range map[string]*Prediction{"2D": p.Predict2D(ramp), "1D": p.Predict1D(ramp)} {
		if pr.NonActivated() {
			t.Fatalf("%s: NaN-bounded tile predicted non-activated (Est %v, MaxErr %v, Overflow %v)",
				name, pr.Est.Data, pr.MaxErr.Data, pr.Overflow)
		}
		for r, dead := range pr.NonActivatedRows() {
			if dead {
				t.Fatalf("%s: NaN-bounded row %d predicted non-activated", name, r)
			}
		}
	}
}

// A NaN value has no grid point below it: it must quantize as overflow on
// every platform, not through the platform-defined int conversion.
func TestQuantizeNaNOverflows(t *testing.T) {
	q := MustQuantizer(4, 6, 1)
	for _, v := range []float32{float32(math.NaN()), -float32(math.NaN())} {
		if _, _, ov := q.Quantize(v); !ov {
			t.Fatalf("Quantize(%v) did not overflow", v)
		}
	}
}

// DomainSigma streams EstimateSigma over a Domain's element slices with
// the same bits as over their concatenation.
func TestDomainSigmaMatchesConcatenation(t *testing.T) {
	yd := randomDomain(t, winograd.F4x4_3x3, 3)
	var all []float32
	for _, el := range yd.El {
		all = append(all, el.Data...)
	}
	if got, want := DomainSigma(yd), EstimateSigma(all); math.Float32bits(got) != math.Float32bits(want) {
		t.Fatalf("DomainSigma %v, EstimateSigma of the concatenation %v", got, want)
	}
	if n := testing.AllocsPerRun(10, func() { DomainSigma(yd) }); n != 0 {
		t.Fatalf("DomainSigma allocates %v/op", n)
	}
}

// randomDomain is a Winograd-domain output Domain with Gaussian elements.
func randomDomain(t *testing.T, tr *winograd.Transform, seed uint64) *winograd.Domain {
	t.Helper()
	tl, err := winograd.NewTiling(tr, conv.Params{In: 1, Out: 4, K: 3, Pad: 1, H: 12, W: 12})
	if err != nil {
		t.Fatal(err)
	}
	yd := winograd.NewDomain(tl, 2, 4)
	rng := tensor.NewRNG(seed)
	for _, el := range yd.El {
		for i := range el.Data {
			el.Data[i] = float32(rng.NormFloat64())
		}
	}
	return yd
}
