package quant

import (
	"fmt"

	"mptwino/internal/tensor"
	"mptwino/internal/winograd"
)

// Predictor implements the activation prediction of Section V-A: from
// quantized Winograd-domain output values it computes, at the destination
// worker, both an estimate of every spatial neuron and the maximum possible
// positive quantization error, and declares a neuron non-activated only
// when estimate + maxErr < 0. Because quantization errors are one-sided
// (e ∈ [0, res]) and the bound is propagated through the positive and
// negative inverse-transform coefficients separately, the prediction can
// never produce a false negative: a neuron predicted non-activated is
// guaranteed non-activated.
//
// The six products of a prediction run on the sparse term schedules the
// transform already compiles for Aᵀ and its sign split Aᵀ⁺/Aᵀ⁻
// (winograd.Transform.OutputScheds): right-multiplying by A is MulTInto
// with Aᵀ's schedule, left-multiplying by Aᵀ is MulInto. Each stage is the
// naive MatMul reference's chain up to ±0 addends, so Est and MaxErr are
// bit-equal to the MatMul formulation for finite inputs.
type Predictor struct {
	Tr *winograd.Transform
	Q  *Quantizer

	at, atPos, atNeg *winograd.Sched // Aᵀ and its PN split
}

// NewPredictor builds a predictor for the given transform and quantizer.
// The predictor reads q on every call, so recalibrating q in place
// (Quantizer.Calibrate) retunes it.
func NewPredictor(tr *winograd.Transform, q *Quantizer) *Predictor {
	p := &Predictor{Tr: tr, Q: q}
	p.at, p.atPos, p.atNeg = tr.OutputScheds()
	return p
}

// Prediction is the destination-side result for one tile. It carries its
// own stage buffers, so one Prediction serves any number of Into calls
// for its transform without allocating.
type Prediction struct {
	Est    *tensor.Mat // m×m estimated neuron values (from quantized data)
	MaxErr *tensor.Mat // m×m maximum possible positive error
	// Overflow reports that at least one source element exceeded the
	// quantizer range; the tile must then be treated as activated.
	Overflow bool

	qv, res  []float32 // T×T quantized values and resolutions (T×m in 1-D)
	z        []float32 // T×m stage-1 estimate (2-D) or exact Z = y·A (1-D)
	pos, neg []float32 // T×m stage-1 positive / negative error bounds
	negErr   []float32 // m×m negative-coefficient error term (2-D)
}

// NewPrediction returns a Prediction sized for tr, ready for the Into
// forms of any predictor over tr.
func NewPrediction(tr *winograd.Transform) *Prediction {
	t, m := tr.T, tr.M
	return &Prediction{
		Est:    tensor.NewMat(m, m),
		MaxErr: tensor.NewMat(m, m),
		qv:     make([]float32, t*t),
		res:    make([]float32, t*t),
		z:      make([]float32, t*m),
		pos:    make([]float32, t*m),
		neg:    make([]float32, t*m),
		negErr: make([]float32, m*m),
	}
}

// NonActivated reports whether every neuron of the tile is provably
// non-activated (estimate + max error < 0) — the condition under which the
// tile's gathering communication is skipped entirely. The comparison is
// written as < 0 so that a NaN bound reads as activated.
//
//mptlint:noalloc
func (pr *Prediction) NonActivated() bool {
	if pr.Overflow {
		return false
	}
	return allNegativeSum(pr.Est.Data, pr.MaxErr.Data)
}

// RowNonActivated reports whether every neuron of output-tile row r is
// provably non-activated. With 1-D prediction the unit of skipped
// communication is a tile line (Section V-B measures "non-activated
// lines").
//
//mptlint:noalloc
func (pr *Prediction) RowNonActivated(r int) bool {
	if pr.Overflow {
		return false
	}
	c := pr.Est.Cols
	return allNegativeSum(pr.Est.Data[r*c:r*c+c], pr.MaxErr.Data[r*c:r*c+c])
}

// NonActivatedRows reports RowNonActivated for every output-tile row.
func (pr *Prediction) NonActivatedRows() []bool {
	out := make([]bool, pr.Est.Rows)
	for r := range out {
		out[r] = pr.RowNonActivated(r)
	}
	return out
}

// allNegativeSum reports whether est[i] + maxErr[i] < 0 for every i.
func allNegativeSum(est, maxErr []float32) bool {
	for i, e := range est {
		if !(e+maxErr[i] < 0) {
			return false
		}
	}
	return true
}

// checkTile panics unless y is a T×T tile and pr is sized for p's
// transform.
func (p *Predictor) checkTile(pr *Prediction, y *tensor.Mat) {
	t, m := p.Tr.T, p.Tr.M
	if y.Rows != t || y.Cols != t || len(pr.qv) != t*t || len(pr.negErr) != m*m {
		panic(fmt.Sprintf("quant: %s prediction needs a %dx%d tile and a Prediction from NewPrediction(%s); got a %dx%d tile",
			p.Tr, t, t, p.Tr, y.Rows, y.Cols))
	}
}

// Predict2DInto performs 2-D prediction into pr: the source holds
// scattered individual elements of the T×T Winograd-domain output tile y,
// quantizes each, and the destination propagates values and error bounds
// through both 1-D stages of the inverse transform.
//
// Stage 1 (rows → Z = Q·A): error bound of Z splits into positive and
// negative parts because A has mixed-sign coefficients. Stage 2 (cols →
// est = Aᵀ·Z): positive coefficients of Aᵀ multiply the positive stage-1
// bound, negative coefficients the negative bound, yielding the final
// maximum positive error (paper Fig. 11, right path).
//
//mptlint:noalloc
func (p *Predictor) Predict2DInto(pr *Prediction, y *tensor.Mat) {
	p.checkTile(pr, y)
	t, m := p.Tr.T, p.Tr.M
	pr.Overflow = p.Q.QuantizeSlice(y.Data, pr.qv, pr.res)

	p.at.MulTInto(pr.z, pr.qv, t)              // T×m estimated stage-1
	p.atPos.MulTInto(pr.pos, pr.res, t)        // T×m positive error bound
	p.atNeg.MulTInto(pr.neg, pr.res, t)        // T×m negative error bound (≤0)
	p.at.MulInto(pr.Est.Data, pr.z, m)         // m×m
	p.atPos.MulInto(pr.MaxErr.Data, pr.pos, m) // positive coeff × positive err
	p.atNeg.MulInto(pr.negErr, pr.neg, m)      // negative coeff × negative err
	for i, v := range pr.negErr {
		pr.MaxErr.Data[i] += v
	}
}

// Predict1DInto performs 1-D prediction into pr: the source holds complete
// tile rows, computes the first 1-D inverse transform Z = y·A with *real*
// values, then quantizes Z. Only the second stage accumulates quantization
// error, which is why 1-D prediction is tighter than 2-D (Section V-B).
//
//mptlint:noalloc
func (p *Predictor) Predict1DInto(pr *Prediction, y *tensor.Mat) {
	p.checkTile(pr, y)
	t, m := p.Tr.T, p.Tr.M
	n := t * m
	p.at.MulTInto(pr.z, y.Data, t) // T×m, exact at the source
	pr.Overflow = p.Q.QuantizeSlice(pr.z[:n], pr.qv[:n], pr.res[:n])

	p.at.MulInto(pr.Est.Data, pr.qv, m)
	// Stage-2 error: e ∈ [0, res] per Z element, so the positive bound is
	// pos(Aᵀ)·res and the negative part contributes nothing positive.
	p.atPos.MulInto(pr.MaxErr.Data, pr.res, m)
}

// Predict2D is Predict2DInto into a fresh Prediction.
func (p *Predictor) Predict2D(y *tensor.Mat) *Prediction {
	pr := NewPrediction(p.Tr)
	p.Predict2DInto(pr, y)
	return pr
}

// Predict1D is Predict1DInto into a fresh Prediction.
func (p *Predictor) Predict1D(y *tensor.Mat) *Prediction {
	pr := NewPrediction(p.Tr)
	p.Predict1DInto(pr, y)
	return pr
}

// TrueNonActivated reports whether the exact inverse transform of y has all
// neurons < 0 — the oracle the paper's dotted "real value" line measures
// (the upper limit of any prediction).
func TrueNonActivated(tr *winograd.Transform, y *tensor.Mat) bool {
	return allNegative(tr.OutputFromWinograd(y).Data)
}

// TrueNonActivatedRows is the per-row oracle for 1-D prediction.
func TrueNonActivatedRows(tr *winograd.Transform, y *tensor.Mat) []bool {
	out := tr.OutputFromWinograd(y)
	rows := make([]bool, out.Rows)
	for r := range rows {
		rows[r] = allNegative(out.Data[r*out.Cols : (r+1)*out.Cols])
	}
	return rows
}

// allNegative reports whether every value is < 0 (NaN is not).
func allNegative(vs []float32) bool {
	for _, v := range vs {
		if !(v < 0) {
			return false
		}
	}
	return true
}
