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
// Prediction runs with channels as lanes (Lanes): one tile row of an output
// Domain at a time, every stage over C-long lane vectors, on the sparse
// term schedules the transform already compiles for Aᵀ and its sign split
// Aᵀ⁺/Aᵀ⁻ (winograd.Transform.OutputScheds). A single tile is the one-lane
// case (Predict2DInto, Predict1DInto).
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

// Lanes is the state of channel-lane prediction: the C tiles of one
// output-Domain row, one per channel, predicted together with each channel
// a lane. A Domain row stores each tile element's C values contiguously,
// so every buffer here is a block of C-long lane vectors — value k of
// lane ch at [k·C + ch] — the layout the winograd tile transforms run in.
// One Lanes serves any number of Into calls for its transform and C
// without allocating.
//
// Every lane's Est and MaxErr are those of the per-tile chain of six
// schedule products (Sched.MulTInto right-multiplying by A, then
// Sched.MulInto), bit for bit and for every input: each lane runs the same
// nonzero terms in the same ascending-k order from the same +0 start. All
// six lane products are Sched.MulInto rows on tensor.SchedRowInto, which
// multiplies by each coefficient on the avx2 tier and turns c = ±1 into an
// add or subtract in the Go loop of the others; both round exactly as
// MulTInto's multiply by ±1. Only the loops around the chains change.
type Lanes struct {
	c, m     int         // lanes (the channels of a Domain row); output tile size
	in       [][]float32 // the T² element rows predicted, C values each
	tile     []float32   // 1-D: the element rows gathered, T²×C
	qv, res  []float32   // quantized values / resolutions: T²×C (2-D) or T×m×C (1-D)
	z        []float32   // T×m×C stage-1 estimate (2-D) or exact Z = y·A (1-D)
	pos, neg []float32   // T×m×C stage-1 positive / negative error bounds
	est      []float32   // m×m×C estimated neuron values
	maxErr   []float32   // m×m×C maximum possible positive error
	negErr   []float32   // m×m×C negative-coefficient error term (2-D)
	overflow []bool      // per lane: a source element exceeded the quantizer range
}

// NewLanes returns a Lanes sized for c channels of tr.
func NewLanes(tr *winograd.Transform, c int) *Lanes {
	t, m := tr.T, tr.M
	return &Lanes{
		c:        c,
		m:        m,
		in:       make([][]float32, t*t),
		tile:     make([]float32, t*t*c),
		qv:       make([]float32, t*t*c),
		res:      make([]float32, t*t*c),
		z:        make([]float32, t*m*c),
		pos:      make([]float32, t*m*c),
		neg:      make([]float32, t*m*c),
		est:      make([]float32, m*m*c),
		maxErr:   make([]float32, m*m*c),
		negErr:   make([]float32, m*m*c),
		overflow: make([]bool, c),
	}
}

// nonActivated reports whether every neuron of lane ch's tile is provably
// non-activated (estimate + max error < 0) — the condition under which the
// tile's gathering communication is skipped entirely. The comparison is
// written as < 0 so that a NaN bound reads as activated.
func (l *Lanes) nonActivated(ch int) bool {
	for r := 0; r < l.m; r++ {
		if !l.rowNonActivated(ch, r) {
			return false
		}
	}
	return true
}

// rowNonActivated reports whether every neuron of output row r of lane
// ch's tile is provably non-activated: the unit a 1-D prediction skips.
func (l *Lanes) rowNonActivated(ch, r int) bool {
	if l.overflow[ch] {
		return false
	}
	for i := r*l.m*l.c + ch; i < (r+1)*l.m*l.c; i += l.c {
		if !(l.est[i]+l.maxErr[i] < 0) {
			return false
		}
	}
	return true
}

// CountNonActivated returns how many lanes' tiles are provably
// non-activated: no overflow, and estimate + max error < 0 for every
// neuron.
//
//mptlint:noalloc
func (l *Lanes) CountNonActivated() int {
	n := 0
	for ch := 0; ch < l.c; ch++ {
		if l.nonActivated(ch) {
			n++
		}
	}
	return n
}

// loadRow points the lanes at output-Domain row `row`: element e's C
// values are d.El[e]'s row.
func (l *Lanes) loadRow(p *Predictor, d *winograd.Domain, row int) {
	if tr := d.Tiling.Tr; tr.T != p.Tr.T || tr.M != p.Tr.M || d.C != l.c || len(l.in) != len(d.El) {
		panic(fmt.Sprintf("quant: %s prediction over %d lanes got a %s Domain of %d channels",
			p.Tr, l.c, tr, d.C))
	}
	off := row * l.c
	for e, el := range d.El {
		l.in[e] = el.Data[off : off+l.c]
	}
}

// Predict2DRowInto performs 2-D prediction for every tile of output-Domain
// row `row` into l, one lane per channel.
//
//mptlint:noalloc
func (p *Predictor) Predict2DRowInto(l *Lanes, d *winograd.Domain, row int) {
	l.loadRow(p, d, row)
	p.predict2D(l)
}

// Predict1DRowInto performs 1-D prediction for every tile of output-Domain
// row `row` into l, one lane per channel.
//
//mptlint:noalloc
func (p *Predictor) Predict1DRowInto(l *Lanes, d *winograd.Domain, row int) {
	l.loadRow(p, d, row)
	p.predict1D(l)
}

// quantizeLanes quantizes one C-long lane vector v into qv/res, setting
// ov[ch] for every lane ch whose value overflows. Every lane gets
// Quantize's bits on every tier: on avx2 (tensor.RowKernelAVX2) the lanes
// run eight at a time through an AVX2 kernel of Quantize's closed form
// (lanes_amd64.s), and the fewer than eight left over, like every lane on
// the other tiers, run Quantize itself.
func (q *Quantizer) quantizeLanes(v, qv, res []float32, ov []bool) {
	qv, res, ov = qv[:len(v)], res[:len(v)], ov[:len(v)]
	for i := q.quantizeBlocks(v, qv, res, ov); i < len(v); i++ {
		var o bool
		qv[i], res[i], o = q.Quantize(v[i])
		if o {
			ov[i] = true
		}
	}
}

// predict2D is 2-D prediction over l's lanes: the source holds scattered
// individual elements of each T×T Winograd-domain output tile, quantizes
// each, and the destination propagates values and error bounds through
// both 1-D stages of the inverse transform.
//
// Stage 1 (rows → Z = Q·A): error bound of Z splits into positive and
// negative parts because A has mixed-sign coefficients. Stage 2 (cols →
// est = Aᵀ·Z): positive coefficients of Aᵀ multiply the positive stage-1
// bound, negative coefficients the negative bound, yielding the final
// maximum positive error (paper Fig. 11, right path). Stage 1 runs once
// per tile row u, as Aᵀ's schedule over that row's T element vectors;
// stage 2 runs once, over the m·C values of every Z row.
func (p *Predictor) predict2D(l *Lanes) {
	t, m, c := p.Tr.T, p.Tr.M, l.c
	clear(l.overflow)
	for e, v := range l.in {
		p.Q.quantizeLanes(v, l.qv[e*c:], l.res[e*c:], l.overflow)
	}
	tc, mc := t*c, m*c
	for u := 0; u < t; u++ {
		p.at.MulInto(l.z[u*mc:], l.qv[u*tc:], c)       // estimated stage-1
		p.atPos.MulInto(l.pos[u*mc:], l.res[u*tc:], c) // positive error bound
		p.atNeg.MulInto(l.neg[u*mc:], l.res[u*tc:], c) // negative error bound (≤0)
	}
	p.at.MulInto(l.est, l.z, mc)
	p.atPos.MulInto(l.maxErr, l.pos, mc) // positive coeff × positive err
	p.atNeg.MulInto(l.negErr, l.neg, mc) // negative coeff × negative err
	for i, v := range l.negErr {
		l.maxErr[i] += v
	}
}

// predict1D is 1-D prediction over l's lanes: the source holds complete
// tile rows, computes the first 1-D inverse transform Z = y·A with *real*
// values, then quantizes Z. Only the second stage accumulates quantization
// error, which is why 1-D prediction is tighter than 2-D (Section V-B).
func (p *Predictor) predict1D(l *Lanes) {
	t, m, c := p.Tr.T, p.Tr.M, l.c
	tc, mc := t*c, m*c
	for e, v := range l.in {
		copy(l.tile[e*c:(e+1)*c], v)
	}
	for u := 0; u < t; u++ {
		p.at.MulInto(l.z[u*mc:], l.tile[u*tc:], c) // exact at the source
	}
	clear(l.overflow)
	for i := 0; i < t*mc; i += c {
		p.Q.quantizeLanes(l.z[i:i+c], l.qv[i:], l.res[i:], l.overflow)
	}
	p.at.MulInto(l.est, l.qv, mc)
	// Stage-2 error: e ∈ [0, res] per Z element, so the positive bound is
	// pos(Aᵀ)·res and the negative part contributes nothing positive.
	p.atPos.MulInto(l.maxErr, l.res, mc)
}

// Prediction is the destination-side result for one tile: the one-lane
// case of Lanes, whose buffers it carries, so one Prediction serves any
// number of Into calls for its transform without allocating.
type Prediction struct {
	Est    *tensor.Mat // m×m estimated neuron values (from quantized data)
	MaxErr *tensor.Mat // m×m maximum possible positive error
	// Overflow reports that at least one source element exceeded the
	// quantizer range; the tile must then be treated as activated.
	Overflow bool

	l *Lanes // one lane; Est and MaxErr are its est and maxErr
}

// NewPrediction returns a Prediction sized for tr, ready for the Into
// forms of any predictor over tr.
func NewPrediction(tr *winograd.Transform) *Prediction {
	l := NewLanes(tr, 1)
	return &Prediction{
		Est:    tensor.MatFromSlice(tr.M, tr.M, l.est),
		MaxErr: tensor.MatFromSlice(tr.M, tr.M, l.maxErr),
		l:      l,
	}
}

// NonActivated reports whether every neuron of the tile is provably
// non-activated (estimate + max error < 0).
//
//mptlint:noalloc
func (pr *Prediction) NonActivated() bool { return pr.l.nonActivated(0) }

// RowNonActivated reports whether every neuron of output-tile row r is
// provably non-activated. With 1-D prediction the unit of skipped
// communication is a tile line (Section V-B measures "non-activated
// lines").
//
//mptlint:noalloc
func (pr *Prediction) RowNonActivated(r int) bool { return pr.l.rowNonActivated(0, r) }

// NonActivatedRows reports RowNonActivated for every output-tile row.
func (pr *Prediction) NonActivatedRows() []bool {
	out := make([]bool, pr.Est.Rows)
	for r := range out {
		out[r] = pr.RowNonActivated(r)
	}
	return out
}

// loadTile points pr's one lane at the T×T tile y, panicking unless y is
// a T×T tile and pr is sized for p's transform.
func (p *Predictor) loadTile(pr *Prediction, y *tensor.Mat) {
	t, m := p.Tr.T, p.Tr.M
	if y.Rows != t || y.Cols != t || len(pr.l.in) != t*t || len(pr.l.est) != m*m {
		panic(fmt.Sprintf("quant: %s prediction needs a %dx%d tile and a Prediction from NewPrediction(%s); got a %dx%d tile",
			p.Tr, t, t, p.Tr, y.Rows, y.Cols))
	}
	for e := range pr.l.in {
		pr.l.in[e] = y.Data[e : e+1]
	}
}

// Predict2DInto performs 2-D prediction of the T×T tile y into pr.
//
//mptlint:noalloc
func (p *Predictor) Predict2DInto(pr *Prediction, y *tensor.Mat) {
	p.loadTile(pr, y)
	p.predict2D(pr.l)
	pr.Overflow = pr.l.overflow[0]
}

// Predict1DInto performs 1-D prediction of the T×T tile y into pr.
//
//mptlint:noalloc
func (p *Predictor) Predict1DInto(pr *Prediction, y *tensor.Mat) {
	p.loadTile(pr, y)
	p.predict1D(pr.l)
	pr.Overflow = pr.l.overflow[0]
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
