package winograd

import (
	"fmt"

	"mptwino/internal/tensor"
)

// Fused sandwich transforms. The Cook–Toom matrices B, G, A are sparse with
// small fixed coefficients (0, ±1, ±½, … — e.g. every F(2,3) entry is one
// of 0, ±1, ±½), so each transform L·x·R is compiled once, at MakeTransform
// time, into a sparse per-row/per-column term schedule, without the dense
// inner products (or the two temporary matrices) of tensor.Sandwich. Stage
// 1 runs each schedule row as one tensor.SchedRowInto call over the x
// columns as lanes: the tier's row kernel (AVX2 on avx2/fma) multiplies by
// every coefficient, ±1 included, and the Go reference loop of the other
// tiers turns c = ±1 into an add or subtract. Stage 2 (MulTInto) is a
// scalar multiply-add chain per output.
//
// Bit-compatibility with tensor.Sandwich (verified in fused_test.go): the
// schedule enumerates exactly the nonzero coefficients of L (resp. R) in
// ascending k, which is precisely the set and order of addends the naive
// MatMul reference accumulates for stage 1 (its zero-skip tests the left
// operand, i.e. the coefficients). Stage 2's reference skips data zeros
// instead; the sets differ only in ±0 addends, which cannot change an
// accumulator chain that starts at +0 (x + (±0) = x, and +0 + (±0) = +0
// under round-to-nearest). 1·v and (−1)·v are exact, and x − v is
// bit-equal to x + (−v), so a multiply by ±1 and the Go loop's add/sub
// round identically to the reference's c·v multiply-adds.
//
// Transforms with T beyond fusedMaxT (far past every size the paper uses)
// skip compilation and take the allocation-free generic sandwichInto path,
// which replicates the reference loops directly.

// fusedMaxT bounds the tile sizes that get compiled schedules.
const fusedMaxT = 8

// Sched is the compiled sparse structure of a transform matrix S: row i
// lists the nonzero (k, c) of S's row i as tensor.RowTerms in ascending k.
// Besides driving the fused sandwiches here, the schedules of Aᵀ and its
// sign split are what activation prediction (internal/quant) runs its six
// products on.
type Sched struct {
	rows [][]tensor.RowTerm
	cols int
}

func compileSched(m *tensor.Mat) *Sched {
	s := &Sched{rows: make([][]tensor.RowTerm, m.Rows), cols: m.Cols}
	for i := 0; i < m.Rows; i++ {
		for k := 0; k < m.Cols; k++ {
			if c := m.At(i, k); c != 0 {
				s.rows[i] = append(s.rows[i], tensor.RowTerm{K: int32(k), C: c})
			}
		}
	}
	return s
}

// signSplit returns the schedules of S⁺ = max(S, 0) and S⁻ = min(S, 0):
// each row's positive and negative terms, in the same ascending-k order —
// exactly the nonzero structure of PNSplit's two matrices.
func (s *Sched) signSplit() (pos, neg *Sched) {
	pos = &Sched{rows: make([][]tensor.RowTerm, len(s.rows)), cols: s.cols}
	neg = &Sched{rows: make([][]tensor.RowTerm, len(s.rows)), cols: s.cols}
	for i, terms := range s.rows {
		for _, t := range terms {
			if t.C > 0 {
				pos.rows[i] = append(pos.rows[i], t)
			} else {
				neg.rows[i] = append(neg.rows[i], t)
			}
		}
	}
	return pos, neg
}

// fusedOps holds the compiled schedules of the six transform matrices. The
// stage-2 (right-multiply) schedule of a matrix R is the row schedule of
// Rᵀ, which is always one of these six. atPos/atNeg are the sign split of
// Aᵀ, used only by activation prediction.
type fusedOps struct {
	g, gt, b, bt, a, at *Sched
	atPos, atNeg        *Sched
}

func compileFused(tr *Transform) *fusedOps {
	f := &fusedOps{
		g:  compileSched(tr.G),
		gt: compileSched(tr.GT),
		b:  compileSched(tr.B),
		bt: compileSched(tr.BT),
		a:  compileSched(tr.A),
		at: compileSched(tr.AT),
	}
	f.atPos, f.atNeg = f.at.signSplit()
	return f
}

// OutputScheds returns the compiled schedules of the output transform Aᵀ
// and of its sign split Aᵀ⁺/Aᵀ⁻. Transforms without compiled schedules
// (T past fusedMaxT, or built outside MakeTransform) compile them on each
// call, so callers fetch them once, at construction.
func (tr *Transform) OutputScheds() (at, atPos, atNeg *Sched) {
	if tr.fused != nil {
		return tr.fused.at, tr.fused.atPos, tr.fused.atNeg
	}
	at = compileSched(tr.AT)
	atPos, atNeg = at.signSplit()
	return at, atPos, atNeg
}

// MulInto computes dst = S·x, where x is row-major with S's column count
// of rows and xc columns; it writes the first rows(S)·xc values of dst.
// This is the stage-1 (left-multiply) loop of the fused sandwich: per
// output, the chain of S's nonzero terms in ascending k, starting from +0 —
// the addends, order and rounding of the naive reference's coefficient-
// skipping loop. Each row is one tensor.SchedRowInto call over xc lanes;
// dst must not overlap x.
//
//mptlint:noalloc
func (s *Sched) MulInto(dst, x []float32, xc int) {
	n := len(s.rows) * xc
	d := dst[:n:n]
	for i, terms := range s.rows {
		tensor.SchedRowInto(d[i*xc:i*xc+xc], terms, x, xc)
	}
}

// MulTInto computes dst = x·Sᵀ, where x is row-major with xr rows and S's
// column count of columns; it writes the first xr·rows(S) values of dst.
// This is the stage-2 (right-multiply by R, with S the schedule of Rᵀ)
// loop of the fused sandwich: one ascending-k multiply-add chain per
// output, which the naive reference matches up to ±0 addends (see above).
//
//mptlint:noalloc
func (s *Sched) MulTInto(dst, x []float32, xr int) {
	xc, dc := s.cols, len(s.rows)
	for i := 0; i < xr; i++ {
		row := x[i*xc : i*xc+xc]
		drow := dst[i*dc : i*dc+dc]
		for j, terms := range s.rows {
			var acc float32
			for _, t := range terms {
				// c·v is exact for c = ±1, so the single multiply-add path
				// rounds identically to dedicated add/sub branches while
				// keeping the inner loop branch-free.
				acc += t.C * row[t.K]
			}
			drow[j] = acc
		}
	}
}

// fusedSandwichInto computes dst = L·x·R where ls is the schedule of L and
// rts the schedule of Rᵀ. tmp must hold at least len(ls.rows)·x.Cols
// floats; it carries the stage-1 product L·x.
func fusedSandwichInto(dst *tensor.Mat, ls, rts *Sched, x *tensor.Mat, tmp []float32) {
	lr, xc := len(ls.rows), x.Cols
	if x.Rows != ls.cols || dst.Rows != lr || dst.Cols != len(rts.rows) || rts.cols != xc {
		panic(fmt.Sprintf("winograd: fused sandwich shape error dst %dx%d, L %dx%d, x %dx%d, Rᵀ %dx%d",
			dst.Rows, dst.Cols, lr, ls.cols, x.Rows, x.Cols, len(rts.rows), rts.cols))
	}
	t1 := tmp[: lr*xc : lr*xc]
	ls.MulInto(t1, x.Data, xc)
	rts.MulTInto(dst.Data, t1, lr)
}

// sandwichInto is the generic allocation-free fallback: dst = l·x·r with
// the exact reference semantics of tensor.Sandwich (two naive multiplies,
// zero-skip on the left operand), staging l·x in tmp.
func sandwichInto(dst *tensor.Mat, l, x, r *tensor.Mat, tmp []float32) {
	if l.Cols != x.Rows || x.Cols != r.Rows || dst.Rows != l.Rows || dst.Cols != r.Cols {
		panic(fmt.Sprintf("winograd: sandwich shape error dst %dx%d = %dx%d · %dx%d · %dx%d",
			dst.Rows, dst.Cols, l.Rows, l.Cols, x.Rows, x.Cols, r.Rows, r.Cols))
	}
	lr, xc := l.Rows, x.Cols
	t1 := tmp[: lr*xc : lr*xc]
	for i := range t1 {
		t1[i] = 0
	}
	for i := 0; i < lr; i++ {
		lrow := l.Data[i*l.Cols : (i+1)*l.Cols]
		drow := t1[i*xc : i*xc+xc]
		for k, lv := range lrow {
			if lv == 0 {
				continue
			}
			xrow := x.Data[k*xc : k*xc+xc]
			for j, xv := range xrow {
				drow[j] += lv * xv
			}
		}
	}
	for i := range dst.Data {
		dst.Data[i] = 0
	}
	for i := 0; i < lr; i++ {
		trow := t1[i*xc : i*xc+xc]
		drow := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
		for k, tv := range trow {
			if tv == 0 {
				continue
			}
			rrow := r.Data[k*r.Cols : (k+1)*r.Cols]
			for j, rv := range rrow {
				drow[j] += tv * rv
			}
		}
	}
}

// TmpLen returns the scratch length the Into transform methods need.
func (tr *Transform) TmpLen() int { return tr.T * tr.T }

// sandwich dispatches one transform step. Every transform here has the
// form S·x·Sᵀ, so a single schedule s (of S) drives both stages of the
// fused path; l/x/r feed the generic fallback when s is nil.
func (tr *Transform) sandwich(dst *tensor.Mat, s *Sched, l, x, r *tensor.Mat, tmp []float32) {
	if s != nil {
		fusedSandwichInto(dst, s, s, x, tmp)
		return
	}
	sandwichInto(dst, l, x, r, tmp)
}

// FilterToWinogradInto computes dst = G·w·Gᵀ (shape T×T) without
// allocating; tmp needs TmpLen() floats.
func (tr *Transform) FilterToWinogradInto(dst, w *tensor.Mat, tmp []float32) {
	var s *Sched
	if tr.fused != nil {
		s = tr.fused.g
	}
	tr.sandwich(dst, s, tr.G, w, tr.GT, tmp)
}

// InputToWinogradInto computes dst = Bᵀ·x·B (shape T×T) without allocating.
func (tr *Transform) InputToWinogradInto(dst, x *tensor.Mat, tmp []float32) {
	var s *Sched
	if tr.fused != nil {
		s = tr.fused.bt
	}
	tr.sandwich(dst, s, tr.BT, x, tr.B, tmp)
}

// OutputFromWinogradInto computes dst = Aᵀ·y·A (shape M×M) without
// allocating.
func (tr *Transform) OutputFromWinogradInto(dst, y *tensor.Mat, tmp []float32) {
	var s *Sched
	if tr.fused != nil {
		s = tr.fused.at
	}
	tr.sandwich(dst, s, tr.AT, y, tr.A, tmp)
}

// OutputToWinogradInto computes dst = A·dy·Aᵀ (shape T×T) without
// allocating.
func (tr *Transform) OutputToWinogradInto(dst, dy *tensor.Mat, tmp []float32) {
	var s *Sched
	if tr.fused != nil {
		s = tr.fused.a
	}
	tr.sandwich(dst, s, tr.A, dy, tr.AT, tmp)
}

// InputFromWinogradInto computes dst = B·dX·Bᵀ (shape T×T) without
// allocating.
func (tr *Transform) InputFromWinogradInto(dst, dx *tensor.Mat, tmp []float32) {
	var s *Sched
	if tr.fused != nil {
		s = tr.fused.b
	}
	tr.sandwich(dst, s, tr.B, dx, tr.BT, tmp)
}

// FilterFromWinogradInto computes dst = Gᵀ·dW·G (shape R×R) without
// allocating.
func (tr *Transform) FilterFromWinogradInto(dst, dw *tensor.Mat, tmp []float32) {
	var s *Sched
	if tr.fused != nil {
		s = tr.fused.gt
	}
	tr.sandwich(dst, s, tr.GT, dw, tr.G, tmp)
}
