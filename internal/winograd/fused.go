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
// columns as lanes: the tier's row kernel (AVX2 on avx2) multiplies by
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
// and of its sign split Aᵀ⁺/Aᵀ⁻.
func (tr *Transform) OutputScheds() (at, atPos, atNeg *Sched) {
	return tr.fused.at, tr.fused.atPos, tr.fused.atNeg
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

// fusedSandwichInto computes dst = S·x·Sᵀ where s is the schedule of S:
// every transform here has that form, so one schedule drives both stages.
// tmp must hold at least len(s.rows)·x.Cols floats; it carries the stage-1
// product S·x.
func fusedSandwichInto(dst *tensor.Mat, s *Sched, x *tensor.Mat, tmp []float32) {
	sr, xc := len(s.rows), x.Cols
	if x.Rows != s.cols || dst.Rows != sr || dst.Cols != sr || s.cols != xc {
		panic(fmt.Sprintf("winograd: fused sandwich shape error dst %dx%d, S %dx%d, x %dx%d",
			dst.Rows, dst.Cols, sr, s.cols, x.Rows, x.Cols))
	}
	t1 := tmp[: sr*xc : sr*xc]
	s.MulInto(t1, x.Data, xc)
	s.MulTInto(dst.Data, t1, sr)
}

// TmpLen returns the scratch length the Into transform methods need.
func (tr *Transform) TmpLen() int { return tr.T * tr.T }

// FilterToWinogradInto computes dst = G·w·Gᵀ (shape T×T) without
// allocating; tmp needs TmpLen() floats.
func (tr *Transform) FilterToWinogradInto(dst, w *tensor.Mat, tmp []float32) {
	fusedSandwichInto(dst, tr.fused.g, w, tmp)
}

// InputToWinogradInto computes dst = Bᵀ·x·B (shape T×T) without allocating.
func (tr *Transform) InputToWinogradInto(dst, x *tensor.Mat, tmp []float32) {
	fusedSandwichInto(dst, tr.fused.bt, x, tmp)
}

// OutputFromWinogradInto computes dst = Aᵀ·y·A (shape M×M) without
// allocating.
func (tr *Transform) OutputFromWinogradInto(dst, y *tensor.Mat, tmp []float32) {
	fusedSandwichInto(dst, tr.fused.at, y, tmp)
}

// OutputToWinogradInto computes dst = A·dy·Aᵀ (shape T×T) without
// allocating.
func (tr *Transform) OutputToWinogradInto(dst, dy *tensor.Mat, tmp []float32) {
	fusedSandwichInto(dst, tr.fused.a, dy, tmp)
}

// InputFromWinogradInto computes dst = B·dX·Bᵀ (shape T×T) without
// allocating.
func (tr *Transform) InputFromWinogradInto(dst, dx *tensor.Mat, tmp []float32) {
	fusedSandwichInto(dst, tr.fused.b, dx, tmp)
}

// FilterFromWinogradInto computes dst = Gᵀ·dW·G (shape R×R) without
// allocating.
func (tr *Transform) FilterFromWinogradInto(dst, dw *tensor.Mat, tmp []float32) {
	fusedSandwichInto(dst, tr.fused.gt, dw, tmp)
}
