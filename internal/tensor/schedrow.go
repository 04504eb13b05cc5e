package tensor

import "fmt"

// RowTerm is one addend of a schedule row: coefficient C applied to row K
// of the operand (see SchedRowInto). A compiled Winograd transform
// schedule lists a row's nonzero coefficients as RowTerms in ascending K.
type RowTerm struct {
	K int32
	C float32
}

// SchedRowInto writes one schedule row over a lane vector:
//
//	dst[j] = +0 ⊕ c₀·x[k₀·xc+j] ⊕ c₁·x[k₁·xc+j] ⊕ …   for j < len(dst),
//
// with the terms in the order given. It is the row product under every
// Winograd tile transform and every activation-prediction product. dst is
// written, not added to, and must not overlap x.
//
// Every lane is one output value, and every tier computes it by the same
// chain: from +0, one float32 multiply and one float32 add per term, in
// term order, never fused. The avx2 tier runs the chain in AVX2 assembly
// (the tier's row kernel), the others in the Go reference loop
// (schedRowGo), which turns c = ±1 into a plain add or subtract. 1·v and
// (−1)·v are exact and x + (−v) is x − v, so the two round alike and every
// tier gives the same bits, up to the sign and payload of a NaN.
//
// Every term's operand row x[k·xc : k·xc+len(dst)] is checked against
// len(x) before any tier runs, so a bad call panics on every tier, before
// dst is written, and the assembly never reads outside x.
//
//mptlint:noalloc
func SchedRowInto(dst []float32, terms []RowTerm, x []float32, xc int) {
	n := len(dst)
	for _, t := range terms {
		// Against len(x), not cap(x): a slice expression alone would let
		// the kernel read the spare capacity past x.
		if lo := int(t.K) * xc; lo < 0 || lo+n > len(x) {
			panic(fmt.Sprintf("tensor: schedule row term k=%d reads x[%d:%d] of %d values", t.K, lo, lo+n, len(x)))
		}
	}
	if g := activeGemm.Load(); g.row != nil && n > 0 && len(terms) > 0 {
		// The checks above make x[0] valid: some term's row holds n ≥ 1 values.
		g.row(&dst[0], n, &terms[0], len(terms), &x[0], xc)
		return
	}
	schedRowGo(dst, terms, x, xc)
}

// schedRowGo is the reference loop of SchedRowInto: the row is zeroed, then
// each term is added lane by lane, c = ±1 as a plain add or subtract.
func schedRowGo(dst []float32, terms []RowTerm, x []float32, xc int) {
	for j := range dst {
		dst[j] = 0
	}
	for _, t := range terms {
		xrow := x[int(t.K)*xc : int(t.K)*xc+len(dst)]
		switch t.C {
		case 1:
			for j, v := range xrow {
				dst[j] += v
			}
		case -1:
			for j, v := range xrow {
				dst[j] -= v
			}
		default:
			c := t.C
			for j, v := range xrow {
				dst[j] += c * v
			}
		}
	}
}
