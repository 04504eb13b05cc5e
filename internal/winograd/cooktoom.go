// Package winograd implements the Winograd-transformed convolution that the
// paper parallelizes: exact Cook–Toom construction of the transform
// matrices F(m×m, r×r), tile extraction/scatter, the three training phases
// (fprop, bprop, updateGrad) in the Winograd domain, and the Winograd layer
// of Fig. 2(b) whose weights live and are updated directly in the Winograd
// domain.
//
// The transform identity (paper eq. 1) is
//
//	y = Aᵀ [(G·w·Gᵀ) ⊙ (Bᵀ·x·B)] A
//
// with w an r×r filter, x a T×T input tile, y an m×m output tile, and
// T = m + r − 1.
package winograd

import (
	"fmt"
	"math/big"

	"mptwino/internal/tensor"
)

// Transform holds the matrices of a 1-D Winograd algorithm F(m, r); the 2-D
// algorithm F(m×m, r×r) nests it (applied to rows then columns). All
// matrices are produced by the exact rational Cook–Toom construction in
// MakeTransform, so round-off enters only at the final float32 conversion.
// Build Transforms with MakeTransform: it also compiles the term schedules
// every transform method runs on.
type Transform struct {
	M int // outputs per tile per dimension
	R int // filter size per dimension
	T int // tile size per dimension, M+R-1

	G  *tensor.Mat // T×R filter transform:  W = G·w·Gᵀ
	BT *tensor.Mat // T×T data transform:    X = Bᵀ·x·B
	AT *tensor.Mat // M×T output transform:  y = Aᵀ·Y·A

	B  *tensor.Mat // T×T, transpose of BT (cached)
	A  *tensor.Mat // T×M, transpose of AT (cached)
	GT *tensor.Mat // R×T, transpose of G (cached)

	// fused holds the compiled sparse term schedules of the transform
	// matrices (see fused.go).
	fused *fusedOps
}

// String identifies the transform in the paper's F(m×m, r×r) notation.
func (tr *Transform) String() string {
	return fmt.Sprintf("F(%dx%d,%dx%d)", tr.M, tr.M, tr.R, tr.R)
}

// interpolation points used in Cook–Toom synthesis, in the order that keeps
// transform coefficients small for the sizes the paper needs (0, ±1, ±2,
// ±1/2, ...). The point at infinity is implicit (it is always the last).
var defaultPoints = []*big.Rat{
	big.NewRat(0, 1),
	big.NewRat(1, 1), big.NewRat(-1, 1),
	big.NewRat(2, 1), big.NewRat(-2, 1),
	big.NewRat(1, 2), big.NewRat(-1, 2),
	big.NewRat(3, 1), big.NewRat(-3, 1),
	big.NewRat(1, 3), big.NewRat(-1, 3),
	big.NewRat(4, 1), big.NewRat(-4, 1),
}

// poly is a dense rational polynomial; poly[i] is the coefficient of x^i.
type poly []*big.Rat

func newPoly(deg int) poly {
	p := make(poly, deg+1)
	for i := range p {
		p[i] = new(big.Rat)
	}
	return p
}

// mulLinear returns p(x)·(x − a).
func (p poly) mulLinear(a *big.Rat) poly {
	out := newPoly(len(p)) // degree rises by one
	for i, c := range p {
		// x * c x^i
		out[i+1].Add(out[i+1], c)
		// -a * c x^i
		t := new(big.Rat).Mul(a, c)
		out[i].Sub(out[i], t)
	}
	return out
}

// MakeTransform synthesizes F(m, r) using the Cook–Toom construction with
// T−1 finite interpolation points plus the point at infinity:
//
//	y = Emᵀ [(Er·g) ⊙ (Cᵀ·d)]
//
// where Em/Er are Vandermonde evaluation matrices and C is the polynomial
// interpolation matrix of the underlying linear convolution. This is the
// transpose-principle derivation, so Aᵀ = Emᵀ, G = Er, Bᵀ = Cᵀ. It errors
// if m or r is too small or the point table is exhausted.
func MakeTransform(m, r int) (*Transform, error) {
	if m < 1 || r < 1 {
		return nil, fmt.Errorf("winograd: F(%d,%d) requires m,r >= 1", m, r)
	}
	t := m + r - 1
	nFinite := t - 1
	if nFinite > len(defaultPoints) {
		return nil, fmt.Errorf("winograd: F(%d,%d) needs %d interpolation points, only %d available",
			m, r, nFinite, len(defaultPoints))
	}
	pts := defaultPoints[:nFinite]

	// Evaluation matrices. Em is T×m: finite row i = [1, a_i, …, a_i^{m-1}],
	// infinity row = e_{m-1}. Er is T×r likewise.
	vander := func(cols int) *tensor.Mat {
		out := tensor.NewMat(t, cols)
		for i, a := range pts {
			pw := big.NewRat(1, 1)
			for j := 0; j < cols; j++ {
				out.Set(i, j, ratToF32(pw))
				pw = new(big.Rat).Mul(pw, a)
			}
		}
		out.Set(t-1, cols-1, 1) // infinity row: leading coefficient
		return out
	}
	em := vander(m)
	er := vander(r)

	// Interpolation matrix C (T×T): finite column i holds the coefficients
	// of the Lagrange basis L_i(x); the infinity column holds the
	// coefficients of M(x) = Π (x − a_i).
	c := tensor.NewMat(t, t)
	for i, ai := range pts {
		// numerator Π_{j≠i} (x − a_j) and denominator Π_{j≠i} (a_i − a_j)
		num := newPoly(0)
		num[0].SetInt64(1)
		den := big.NewRat(1, 1)
		for j, aj := range pts {
			if j == i {
				continue
			}
			num = num.mulLinear(aj)
			d := new(big.Rat).Sub(ai, aj)
			den.Mul(den, d)
		}
		inv := new(big.Rat).Inv(den)
		for k, coeff := range num {
			v := new(big.Rat).Mul(coeff, inv)
			c.Set(k, i, ratToF32(v))
		}
	}
	mpoly := newPoly(0)
	mpoly[0].SetInt64(1)
	for _, a := range pts {
		mpoly = mpoly.mulLinear(a)
	}
	for k, coeff := range mpoly {
		c.Set(k, t-1, ratToF32(coeff))
	}

	tr := &Transform{
		M:  m,
		R:  r,
		T:  t,
		G:  er,
		BT: c.T(),
		AT: em.T(),
	}
	tr.B = tr.BT.T()
	tr.A = tr.AT.T()
	tr.GT = tr.G.T()
	tr.fused = compileFused(tr)
	return tr, nil
}

func ratToF32(r *big.Rat) float32 {
	f, _ := r.Float64()
	return float32(f)
}

// MustTransform is MakeTransform that panics on error, for the fixed sizes
// the paper evaluates.
func MustTransform(m, r int) *Transform {
	tr, err := MakeTransform(m, r)
	if err != nil {
		panic(err)
	}
	return tr
}

// The three 2-D transforms the paper uses (Sections IV, VII-B):
//
//	F(2×2,3×3)  tile 4×4 — MPT configurations with 16 or 4 groups
//	F(4×4,3×3)  tile 6×6 — single-group (data-parallel) configurations
//	F(2×2,5×5)  tile 6×6 — 5×5-weight evaluation (Fig. 16)
//
// The paper's fourth, F(2,3) with 4×1 tiles for 3×1 weights, is
// F(2×2,3×3)'s 1-D algorithm; no workload here has 3×1 weights.
var (
	F2x2_3x3 = MustTransform(2, 3)
	F4x4_3x3 = MustTransform(4, 3)
	F2x2_5x5 = MustTransform(2, 5)

	// F6x6_3x3 (tile 8×8) is beyond the paper's menu: it maximizes compute
	// reduction (36 outputs per 64-element tile) but its transform
	// coefficients grow enough that training is numerically unsafe (see
	// stability_test.go), so the planner only enumerates it behind the
	// explicit AllowWideTiles opt-in.
	F6x6_3x3 = MustTransform(6, 3)
)

// ForKernel returns the transform the paper selects for kernel size k under
// the given group count: F(2×2,3×3) when tiles must be split across groups
// (smaller Winograd-domain weights), F(4×4,3×3) for a single group (more
// compute reduction); 5×5 kernels always use F(2×2,5×5).
func ForKernel(k, groups int) (*Transform, error) {
	return ForKernelTile(k, groups, 0)
}

// ForKernelTile resolves the transform for kernel size k with an explicit
// tile output size m; m = 0 keeps the paper's ForKernel rule (the group
// count picks the tile), which is what every fixed-menu path uses. A
// non-zero m is the planner's tile-size axis: for 3×3 kernels m ∈ {2, 4, 6}
// selects F(m×m,3×3) regardless of the group count, 5×5 kernels support
// only m = 2. The caller is responsible for the Ng ≤ T² feasibility bound
// (comm.Strategy.Transform checks it).
func ForKernelTile(k, groups, m int) (*Transform, error) {
	if m == 0 {
		switch k {
		case 3:
			if groups > 1 {
				return F2x2_3x3, nil
			}
			return F4x4_3x3, nil
		case 5:
			return F2x2_5x5, nil
		default:
			return nil, fmt.Errorf("winograd: no transform configured for %dx%d kernels", k, k)
		}
	}
	switch {
	case k == 3 && m == 2:
		return F2x2_3x3, nil
	case k == 3 && m == 4:
		return F4x4_3x3, nil
	case k == 3 && m == 6:
		return F6x6_3x3, nil
	case k == 5 && m == 2:
		return F2x2_5x5, nil
	default:
		return nil, fmt.Errorf("winograd: no F(%dx%d,%dx%d) transform configured", m, m, k, k)
	}
}
