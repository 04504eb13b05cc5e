package winograd

import (
	"testing"

	"mptwino/internal/conv"
	"mptwino/internal/tensor"
)

// measureFpropError returns the max absolute fprop error of transform tr
// against direct convolution on a fixed random layer: the raw difference,
// not normalised by the output magnitude.
func measureFpropError(t *testing.T, tr *Transform) float64 {
	t.Helper()
	p := conv.Params{In: 4, Out: 4, K: tr.R, Pad: conv.SamePad(tr.R), H: 16, W: 16}
	rng := tensor.NewRNG(97)
	x := tensor.New(2, p.In, p.H, p.W)
	w := tensor.New(p.Out, p.In, p.K, p.K)
	rng.FillNormal(x, 0, 1)
	rng.FillHe(w, p.In*p.K*p.K)
	want := conv.Fprop(p, x, w)
	got := Fprop(tr, p, x, w)
	return got.MaxAbsDiff(want)
}

// TestNumericalStabilityGrowsWithTileSize quantifies the paper's §II-B
// remark — "as weight/tile size grow, numerical instability can grow and
// impact accuracy": F(6,3)'s float32 error must exceed F(2,3)'s by a
// meaningful factor, while both stay within training-tolerable bounds for
// 3×3 kernels (the regime where the paper says accuracy is unaffected).
func TestNumericalStabilityGrowsWithTileSize(t *testing.T) {
	e2 := measureFpropError(t, F2x2_3x3)
	e4 := measureFpropError(t, F4x4_3x3)
	tr6 := MustTransform(6, 3)
	e6 := measureFpropError(t, tr6)

	if e4 < e2 {
		t.Logf("note: F(4x4) error %v below F(2x2) %v on this seed", e4, e2)
	}
	if e6 <= e4 {
		t.Fatalf("F(6x6,3x3) error %v should exceed F(4x4,3x3) %v", e6, e4)
	}
	// All small-tile errors stay far below activation magnitudes (~1).
	for _, e := range []float64{e2, e4} {
		if e > 1e-3 {
			t.Fatalf("small-tile transform error %v too large for training", e)
		}
	}
	if e6 > 1e-1 {
		t.Fatalf("F(6x6,3x3) error %v catastrophically large", e6)
	}
}

// TestTransformCoefficientGrowth: the root cause of the instability is
// coefficient magnitude growth in the synthesized matrices; verify the
// trend across tile sizes.
func TestTransformCoefficientGrowth(t *testing.T) {
	maxAbs := func(m *tensor.Mat) float64 {
		var best float64
		for _, v := range m.Data {
			a := float64(v)
			if a < 0 {
				a = -a
			}
			if a > best {
				best = a
			}
		}
		return best
	}
	c2 := maxAbs(F2x2_3x3.BT)
	c4 := maxAbs(F4x4_3x3.BT)
	c6 := maxAbs(MustTransform(6, 3).BT)
	if !(c2 <= c4 && c4 <= c6) {
		t.Fatalf("BT coefficient growth not monotone: %v, %v, %v", c2, c4, c6)
	}
	if c6 < 4*c2 {
		t.Fatalf("F(6,3) coefficients (%v) should dwarf F(2,3)'s (%v)", c6, c2)
	}
}
