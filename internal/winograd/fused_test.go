package winograd

import (
	"math"
	"math/rand"
	"testing"

	"mptwino/internal/tensor"
)

// sandwichRef is the reference the fused paths must match bit-exactly: the
// naive mul+add sandwich pipeline the transforms used previously, on the
// reference loops directly rather than through the GEMM dispatch.
func sandwichRef(l, x, r *tensor.Mat) *tensor.Mat {
	lx := tensor.NewMat(l.Rows, x.Cols)
	tensor.MatMulNaiveInto(lx, l, x)
	out := tensor.NewMat(lx.Rows, r.Cols)
	tensor.MatMulNaiveInto(out, lx, r)
	return out
}

func randTile(rng *rand.Rand, n, m int, zeroFrac float64) *tensor.Mat {
	out := tensor.NewMat(n, m)
	for i := range out.Data {
		if rng.Float64() < zeroFrac {
			continue
		}
		out.Data[i] = float32(rng.NormFloat64())
	}
	return out
}

func mustBitEqual(t *testing.T, ctx string, want, got *tensor.Mat) {
	t.Helper()
	if want.Rows != got.Rows || want.Cols != got.Cols {
		t.Fatalf("%s: shape %dx%d vs %dx%d", ctx, want.Rows, want.Cols, got.Rows, got.Cols)
	}
	for i := range want.Data {
		if math.Float32bits(want.Data[i]) != math.Float32bits(got.Data[i]) {
			t.Fatalf("%s: element %d: % .9g vs % .9g", ctx, i, want.Data[i], got.Data[i])
		}
	}
}

// checkTransformOps drives all six Into transforms of tr against the
// tensor.Sandwich reference, with data that includes exact zeros (the
// zero-padded tiles at feature-map edges).
func checkTransformOps(t *testing.T, tr *Transform, zeroFrac float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(tr.T)*100 + int64(tr.R)))
	tmp := make([]float32, tr.TmpLen())
	cases := []struct {
		name    string
		l, r    *tensor.Mat
		in, out int // input/output side lengths
		apply   func(dst, x *tensor.Mat)
	}{
		{"FilterToWinograd", tr.G, tr.GT, tr.R, tr.T, func(d, x *tensor.Mat) { tr.FilterToWinogradInto(d, x, tmp) }},
		{"InputToWinograd", tr.BT, tr.B, tr.T, tr.T, func(d, x *tensor.Mat) { tr.InputToWinogradInto(d, x, tmp) }},
		{"OutputFromWinograd", tr.AT, tr.A, tr.T, tr.M, func(d, x *tensor.Mat) { tr.OutputFromWinogradInto(d, x, tmp) }},
		{"OutputToWinograd", tr.A, tr.AT, tr.M, tr.T, func(d, x *tensor.Mat) { tr.OutputToWinogradInto(d, x, tmp) }},
		{"InputFromWinograd", tr.B, tr.BT, tr.T, tr.T, func(d, x *tensor.Mat) { tr.InputFromWinogradInto(d, x, tmp) }},
		{"FilterFromWinograd", tr.GT, tr.G, tr.T, tr.R, func(d, x *tensor.Mat) { tr.FilterFromWinogradInto(d, x, tmp) }},
	}
	for _, tc := range cases {
		for trial := 0; trial < 20; trial++ {
			x := randTile(rng, tc.in, tc.in, zeroFrac)
			want := sandwichRef(tc.l, x, tc.r)
			got := tensor.NewMat(tc.out, tc.out)
			// Poison dst to prove it is fully overwritten.
			for i := range got.Data {
				got.Data[i] = float32(math.NaN())
			}
			tc.apply(got, x)
			mustBitEqual(t, tr.String()+"/"+tc.name, want, got)
		}
	}
}

// f6x6_5x5 (T = 10) is past every tile size the paper and the planner use;
// MakeTransform compiles its schedules like those of every other size.
var f6x6_5x5 = MustTransform(6, 5)

// The compiled fused schedules must be bit-identical to the generic
// Cook–Toom sandwich for every transform the paper uses, plus the wide
// F(6×6,3×3) (T=8) the planner's tile axis can select behind
// AllowWideTiles.
func TestFusedTransformsBitIdentical(t *testing.T) {
	for _, tr := range []*Transform{F2x2_3x3, F4x4_3x3, F2x2_5x5, F6x6_3x3} {
		if tr.fused == nil {
			t.Fatalf("%s: expected compiled fused schedules", tr)
		}
		checkTransformOps(t, tr, 0.0)
		checkTransformOps(t, tr, 0.4) // zero-heavy data (padding tiles)
	}
}

// F(6×6,5×5) (T = 10) is the size that once took a generic, schedule-less
// fallback. MakeTransform now compiles its schedules like those of every
// other size, and they must match the reference bit-exactly too.
func TestGenericFallbackBitIdentical(t *testing.T) {
	tr, err := MakeTransform(6, 5)
	if err != nil {
		t.Fatal(err)
	}
	if tr.fused == nil {
		t.Fatalf("%s: expected compiled fused schedules", tr)
	}
	for _, zeroFrac := range []float64{0.0, 0.2, 0.4} {
		checkTransformOps(t, tr, zeroFrac)
	}
}

// The wide-tile transforms must run their compiled schedules without
// allocating: they sit under the same steady-state training loops as
// F(2×2,3×3), so a hidden allocation would break the 0 allocs/op kernel
// contract layer-wide.
func TestWideTileTransformsZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, tr := range []*Transform{F4x4_3x3, F6x6_3x3} {
		tmp := make([]float32, tr.TmpLen())
		w := randTile(rng, tr.R, tr.R, 0)
		x := randTile(rng, tr.T, tr.T, 0)
		dw := tensor.NewMat(tr.T, tr.T)
		dx := tensor.NewMat(tr.T, tr.T)
		y := tensor.NewMat(tr.M, tr.M)
		if n := testing.AllocsPerRun(10, func() {
			tr.FilterToWinogradInto(dw, w, tmp)
			tr.InputToWinogradInto(dx, x, tmp)
			tr.OutputFromWinogradInto(y, x, tmp)
		}); n != 0 {
			t.Fatalf("%s: compiled transforms allocate %v/op", tr, n)
		}
	}
}
