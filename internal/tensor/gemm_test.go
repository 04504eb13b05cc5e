package tensor

import (
	"math"
	"math/rand"
	"testing"
)

func randMat(rng *rand.Rand, rows, cols int, zeroFrac float64) *Mat {
	m := NewMat(rows, cols)
	for i := range m.Data {
		if rng.Float64() < zeroFrac {
			continue // leave a mix of exact zeros to exercise the skip paths
		}
		m.Data[i] = float32(rng.NormFloat64())
	}
	return m
}

func requireBitIdentical(t *testing.T, ctx string, want, got *Mat) {
	t.Helper()
	if want.Rows != got.Rows || want.Cols != got.Cols {
		t.Fatalf("%s: shape %dx%d vs %dx%d", ctx, want.Rows, want.Cols, got.Rows, got.Cols)
	}
	for i := range want.Data {
		if math.Float32bits(want.Data[i]) != math.Float32bits(got.Data[i]) {
			t.Fatalf("%s: element %d: %v (bits %08x) vs %v (bits %08x)",
				ctx, i, want.Data[i], math.Float32bits(want.Data[i]),
				got.Data[i], math.Float32bits(got.Data[i]))
		}
	}
}

// requireSameValues is requireBitIdentical with every NaN equal to every
// other. Go leaves open which NaN an operation on two NaN operands returns
// and may swap an addition's operands, so the sign and payload of a NaN
// result can differ between two builds of the same loop: the reference NT
// loop's NaN bits differ between the race detector's build and the plain
// one. Every other value, ±0 and ±Inf included, must match bit for bit.
func requireSameValues(t *testing.T, ctx string, want, got *Mat) {
	t.Helper()
	if want.Rows != got.Rows || want.Cols != got.Cols {
		t.Fatalf("%s: shape %dx%d vs %dx%d", ctx, want.Rows, want.Cols, got.Rows, got.Cols)
	}
	for i, w := range want.Data {
		g := got.Data[i]
		if math.Float32bits(w) != math.Float32bits(g) && !(w != w && g != g) {
			t.Fatalf("%s: element %d: %v (bits %08x) vs %v (bits %08x)",
				ctx, i, w, math.Float32bits(w), g, math.Float32bits(g))
		}
	}
}

// ulpClose reports whether got is within maxUlps float32 units in the last
// place of want (the scaled-tolerance fallback used by the fuzz target).
func ulpClose(want, got float32, maxUlps int32) bool {
	if math.Float32bits(want) == math.Float32bits(got) {
		return true
	}
	wi := int32(math.Float32bits(want))
	gi := int32(math.Float32bits(got))
	if wi < 0 {
		wi = math.MinInt32 - wi
	}
	if gi < 0 {
		gi = math.MinInt32 - gi
	}
	d := wi - gi
	if d < 0 {
		d = -d
	}
	return d <= maxUlps
}

// The blocked kernel must be bit-identical to the naive reference for
// finite inputs: every output element's float32 accumulation chain is the
// same ascending-k chain, and the reference's zero-skip only elides ±0
// addends (TestGemmNonFiniteOperandsMatchReference covers the rest). Shapes straddle every blocking boundary (MR/NR strip remainders,
// MC/KC/NC panel remainders) and the small-dispatch threshold. The test
// runs against whatever tier is active (MPTWINO_GEMM_KERNEL included), so
// the CI tier matrix re-proves the contract per tier.
func TestBlockedGemmBitIdenticalToNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	shapes := [][3]int{ // {m, n, k}
		{1, 1, 1}, {3, 5, 7}, {4, 4, 4}, {5, 9, 3},
		{gemmMR, gemmNR, 10}, {gemmMR + 1, gemmNR + 1, 10},
		{2*gemmMR - 1, 2*gemmNR - 1, 33},
		{63, 65, 67}, {128, 64, 64}, {129, 65, 257},
		{gemmMC, gemmNR * 2, gemmKC}, {gemmMC + 1, 37, gemmKC + 1},
		{40, gemmNC + 3, 19}, {97, 101, 103},
	}
	g := activeGemm.Load()
	for _, sh := range shapes {
		m, n, k := sh[0], sh[1], sh[2]
		a := randMat(rng, m, k, 0.15)
		b := randMat(rng, k, n, 0.15)
		want := NewMat(m, n)
		MatMulNaiveInto(want, a, b)

		got := NewMat(m, n)
		var s GemmScratch
		gemmBlocked(got, a.Data, a.Cols, b.Data, b.Cols, m, n, k, false, false, &s, g)
		requireBitIdentical(t, "blocked NN", want, got)

		// Public dispatch (small shapes take the naive path, large the
		// blocked one; either way bits must match the reference).
		got.Zero()
		MatMulInto(got, a, b)
		requireBitIdentical(t, "MatMulInto", want, got)

		// NT: same product with b stored transposed (n×k).
		bt := b.T()
		gotNT := NewMat(m, n)
		wantNT := NewMat(m, n)
		MatMulNTNaiveInto(wantNT, a, bt)
		gemmBlocked(gotNT, a.Data, a.Cols, bt.Data, bt.Cols, m, n, k, false, true, &s, g)
		requireBitIdentical(t, "blocked NT", wantNT, gotNT)
		gotNT.Zero()
		MatMulNTInto(gotNT, a, bt)
		requireBitIdentical(t, "MatMulNTInto", wantNT, gotNT)

		// TN: same product with a stored transposed (k×m).
		at := a.T()
		gotTN := NewMat(m, n)
		gemmBlocked(gotTN, at.Data, at.Cols, b.Data, b.Cols, m, n, k, true, false, &s, g)
		wantTN := NewMat(m, n)
		MatMulTNNaiveInto(wantTN, at, b)
		requireBitIdentical(t, "blocked TN", wantTN, gotTN)
		gotTN.Zero()
		MatMulTNInto(gotTN, at, b)
		requireBitIdentical(t, "MatMulTNInto", wantTN, gotTN)
	}
}

// All three variants compute the same mathematical product; across variants
// only the (fixed, per-variant) reduction shape may differ, so results must
// agree within a few ulps.
func TestGemmVariantsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, sh := range [][3]int{{33, 29, 41}, {130, 70, 64}, {9, 520, 17}} {
		m, n, k := sh[0], sh[1], sh[2]
		a := randMat(rng, m, k, 0.1)
		b := randMat(rng, k, n, 0.1)
		nn := MatMul(a, b)
		nt := MatMulNT(a, b.T())
		tn := MatMulTN(a.T(), b)
		for i := range nn.Data {
			if !ulpClose(nn.Data[i], nt.Data[i], 128) {
				t.Fatalf("NT diverges at %d: %v vs %v", i, nn.Data[i], nt.Data[i])
			}
			if !ulpClose(nn.Data[i], tn.Data[i], 128) {
				t.Fatalf("TN diverges at %d: %v vs %v", i, nn.Data[i], tn.Data[i])
			}
		}
	}
}

// The blocked result must not depend on where the panel boundaries fall.
// gemmBlocked is deliberately written so the k-chain per element is blocking
// independent; this cross-checks the seeded-accumulator logic by comparing
// a multi-KC-block problem against the naive single-chain reference with
// adversarial content in dst beforehand (Into semantics: dst is overwritten).
func TestBlockedGemmOverwritesDst(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m, n, k := 70, 40, 2*gemmKC+17
	a := randMat(rng, m, k, 0)
	b := randMat(rng, k, n, 0)
	want := NewMat(m, n)
	MatMulNaiveInto(want, a, b)
	got := NewMat(m, n)
	for i := range got.Data {
		got.Data[i] = float32(math.NaN())
	}
	MatMulInto(got, a, b)
	requireBitIdentical(t, "dirty dst", want, got)
}

func TestMatMulNTTNShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected shape panic")
		}
	}()
	MatMulNTInto(NewMat(2, 3), NewMat(2, 4), NewMat(3, 5))
}

func TestTIntoCloneInto(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := randMat(rng, 5, 8, 0)
	tr := NewMat(8, 5)
	m.TInto(tr)
	requireBitIdentical(t, "TInto", m.T(), tr)
	cp := NewMat(5, 8)
	m.CloneInto(cp)
	requireBitIdentical(t, "CloneInto", m, cp)
}

// FuzzBlockedGemmMatchesNaive drives random shapes (biased toward blocking
// remainders) and random data, requiring bit-identity with the naive
// reference for all three operand layouts.
func FuzzBlockedGemmMatchesNaive(f *testing.F) {
	f.Add(int64(1), uint8(33), uint8(29), uint8(41))
	f.Add(int64(2), uint8(130), uint8(70), uint8(255))
	f.Add(int64(3), uint8(4), uint8(4), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, mb, nb, kb uint8) {
		m, n, k := int(mb)+1, int(nb)+1, int(kb)+1
		rng := rand.New(rand.NewSource(seed))
		a := randMat(rng, m, k, 0.2)
		b := randMat(rng, k, n, 0.2)
		// Every tier this CPU can run must match the reference loops; the
		// active tier is restored by the caller-level cleanup below.
		defer restoreGemmKernel(t)
		for _, name := range GemmKernels() {
			if err := SelectGemmKernel(name); err != nil {
				t.Fatal(err)
			}
			g := activeGemm.Load()
			want := NewMat(m, n)
			MatMulNaiveInto(want, a, b)
			var s GemmScratch
			got := NewMat(m, n)
			gemmBlocked(got, a.Data, a.Cols, b.Data, b.Cols, m, n, k, false, false, &s, g)
			requireBitIdentical(t, "fuzz NN "+name, want, got)
			bt := b.T()
			gemmBlocked(got, a.Data, a.Cols, bt.Data, bt.Cols, m, n, k, false, true, &s, g)
			wantNT := NewMat(m, n)
			MatMulNTNaiveInto(wantNT, a, bt)
			requireBitIdentical(t, "fuzz NT "+name, wantNT, got)
			at := a.T()
			gemmBlocked(got, at.Data, at.Cols, b.Data, b.Cols, m, n, k, true, false, &s, g)
			wantTN := NewMat(m, n)
			MatMulTNNaiveInto(wantTN, at, b)
			requireBitIdentical(t, "fuzz TN "+name, wantTN, got)
		}
	})
}
