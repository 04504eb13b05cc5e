package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
)

// restoreGemmKernel re-applies the process's configured tier (environment
// override included) when the test finishes, so tier-switching tests leave
// the suite in the state the CI leg forced.
func restoreGemmKernel(t testing.TB) {
	t.Helper()
	if err := SelectGemmKernel(os.Getenv(EnvGemmKernel)); err != nil {
		t.Fatal(err)
	}
}

func TestGemmKernelSelection(t *testing.T) {
	defer restoreGemmKernel(t)

	names := GemmKernels()
	if len(names) == 0 || names[0] != "portable" {
		t.Fatalf("tier list must start with portable, got %v", names)
	}
	for _, name := range names {
		if name != "portable" && name != "sse2" && name != "avx2" {
			t.Fatalf("tier list %v holds %q, want names from portable, sse2, avx2", names, name)
		}
		if err := SelectGemmKernel(name); err != nil {
			t.Fatalf("selecting listed tier %q: %v", name, err)
		}
		if got := GemmKernel(); got != name {
			t.Fatalf("active tier %q after selecting %q", got, name)
		}
	}

	// Unknown tiers, "fma" among them (no tier fuses its multiply-adds),
	// must fail without clobbering the active one.
	before := GemmKernel()
	for _, name := range []string{"avx512-unobtainium", "fma"} {
		if err := SelectGemmKernel(name); err == nil || !strings.Contains(err.Error(), "not available") {
			t.Fatalf("selecting %q: error %v, want the not-available error", name, err)
		}
		if got := GemmKernel(); got != before {
			t.Fatalf("failed selection of %q changed the active tier: %q -> %q", name, before, got)
		}
	}

	// Auto dispatch picks the last tier listed.
	if err := SelectGemmKernel("auto"); err != nil {
		t.Fatal(err)
	}
	if got := GemmKernel(); got != names[len(names)-1] {
		t.Fatalf("auto dispatch selected %q, want the last tier of %v", got, names)
	}
}

// TestGemmAllTiersTailShapes forces every tier this CPU supports and runs
// the full NN/NT/TN entry-point set over shapes straddling each tier's own
// register-tile boundaries (m,n,k ∈ {1, MR−1, MR, MR+1, 2·MR+1, …}),
// requiring bit-identity with the reference loops. Together with the
// CI tier matrix (which forces tiers via MPTWINO_GEMM_KERNEL at the process
// level) this pins the per-tier determinism contract.
func TestGemmAllTiersTailShapes(t *testing.T) {
	defer restoreGemmKernel(t)
	rng := rand.New(rand.NewSource(99))
	for _, name := range GemmKernels() {
		if err := SelectGemmKernel(name); err != nil {
			t.Fatal(err)
		}
		g := activeGemm.Load()
		dims := []int{1, g.mr - 1, g.mr, g.mr + 1, 2*g.mr + 1, g.nr - 1, g.nr, g.nr + 1, 2*g.nr + 1, 3 * g.nr}
		ks := []int{1, 2, g.kc - 1, g.kc, g.kc + 1, 37}
		for _, m := range dims {
			if m < 1 {
				continue
			}
			for _, n := range dims {
				if n < 1 {
					continue
				}
				for _, k := range ks {
					a := randMat(rng, m, k, 0.15)
					b := randMat(rng, k, n, 0.15)
					want := NewMat(m, n)
					MatMulNaiveInto(want, a, b)
					got := NewMat(m, n)
					MatMulInto(got, a, b)
					requireBitIdentical(t, name+" NN", want, got)

					bt := b.T()
					wantNT := NewMat(m, n)
					MatMulNTNaiveInto(wantNT, a, bt)
					got.Zero()
					MatMulNTInto(got, a, bt)
					requireBitIdentical(t, name+" NT", wantNT, got)

					at := a.T()
					wantTN := NewMat(m, n)
					MatMulTNNaiveInto(wantTN, at, b)
					got.Zero()
					MatMulTNInto(got, at, b)
					requireBitIdentical(t, name+" TN", wantTN, got)
				}
			}
		}
	}
}

// TestGemmUnfusedTiersBitIdentical locks the headline dispatch guarantee:
// every tier, each an unfused mul+add chain, produces the same bits for
// the same inputs, so the auto choice (which varies by CPU) never changes
// results.
func TestGemmUnfusedTiersBitIdentical(t *testing.T) {
	defer restoreGemmKernel(t)
	rng := rand.New(rand.NewSource(1234))
	m, n, k := 129, 130, 2*gemmKC+17
	a := randMat(rng, m, k, 0.1)
	b := randMat(rng, k, n, 0.1)
	var ref *Mat
	var refName string
	for _, name := range GemmKernels() {
		if err := SelectGemmKernel(name); err != nil {
			t.Fatal(err)
		}
		got := NewMat(m, n)
		MatMulInto(got, a, b)
		if ref == nil {
			ref, refName = got, name
			continue
		}
		requireBitIdentical(t, refName+" vs "+name, ref, got)
	}
}

// TestGemmScratchPanelsPerTier pins the packing-buffer sizing: a problem
// at least one panel in every dimension gets the requesting tier's full
// panels (so wide tiers never overrun), a small one only the register-tile
// strips it fills, and buffers grow monotonically, so narrow tiers and
// small problems reuse wide allocations.
func TestGemmScratchPanelsPerTier(t *testing.T) {
	defer restoreGemmKernel(t)
	var s GemmScratch
	maxAP, maxBP := 0, 0
	for _, name := range GemmKernels() {
		if err := SelectGemmKernel(name); err != nil {
			t.Fatal(err)
		}
		g := activeGemm.Load()
		// A 16×48×48 element GEMM fills whole strips of the tile only.
		small := GemmScratch{}
		ap, bp := small.panels(g, 16, 48, 48)
		if wantA, wantB := roundUp(16, g.mr)*48, 48*roundUp(48, g.nr); len(ap) != wantA || len(bp) != wantB {
			t.Fatalf("%s: 16x48x48 panels %d/%d, want %d/%d", name, len(ap), len(bp), wantA, wantB)
		}
		if cap(small.ap) != len(ap) || cap(small.bp) != len(bp) {
			t.Fatalf("%s: 16x48x48 panels allocate %d/%d, want %d/%d", name, cap(small.ap), cap(small.bp), len(ap), len(bp))
		}
		// Ragged edges round up to the register tile.
		ap, bp = small.panels(g, g.mr+1, g.nr+1, 3)
		if len(ap) != 2*g.mr*3 || len(bp) != 3*2*g.nr {
			t.Fatalf("%s: ragged panels %d/%d, want %d/%d", name, len(ap), len(bp), 2*g.mr*3, 3*2*g.nr)
		}
		ap, bp = s.panels(g, 4*g.mc, 4*g.nc, 4*g.kc)
		if len(ap) != g.mc*g.kc || len(bp) != g.kc*g.nc {
			t.Fatalf("%s: panels %d/%d, want %d/%d", name, len(ap), len(bp), g.mc*g.kc, g.kc*g.nc)
		}
		if g.mc*g.kc > maxAP {
			maxAP = g.mc * g.kc
		}
		if g.kc*g.nc > maxBP {
			maxBP = g.kc * g.nc
		}
		// A small problem after a large one reuses the large buffers.
		before := cap(s.ap)
		s.panels(g, 16, 48, 48)
		if cap(s.ap) != before {
			t.Fatalf("%s: small problem reallocated the grown A panel", name)
		}
	}
	// Buffers grow monotonically: after serving every tier the capacity is
	// the maximum requirement, not the last tier's.
	if cap(s.ap) < maxAP || cap(s.bp) < maxBP {
		t.Fatalf("scratch shrank below the widest tier: cap %d/%d, want ≥ %d/%d",
			cap(s.ap), cap(s.bp), maxAP, maxBP)
	}
}

// TestGemmNonFiniteOperandsMatchReference: with ±0 in A and ±Inf and NaN
// in B, NN, NT and TN products through the public entry points equal the
// reference loops on every tier — their zero-operand skip included, which
// drops the 0·Inf and 0·NaN addends the blocked kernel would compute — bit
// for bit except for which NaN a NaN result is (requireSameValues). Shapes
// lie on both sides of the crossover; the last spans two depth panels and
// holds its non-finite values in the second only.
func TestGemmNonFiniteOperandsMatchReference(t *testing.T) {
	defer restoreGemmKernel(t)
	specials := []float32{float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())}
	for _, name := range GemmKernels() {
		if err := SelectGemmKernel(name); err != nil {
			t.Fatal(err)
		}
		g := activeGemm.Load()
		rng := rand.New(rand.NewSource(5))
		for _, sh := range [][4]int{ // {m, n, k, first depth row holding a non-finite value}
			{5, 7, 3, 0}, {16, 32, 8, 0}, {16, 48, 32, 0}, {64, 64, 64, 0}, {40, 24, g.kc + 37, g.kc},
		} {
			m, n, k, k0 := sh[0], sh[1], sh[2], sh[3]
			a := randMat(rng, m, k, 0.3)
			for i, v := range a.Data {
				if v == 0 && rng.Intn(2) == 0 {
					a.Data[i] = float32(math.Copysign(0, -1))
				}
			}
			b := randMat(rng, k, n, 0)
			for i := 0; i < 3+n/8; i++ {
				b.Set(k0+rng.Intn(k-k0), rng.Intn(n), specials[rng.Intn(len(specials))])
			}
			ctx := func(op string) string { return fmt.Sprintf("%s %s %dx%dx%d", name, op, m, n, k) }

			want, got := NewMat(m, n), NewMat(m, n)
			MatMulNaiveInto(want, a, b)
			MatMulInto(got, a, b)
			requireSameValues(t, ctx("MatMulInto"), want, got)
			var s GemmScratch
			got.Zero()
			MatMulIntoScratch(got, a, b, &s)
			requireSameValues(t, ctx("MatMulIntoScratch"), want, got)

			bt := b.T()
			MatMulNTNaiveInto(want, a, bt)
			got.Zero()
			MatMulNTInto(got, a, bt)
			requireSameValues(t, ctx("MatMulNTInto"), want, got)

			at := a.T()
			MatMulTNNaiveInto(want, at, b)
			got.Zero()
			MatMulTNInto(got, at, b)
			requireSameValues(t, ctx("MatMulTNInto"), want, got)
		}
	}
}
