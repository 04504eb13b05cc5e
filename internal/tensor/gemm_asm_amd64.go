//go:build amd64 && !purego

package tensor

import "strings"

// kernel4x8 computes the full 4×8 tile at dst (row stride ldd float32
// elements) over one packed depth block: it seeds its accumulators from
// dst, then adds as[k·4+r]·bs[k·8+c] for k ascending, and stores the tile
// back. Each SSE lane holds one output element, so the per-element float32
// rounding chain is exactly the scalar ascending-k chain (see the
// determinism contract at the top of gemm.go). SSE2 is part of the amd64
// baseline, so this tier needs no feature probe.
//
//go:noescape
func kernel4x8(dst *float32, ldd, kc int, as, bs *float32)

// kernel8x8avx2 is the 8×8 AVX2 tile kernel (vmulps+vaddps lane chains,
// bit-identical to kernel4x8/naive). See gemm_amd64.s.
//
//go:noescape
func kernel8x8avx2(dst *float32, ldd, kc int, as, bs *float32)

// schedRowAVX2 is the schedule-row kernel of the avx2 tier: it
// writes dst[j] = +0 + Σ c·x[k·xc+j] for the n lanes from the nt terms,
// each lane one VMULPS+VADDPS chain in term order (never fused). It needs
// n ≥ 1 and nt ≥ 1; SchedRowInto bounds-checks every operand row first.
// See gemm_amd64.s.
//
//go:noescape
func schedRowAVX2(dst *float32, n int, terms *RowTerm, nt int, x *float32, xc int)

func cpuidRaw(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbvRaw() (eax, edx uint32)

// cpuHasAVX2 reports *usable* AVX2: the CPUID capability bit AND the
// OSXSAVE/XGETBV confirmation that the OS preserves YMM state (leaf 1 ECX
// bits 27/28, XCR0&6==6, leaf 7.0 EBX bit 5).
var cpuHasAVX2 = detectAVX2()

func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuidRaw(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuidRaw(1, 0)
	const (
		bitOSXSAVE = 1 << 27
		bitAVX     = 1 << 28
	)
	if ecx1&bitOSXSAVE == 0 || ecx1&bitAVX == 0 {
		return false
	}
	if xeax, _ := xgetbvRaw(); xeax&6 != 6 { // XMM (bit 1) + YMM (bit 2)
		return false
	}
	_, ebx7, _, _ := cpuidRaw(7, 0)
	return ebx7&(1<<5) != 0
}

// gemmKernels lists the dispatch tiers this CPU can run, portable first and
// the auto-dispatch choice last. The sse2 tier keeps the historical 4×8
// geometry (tuned constants in gemm.go); the 8×8 avx2 tier widens MC/NC so
// the packed A panel still fits L2 (192·256·4 B = 192 KB) while each B
// strip stays one 8 KB L1 page (256·8·4 B).
var gemmKernels = buildGemmKernels()

func buildGemmKernels() []*gemmKernel {
	ks := []*gemmKernel{
		{name: "portable", mr: gemmMR, nr: gemmNR, mc: gemmMC, kc: gemmKC, nc: gemmNC},
		{name: "sse2", mr: gemmMR, nr: gemmNR, mc: gemmMC, kc: gemmKC, nc: gemmNC, kern: kernel4x8},
	}
	if cpuHasAVX2 {
		ks = append(ks, &gemmKernel{name: "avx2", mr: 8, nr: 8, mc: 192, kc: 256, nc: 1024, kern: kernel8x8avx2, row: schedRowAVX2})
	}
	return ks
}

// CPUFeatures returns the SIMD features usable by the GEMM dispatch (CPUID
// capability gated on OS state saving), independent of the selected tier —
// benchdiff records it next to the tier name in baseline metadata.
func CPUFeatures() string {
	fs := []string{"sse2"}
	if cpuHasAVX2 {
		fs = append(fs, "avx2")
	}
	return strings.Join(fs, "+")
}
