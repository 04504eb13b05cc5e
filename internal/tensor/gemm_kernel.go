package tensor

import (
	"fmt"
	"os"
	"strings"
	"sync/atomic"
)

// Runtime GEMM dispatch. The blocked driver in gemm.go is parameterized by
// a gemmKernel — one register-tiled micro-kernel plus the cache-panel
// geometry tuned for it — and the process selects the fastest tier the CPU
// supports at init (raw CPUID on amd64, no third-party modules). The
// determinism contract stays per-element: every tier computes the same
// ascending-k float32 chain as MatMulNaiveInto, lane-parallel across
// output columns only, and keeps the products where the reference's
// zero-operand skip matters (a non-finite B) on the reference loops, so
// switching tiers (or machines) never changes a result, for any input
// (nor a bit of one, up to the sign and payload of a NaN; see gemm.go).
//
// Tier geometry (per micro-kernel, amd64):
//
//	sse2  4×8  MC=128 KC=256 NC=512   A panel 128 KB (L2), B strip 8 KB (L1)
//	avx2  8×8  MC=192 KC=256 NC=1024  A panel 192 KB (L2), B strip 8 KB (L1)
//
// The portable tier has no assembly micro-kernel and keeps every product on
// the reference loops — the exact behavior of a -tags purego or non-amd64
// build.
//
// Each tier also picks the schedule-row kernel under the Winograd tile
// transforms and activation prediction (SchedRowInto): avx2 runs an AVX2
// assembly kernel, and portable and sse2 the Go reference loop. The
// activation-prediction quantizer's lane kernel
// (internal/quant) follows the same choice through RowKernelAVX2.

// EnvGemmKernel is the environment variable that forces a dispatch tier
// (portable|sse2|avx2); empty or "auto" selects the fastest tier the CPU
// supports. An unsupported forced tier panics at init with the
// available list — CI legs probe availability first (cmd/gemmprobe).
const EnvGemmKernel = "MPTWINO_GEMM_KERNEL"

// gemmKernel is one dispatch tier: a micro-kernel and its blocking.
type gemmKernel struct {
	name   string
	mr, nr int // micro-kernel tile (A strip height × B strip width)
	mc, kc int // packed A panel: mc×kc, mc a multiple of mr
	nc     int // packed B panel: kc×nc, nc a multiple of nr

	// kern computes one full mr×nr tile over a depth block, seeding its
	// accumulators from dst (see kernel4x8). nil marks the portable tier:
	// no blocking edge, every product stays on the naive reference loops.
	kern func(dst *float32, ldd, kc int, as, bs *float32)

	// row is the tier's schedule-row kernel (SchedRowInto): it writes the
	// n lanes at dst from the nt ≥ 1 terms, n ≥ 1, with the Go loop's bits.
	// nil runs the Go reference loop (portable and sse2).
	row func(dst *float32, n int, terms *RowTerm, nt int, x *float32, xc int)
}

// activeGemm is the tier every MatMul* entry point reads (atomically, so
// tests may switch tiers without racing in-flight GEMMs; a GEMM reads it
// once at entry and stays on that tier throughout).
var activeGemm atomic.Pointer[gemmKernel]

func init() {
	// One-time dispatch init: CPUID probe (gemmKernels, per-platform) plus
	// the environment override. Everything downstream is allocation-free.
	if err := SelectGemmKernel(os.Getenv(EnvGemmKernel)); err != nil {
		panic(err)
	}
}

// SelectGemmKernel forces the GEMM dispatch tier by name ("" or "auto"
// restores the CPU-probed default, the last tier listed). It errors —
// without changing the active tier — when the name is unknown or the CPU
// lacks the tier.
func SelectGemmKernel(name string) error {
	if name == "" || name == "auto" {
		activeGemm.Store(gemmKernels[len(gemmKernels)-1])
		return nil
	}
	for _, g := range gemmKernels {
		if g.name == name {
			activeGemm.Store(g)
			return nil
		}
	}
	return fmt.Errorf("tensor: %s=%q is not available on this CPU (available: %s)",
		EnvGemmKernel, name, strings.Join(GemmKernels(), "|"))
}

// GemmKernel returns the active dispatch tier's name — the value benchdiff
// records in baseline metadata.
func GemmKernel() string { return activeGemm.Load().name }

// RowKernelAVX2 reports whether the active tier runs the AVX2 schedule-row
// kernel (avx2). Lane kernels outside this package, such as the
// activation-prediction quantizer's, follow it, so SelectGemmKernel and
// MPTWINO_GEMM_KERNEL switch every lane kernel together.
func RowKernelAVX2() bool { return activeGemm.Load().row != nil }

// GemmKernels lists the tiers this CPU can run, portable first and the
// auto-dispatch choice last.
func GemmKernels() []string {
	out := make([]string, len(gemmKernels))
	for i, g := range gemmKernels {
		out[i] = g.name
	}
	return out
}
