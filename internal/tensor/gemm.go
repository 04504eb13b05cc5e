package tensor

import (
	"fmt"
	"math"
	"sync"
)

// Cache-blocked, packed SGEMM with a register-tiled micro-kernel. This is
// the per-worker compute kernel under the T² element matrix multiplications
// of the Winograd domain (and the im2col path): the naive (i,k,j) loop in
// MatMulInto is memory-bound on the B operand once the matrices outgrow L1,
// which made our reproduction slow for a reason the paper's NDP analysis
// does not model. Blocking is the standard communication-avoiding structure
// (Chen/Demmel-style bounds for CNN lowering): A is packed into MR-row
// panels and B into NR-column panels so the micro-kernel streams both with
// unit stride.
//
// Determinism contract (DESIGN.md §7/§8): for every output element the
// k-summation runs in strictly ascending k order regardless of the blocking
// parameters — dst is zeroed once up front and the micro-kernel seeds its
// accumulators from the stored partials at the start of each depth (KC)
// block, so the float32 accumulation chain is the single ascending-k chain
// of the reference loop. The SIMD kernel vectorizes across output columns
// (each lane is one output element), never across k, so it computes the
// same chain lane-wise. Results are therefore independent of MC/KC/NC/MR/NR
// and of the worker count of any caller that shards whole GEMMs. The
// reference NN and TN loops skip a zero A operand; where B is finite that
// only elides ±0 addends, which cannot change an accumulator that starts
// at +0, but under a ±Inf or NaN in B it drops the NaN addend 0·Inf or
// 0·NaN that the blocked kernel computes. Dispatch therefore keeps NN and
// TN products whose B is not finite on the reference loops (onReference),
// and every entry point returns the reference's result for every input:
// bit for bit, except for the sign and payload of a NaN, which Go's
// arithmetic leaves open (the reference loop itself yields different NaN
// bits under the race detector's build than under the plain one).
//
// The micro-kernel and its blocking parameters are not fixed: the driver is
// parameterized by the runtime-dispatched tier (gemm_kernel.go), each tier
// bundling one assembly kernel with the MC/KC/NC panel geometry tuned for
// its register tile. The constants below are the portable/SSE2 4×8 geometry
// and the defaults the portable tier reports; wider tiers carry their own.
const (
	gemmMR = 4   // sse2 micro-kernel rows (A panel strip height)
	gemmNR = 8   // sse2 micro-kernel cols (B panel strip width; 2 SSE vectors)
	gemmMC = 128 // rows of A per packed panel; multiple of gemmMR
	gemmKC = 256 // shared depth per packed panel
	gemmNC = 512 // cols of B per packed panel; multiple of gemmNR

	// gemmMaxMR/NR bound any tier's register tile; microKernel's on-stack
	// accumulator block is sized by them.
	gemmMaxMR = 16
	gemmMaxNR = 16

	// gemmMinFlops is the problem size (M·N·K multiply-adds) below which
	// the packing overhead outweighs the blocking win and the naive loops
	// are used instead. BenchmarkGemmCrossover sets it: on the sse2 and
	// avx2 tiers every probed product of 512 multiply-adds or more that
	// meets the two-register-tile rule of smallGemm ran faster blocked,
	// while at 256 (16×16×1) the two paths traded places between runs
	// (EXPERIMENTS.md, "Element-GEMM crossover").
	gemmMinFlops = 1 << 9
)

// GemmScratch holds the packing buffers of the blocked kernel. A zero value
// is ready to use; buffers grow to the panel sizes on first use and are
// reused afterwards, so steady-state calls do not allocate. A GemmScratch
// must not be shared between concurrent GEMMs — parallel callers keep one
// per worker (see winograd.Scratch).
type GemmScratch struct {
	ap []float32 // packed A panel: up to mc × kc of the requesting tier, MR-row strips
	bp []float32 // packed B panel: up to kc × nc of the requesting tier, NR-col strips
}

// panels returns the packing buffers for an m×n×k problem under tier g's
// panel geometry: each buffer is sized to the panel the problem actually
// fills — the tier's full mc×kc / kc×nc panel at most, rounded up to whole
// register-tile strips — so a small element GEMM does not pin the tier's
// full panels. Sizing from the active tier rather than compile-time
// constants is what lets the 8×8 kernels use wider panels without
// overrunning. Buffers only ever grow, so a scratch that has served a
// larger problem or a wider tier keeps satisfying the rest without
// reallocating. The blocking itself is unchanged, so results do not depend
// on the buffer sizes.
func (s *GemmScratch) panels(g *gemmKernel, m, n, k int) (ap, bp []float32) {
	mc := roundUp(min(g.mc, m), g.mr)
	nc := roundUp(min(g.nc, n), g.nr)
	kc := min(g.kc, k)
	if cap(s.ap) < mc*kc {
		s.ap = make([]float32, mc*kc)
	}
	if cap(s.bp) < kc*nc {
		s.bp = make([]float32, kc*nc)
	}
	return s.ap[:mc*kc], s.bp[:kc*nc]
}

// roundUp rounds v up to a multiple of q.
func roundUp(v, q int) int { return (v + q - 1) / q * q }

// gemmPool backs the convenience entry points that do not thread their own
// scratch; hot parallel paths pass an explicit per-worker GemmScratch.
var gemmPool = sync.Pool{New: func() any { return new(GemmScratch) }}

// MatMulNaiveInto computes dst = a×b with the reference (i,k,j) loop. It is
// the semantics baseline the blocked kernel is verified against and the
// small-operand fast path (tiny transform matrices fit in registers/L1
// where packing only adds overhead).
func MatMulNaiveInto(dst, a, b *Mat) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmul shape error dst %dx%d = %dx%d · %dx%d",
			dst.Rows, dst.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	for i := range dst.Data {
		dst.Data[i] = 0
	}
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		drow := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

// MatMulNTNaiveInto computes dst = a×bᵀ with reference row-dot loops
// (b is dst.Cols × a.Cols, consumed in place — no transpose materialized).
func MatMulNTNaiveInto(dst, a, b *Mat) {
	checkNT(dst, a, b)
	k := a.Cols
	for i := 0; i < dst.Rows; i++ {
		arow := a.Data[i*k : (i+1)*k]
		drow := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
		for j := range drow {
			brow := b.Data[j*k : (j+1)*k]
			var acc float32
			for p, av := range arow {
				acc += av * brow[p]
			}
			drow[j] = acc
		}
	}
}

// MatMulTNNaiveInto computes dst = aᵀ×b with the reference k-outer loop
// (a is a.Rows × dst.Rows = K × M, consumed in place). The k-outer order
// keeps each output element's accumulation in ascending k.
func MatMulTNNaiveInto(dst, a, b *Mat) {
	checkTN(dst, a, b)
	for i := range dst.Data {
		dst.Data[i] = 0
	}
	m, n := dst.Rows, dst.Cols
	for k := 0; k < a.Rows; k++ {
		arow := a.Data[k*m : (k+1)*m]
		brow := b.Data[k*n : (k+1)*n]
		for i, av := range arow {
			if av == 0 {
				continue
			}
			drow := dst.Data[i*n : (i+1)*n]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

func checkNT(dst, a, b *Mat) {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmul-nt shape error dst %dx%d = %dx%d · (%dx%d)ᵀ",
			dst.Rows, dst.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

func checkTN(dst, a, b *Mat) {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmul-tn shape error dst %dx%d = (%dx%d)ᵀ · %dx%d",
			dst.Rows, dst.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

// MatMulIntoScratch computes dst = a×b using the blocked kernel with the
// caller's packing scratch (falling back to the naive loop for small
// operands). Steady-state calls perform no allocations.
//
//mptlint:noalloc
func MatMulIntoScratch(dst, a, b *Mat, s *GemmScratch) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmul shape error dst %dx%d = %dx%d · %dx%d",
			dst.Rows, dst.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	countGemm(dst.Rows, dst.Cols, a.Cols)
	g := activeGemm.Load()
	if onReference(g, dst.Rows, dst.Cols, a.Cols, b.Data) {
		MatMulNaiveInto(dst, a, b)
		return
	}
	gemmBlocked(dst, a.Data, a.Cols, b.Data, b.Cols, dst.Rows, dst.Cols, a.Cols, false, false, s, g)
}

// MatMulNTInto computes dst = a×bᵀ without materializing bᵀ: b is stored
// row-major as dst.Cols × a.Cols. This is the bprop form dX = dY·Wᵀ.
//
//mptlint:noalloc
func MatMulNTInto(dst, a, b *Mat) {
	s := gemmPool.Get().(*GemmScratch)
	MatMulNTIntoScratch(dst, a, b, s)
	gemmPool.Put(s)
}

// MatMulNTIntoScratch is MatMulNTInto with caller-owned packing scratch.
//
//mptlint:noalloc
func MatMulNTIntoScratch(dst, a, b *Mat, s *GemmScratch) {
	checkNT(dst, a, b)
	countGemm(dst.Rows, dst.Cols, a.Cols)
	g := activeGemm.Load()
	if smallGemm(g, dst.Rows, dst.Cols, a.Cols) {
		MatMulNTNaiveInto(dst, a, b)
		return
	}
	gemmBlocked(dst, a.Data, a.Cols, b.Data, b.Cols, dst.Rows, dst.Cols, a.Cols, false, true, s, g)
}

// MatMulTNInto computes dst = aᵀ×b without materializing aᵀ: a is stored
// row-major as K × dst.Rows. This is the update-grad form dW = Xᵀ·dY.
//
//mptlint:noalloc
func MatMulTNInto(dst, a, b *Mat) {
	s := gemmPool.Get().(*GemmScratch)
	MatMulTNIntoScratch(dst, a, b, s)
	gemmPool.Put(s)
}

// MatMulTNIntoScratch is MatMulTNInto with caller-owned packing scratch.
//
//mptlint:noalloc
func MatMulTNIntoScratch(dst, a, b *Mat, s *GemmScratch) {
	checkTN(dst, a, b)
	countGemm(dst.Rows, dst.Cols, a.Rows)
	g := activeGemm.Load()
	if onReference(g, dst.Rows, dst.Cols, a.Rows, b.Data) {
		MatMulTNNaiveInto(dst, a, b)
		return
	}
	gemmBlocked(dst, a.Data, a.Cols, b.Data, b.Cols, dst.Rows, dst.Cols, a.Rows, true, false, s, g)
}

// MatMulNT returns a×bᵀ as a new matrix.
func MatMulNT(a, b *Mat) *Mat {
	out := NewMat(a.Rows, b.Rows)
	MatMulNTInto(out, a, b)
	return out
}

// MatMulTN returns aᵀ×b as a new matrix.
func MatMulTN(a, b *Mat) *Mat {
	out := NewMat(a.Cols, b.Cols)
	MatMulTNInto(out, a, b)
	return out
}

// smallGemm reports whether the problem should stay on the reference loops
// under tier g: the portable tier always does (no assembly kernel means the
// packed path has no throughput edge), and every tier keeps operands below
// gemmMinFlops or thinner than two register tiles on them.
func smallGemm(g *gemmKernel, m, n, k int) bool {
	return g.kern == nil || m < 2*g.mr || n < 2*g.nr || m*n*k < gemmMinFlops
}

// onReference reports whether an NN or TN product with B's values b stays
// on the reference loops under tier g: every small one, and every one
// whose B holds ±Inf or NaN. The NN/TN loops skip a zero A operand, so
// they drop the 0·Inf and 0·NaN addends the blocked kernel computes; only
// there can the two differ, so this keeps dispatch from changing any
// result. The NT loops skip nothing and need no such check.
func onReference(g *gemmKernel, m, n, k int, b []float32) bool {
	return smallGemm(g, m, n, k) || !finite(b)
}

// finite reports whether no value of v is ±Inf or NaN, stopping at the
// first that is.
func finite(v []float32) bool {
	const exp = 0x7f800000 // the exponent field: all ones only for ±Inf and NaN
	for _, x := range v {
		if math.Float32bits(x)&exp == exp {
			return false
		}
	}
	return true
}

// gemmBlocked is the blocked driver: dst(M×N) = opA(a)·opB(b) where aT/bT
// select the transposed reading of the row-major storage. lda/ldb are the
// storage row strides (a.Cols / b.Cols of the stored matrices). Panel and
// register-tile geometry come from the dispatch tier g; full tiles run g's
// assembly kernel and edge tiles the portable microKernel.
func gemmBlocked(dst *Mat, a []float32, lda int, b []float32, ldb int, m, n, k int, aT, bT bool, s *GemmScratch, g *gemmKernel) {
	ap, bp := s.panels(g, m, n, k)
	MR, NR := g.mr, g.nr
	ldd := dst.Cols
	for i := range dst.Data {
		dst.Data[i] = 0
	}
	for jc := 0; jc < n; jc += g.nc {
		nc := min(g.nc, n-jc)
		for pc := 0; pc < k; pc += g.kc {
			kc := min(g.kc, k-pc)
			packB(bp, b, ldb, pc, kc, jc, nc, bT, NR)
			for ic := 0; ic < m; ic += g.mc {
				mc := min(g.mc, m-ic)
				packA(ap, a, lda, ic, mc, pc, kc, aT, MR)
				for jr := 0; jr < nc; jr += NR {
					nr := min(NR, nc-jr)
					bs := bp[(jr/NR)*kc*NR:]
					for ir := 0; ir < mc; ir += MR {
						mr := min(MR, mc-ir)
						as := ap[(ir/MR)*kc*MR:]
						if g.kern != nil && mr == MR && nr == NR {
							g.kern(&dst.Data[(ic+ir)*ldd+jc+jr], ldd, kc, &as[0], &bs[0])
						} else {
							microKernel(dst.Data, ldd, ic+ir, jc+jr, mr, nr, kc, as, bs, g)
						}
					}
				}
			}
		}
	}
}

// packA packs the mc×kc block of opA(a) at (ic, pc) into MR-row strips
// (MR = the tier's register-tile height), k-major within each strip:
// ap[strip][k][r]. Strips past the last valid row are zero-padded so the
// micro-kernel needs no row-remainder variant (padded rows are computed but
// never stored).
func packA(ap, a []float32, lda, ic, mc, pc, kc int, aT bool, MR int) {
	for ir := 0; ir < mc; ir += MR {
		strip := ap[(ir/MR)*kc*MR:]
		rows := min(MR, mc-ir)
		if aT {
			// opA(a)[i][k] = a[k][i]: walk k rows of storage.
			for kk := 0; kk < kc; kk++ {
				src := a[(pc+kk)*lda+ic+ir:]
				d := strip[kk*MR:]
				for r := 0; r < rows; r++ {
					d[r] = src[r]
				}
				for r := rows; r < MR; r++ {
					d[r] = 0
				}
			}
		} else {
			for kk := 0; kk < kc; kk++ {
				d := strip[kk*MR:]
				for r := 0; r < rows; r++ {
					d[r] = a[(ic+ir+r)*lda+pc+kk]
				}
				for r := rows; r < MR; r++ {
					d[r] = 0
				}
			}
		}
	}
}

// packB packs the kc×nc block of opB(b) at (pc, jc) into NR-column strips
// (NR = the tier's register-tile width), k-major within each strip:
// bp[strip][k][c], zero-padding partial strips.
func packB(bp, b []float32, ldb, pc, kc, jc, nc int, bT bool, NR int) {
	for jr := 0; jr < nc; jr += NR {
		strip := bp[(jr/NR)*kc*NR:]
		cols := min(NR, nc-jr)
		if bT {
			// opB(b)[k][j] = b[j][k]: each packed column is a storage row.
			for kk := 0; kk < kc; kk++ {
				d := strip[kk*NR:]
				for c := 0; c < cols; c++ {
					d[c] = b[(jc+jr+c)*ldb+pc+kk]
				}
				for c := cols; c < NR; c++ {
					d[c] = 0
				}
			}
		} else {
			for kk := 0; kk < kc; kk++ {
				src := b[(pc+kk)*ldb+jc+jr:]
				d := strip[kk*NR:]
				for c := 0; c < cols; c++ {
					d[c] = src[c]
				}
				for c := cols; c < NR; c++ {
					d[c] = 0
				}
			}
		}
	}
}

// microKernel computes the mr×nr block of dst at (i0, j0) over one packed
// depth block, continuing the stored partial sums: the accumulators are
// seeded from dst (zeroed once by gemmBlocked before the first depth block)
// so each element's k-chain runs in ascending order across blocks — the
// determinism contract. It is the portable fallback for edge tiles and for
// tiers without an assembly kernel, following tier g's register-tile
// geometry. The panel entries past mr/nr are zero padding and are neither
// read into nor stored from the valid region.
func microKernel(dst []float32, ldd, i0, j0, mr, nr, kc int, as, bs []float32, g *gemmKernel) {
	MR, NR := g.mr, g.nr
	var acc [gemmMaxMR * gemmMaxNR]float32
	for r := 0; r < mr; r++ {
		drow := dst[(i0+r)*ldd+j0:]
		arow := acc[r*NR:]
		for c := 0; c < nr; c++ {
			arow[c] = drow[c]
		}
	}
	as = as[: kc*MR : kc*MR]
	bs = bs[: kc*NR : kc*NR]
	for len(as) >= MR && len(bs) >= NR {
		ak := as[:MR]
		bk := bs[:NR]
		as = as[MR:]
		bs = bs[NR:]
		for r := 0; r < MR; r++ {
			av := ak[r]
			arow := acc[r*NR : r*NR+NR]
			for c, bv := range bk {
				arow[c] += av * bv
			}
		}
	}
	for r := 0; r < mr; r++ {
		drow := dst[(i0+r)*ldd+j0:]
		arow := acc[r*NR:]
		for c := 0; c < nr; c++ {
			drow[c] = arow[c]
		}
	}
}
