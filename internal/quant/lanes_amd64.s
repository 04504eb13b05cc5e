//go:build amd64 && !purego

#include "textflag.h"

// func quantizeLanesAVX2(v, qv, res *float32, ov *bool, n int, delta, top, half float32, shift uint64)
//
// Quantizer.Quantize over n lanes (n a multiple of 8), eight at a time.
// delta is Δ, top the top grid point S·(2^R − 1) and half the top region's
// step 2^(R−1), both as float32 (exact: top ≤ 2^24), and shift is log2 S.
// Each lane gets Quantize's qv and res bits, and ov[i] is set when the lane
// overflows (never cleared). The closed form, per lane:
//
//   neg   = !(v ≥ 0)                  a NaN is negative, as in Quantize
//   mag   = v, dd = Δ                 each with its sign flipped on neg lanes
//   quo   = mag / Δ                   Quantize's float32 division
//   over  = !(quo < top)              NaN, +Inf and quo ≥ top all overflow
//   u     = trunc(min(quo, top))      min picks top for a NaN quo
//   step  = 2^min(region(u), R−1)     region(x) = exponent of float32((x>>s)+1)
//   g     = u − ((u − (step−1)<<s) & (step−1))
//
// For finite quo ≥ 0, ⌊quo⌋ ≥ top exactly when quo ≥ top, and Quantize
// flags a NaN explicitly and lands int(+Inf) = MinInt64 in region 63, so
// over is Quantize's overflow test. A calibrated Δ is positive and finite,
// so quo is NaN only for a NaN v; a forced Δ = +Inf or 0 still gives
// Quantize's bits. region(x) is the bit length of (x>>s)+1 less one: the
// exponent of that integer as a float32, exact below 2^24. In range, g
// and step are quantAbsUnits'; an overflowing lane has u = top, and the
// clamped step 2^(R−1) makes g = top, the overflow clamp. Then, on neg
// lanes where Δ·float32(g) < mag, g grows by step, step becomes
// 2^min(region(g), R−1) and the lane overflows if g ≥ top: Quantize's
// floor toward −∞. Finally qv = dd·float32(g) and res = Δ·float32(step).
// Every float32 operation is one Quantize performs, on the same operands,
// so the lanes round alike; g < 2^25 converts the way Go's int64
// conversion does.
//
// Every instruction is VEX-encoded, the constant set-up included: one
// legacy-SSE move after YMM use pays an SSE/AVX transition (DESIGN.md §8).
//
// Register plan:
//   SI v, DI qv, R8 res, R9 ov, DX n, CX lane index
//   Y15 Δ, Y14 top, Y13 half, X12 shift (never a temporary),
//   Y11 all ones (−1), Y10 exponent mask 0xff800000, Y9 sign bit
//   Y0..Y8 temporaries
TEXT ·quantizeLanesAVX2(SB), NOSPLIT, $0-64
	MOVQ         v+0(FP), SI
	MOVQ         qv+8(FP), DI
	MOVQ         res+16(FP), R8
	MOVQ         ov+24(FP), R9
	MOVQ         n+32(FP), DX
	VBROADCASTSS delta+40(FP), Y15
	VBROADCASTSS top+44(FP), Y14
	VBROADCASTSS half+48(FP), Y13
	VMOVQ        shift+56(FP), X12
	VPCMPEQD     Y11, Y11, Y11
	VPSLLD       $23, Y11, Y10
	VPSLLD       $31, Y11, Y9
	XORQ         CX, CX

loop:
	CMPQ CX, DX
	JGE  done

	// Sign and magnitude.
	VMOVUPS (SI)(CX*4), Y0
	VXORPS  Y1, Y1, Y1
	VCMPPS  $0x19, Y1, Y0, Y1 // neg = NGE_UQ(v, 0) = !(v ≥ 0)
	VANDPS  Y9, Y1, Y2        // the sign bit on neg lanes
	VXORPS  Y2, Y0, Y0        // mag
	VXORPS  Y2, Y15, Y2       // dd

	// Quotient and overflow.
	VDIVPS     Y15, Y0, Y3       // quo = mag/Δ
	VCMPPS     $0x15, Y14, Y3, Y4 // over = NLT_UQ(quo, top)
	VMINPS     Y14, Y3, Y3       // quo < top ? quo : top
	VCVTTPS2DQ Y3, Y3            // u

	// step = 2^min(region(u), R−1), as float32 in Y5.
	VPSRLD    X12, Y3, Y5
	VPSUBD    Y11, Y5, Y5 // (u>>s) + 1
	VCVTDQ2PS Y5, Y5
	VANDPS    Y10, Y5, Y5 // 2^region
	VMINPS    Y13, Y5, Y5

	// g = u − ((u − low) & (step−1)), low = (step−1)<<s; step in Y6.
	VCVTTPS2DQ Y5, Y6
	VPADDD     Y11, Y6, Y6 // step − 1
	VPSLLD     X12, Y6, Y7 // low
	VPSUBD     Y7, Y3, Y7
	VPAND      Y6, Y7, Y7
	VPSUBD     Y7, Y3, Y3  // g
	VPSUBD     Y11, Y6, Y6 // step
	VCVTDQ2PS  Y3, Y7      // float32(g)

	// Floor toward −∞ on neg lanes below their grid point: g' = g + step.
	VMULPS    Y15, Y7, Y8       // Δ·float32(g)
	VCMPPS    $0x11, Y0, Y8, Y8 // LT_OQ(Δ·g, mag)
	VANDPS    Y1, Y8, Y8        // fix: that, on neg lanes
	VPADDD    Y6, Y3, Y0        // g'
	VPSRLD    X12, Y0, Y1
	VPSUBD    Y11, Y1, Y1
	VCVTDQ2PS Y1, Y1
	VANDPS    Y10, Y1, Y1
	VMINPS    Y13, Y1, Y1       // 2^min(region(g'), R−1)
	VBLENDVPS Y8, Y1, Y5, Y5    // step
	VCVTDQ2PS Y0, Y0            // float32(g')
	VCMPPS    $0x1d, Y14, Y0, Y1 // GE_OQ(g', top)
	VANDPS    Y8, Y1, Y1
	VORPS     Y1, Y4, Y4        // over
	VBLENDVPS Y8, Y0, Y7, Y7    // float32(g)

	// Outputs.
	VMULPS  Y7, Y2, Y7 // qv = dd·float32(g)
	VMULPS  Y5, Y15, Y5 // res = Δ·float32(step)
	VMOVUPS Y7, (DI)(CX*4)
	VMOVUPS Y5, (R8)(CX*4)

	// ov[i] |= over, eight bools: the lane masks packed to bytes, 0xff → 1.
	VEXTRACTF128 $1, Y4, X0
	VPACKSSDW    X0, X4, X4
	VPACKSSWB    X4, X4, X4
	VPABSB       X4, X4
	VMOVQ        (R9)(CX*1), X0
	VPOR         X0, X4, X4
	VMOVQ        X4, (R9)(CX*1)

	ADDQ $8, CX
	JMP  loop

done:
	VZEROUPPER
	RET
