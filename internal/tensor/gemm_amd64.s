//go:build amd64 && !purego

#include "textflag.h"

// func kernel4x8(dst *float32, ldd, kc int, as, bs *float32)
//
// 4×8 SGEMM micro-kernel over one packed depth block. Accumulators are
// seeded from dst and stored back, so successive depth blocks extend each
// element's ascending-k accumulation chain (the determinism contract).
// Vector lanes run across output columns only — lane c of X0/X1 is output
// element (row 0, col c) — so every element sees the same scalar IEEE
// mul/add sequence as the reference loop; MULPS/ADDPS round each lane
// independently and SSE2 has no fused multiply-add.
//
// Register plan (16 XMM):
//   X0..X7   accumulators: rows 0..3 × {cols 0-3, cols 4-7}
//   X8, X9   current B row (8 columns)
//   X10, X11 broadcast A element / product temporaries
TEXT ·kernel4x8(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ ldd+8(FP), SI
	MOVQ kc+16(FP), DX
	MOVQ as+24(FP), R8
	MOVQ bs+32(FP), R9

	SHLQ $2, SI              // row stride in bytes
	LEAQ (DI)(SI*2), R10     // &dst[2·ldd]

	// Seed accumulators from the stored partials.
	MOVUPS (DI), X0
	MOVUPS 16(DI), X1
	MOVUPS (DI)(SI*1), X2
	MOVUPS 16(DI)(SI*1), X3
	MOVUPS (R10), X4
	MOVUPS 16(R10), X5
	MOVUPS (R10)(SI*1), X6
	MOVUPS 16(R10)(SI*1), X7

	TESTQ DX, DX
	JZ    store

loop:
	MOVUPS (R9), X8          // b[k][0:4]
	MOVUPS 16(R9), X9        // b[k][4:8]

	MOVSS  (R8), X10         // a[k][0]
	SHUFPS $0x00, X10, X10
	MOVAPS X10, X11
	MULPS  X8, X10
	ADDPS  X10, X0
	MULPS  X9, X11
	ADDPS  X11, X1

	MOVSS  4(R8), X10        // a[k][1]
	SHUFPS $0x00, X10, X10
	MOVAPS X10, X11
	MULPS  X8, X10
	ADDPS  X10, X2
	MULPS  X9, X11
	ADDPS  X11, X3

	MOVSS  8(R8), X10        // a[k][2]
	SHUFPS $0x00, X10, X10
	MOVAPS X10, X11
	MULPS  X8, X10
	ADDPS  X10, X4
	MULPS  X9, X11
	ADDPS  X11, X5

	MOVSS  12(R8), X10       // a[k][3]
	SHUFPS $0x00, X10, X10
	MOVAPS X10, X11
	MULPS  X8, X10
	ADDPS  X10, X6
	MULPS  X9, X11
	ADDPS  X11, X7

	ADDQ $16, R8             // next packed A row (4 floats)
	ADDQ $32, R9             // next packed B row (8 floats)
	DECQ DX
	JNZ  loop

store:
	MOVUPS X0, (DI)
	MOVUPS X1, 16(DI)
	MOVUPS X2, (DI)(SI*1)
	MOVUPS X3, 16(DI)(SI*1)
	MOVUPS X4, (R10)
	MOVUPS X5, 16(R10)
	MOVUPS X6, (R10)(SI*1)
	MOVUPS X7, 16(R10)(SI*1)
	RET

// func kernel8x8avx2(dst *float32, ldd, kc int, as, bs *float32)
//
// 8×8 SGEMM micro-kernel over one packed depth block (AVX2 dispatch tier).
// Same contract as kernel4x8: accumulators seed from dst and store back, k
// ascends, and each YMM lane is one output element — VBROADCASTSS/VMULPS/
// VADDPS round every lane independently exactly like the scalar reference
// chain, so the tier is bit-identical to the SSE2/naive path. No fused
// multiply-add is used here by design: a fused update rounds once where
// the reference rounds twice.
//
// Register plan (16 YMM):
//   Y0..Y7  accumulators: one dst row each (8 columns)
//   Y8      current B row (8 columns)
//   Y9      broadcast A element
//   Y10     product temporary
TEXT ·kernel8x8avx2(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ ldd+8(FP), SI
	MOVQ kc+16(FP), DX
	MOVQ as+24(FP), R8
	MOVQ bs+32(FP), R9

	SHLQ $2, SI              // row stride in bytes
	LEAQ (DI)(SI*2), R10     // &dst[2·ldd]
	LEAQ (R10)(SI*2), R11    // &dst[4·ldd]
	LEAQ (R11)(SI*2), R12    // &dst[6·ldd]

	// Seed accumulators from the stored partials.
	VMOVUPS (DI), Y0
	VMOVUPS (DI)(SI*1), Y1
	VMOVUPS (R10), Y2
	VMOVUPS (R10)(SI*1), Y3
	VMOVUPS (R11), Y4
	VMOVUPS (R11)(SI*1), Y5
	VMOVUPS (R12), Y6
	VMOVUPS (R12)(SI*1), Y7

	TESTQ DX, DX
	JZ    avx2store

avx2loop:
	VMOVUPS (R9), Y8         // b[k][0:8]

	VBROADCASTSS (R8), Y9    // a[k][0]
	VMULPS       Y8, Y9, Y10
	VADDPS       Y10, Y0, Y0
	VBROADCASTSS 4(R8), Y9   // a[k][1]
	VMULPS       Y8, Y9, Y10
	VADDPS       Y10, Y1, Y1
	VBROADCASTSS 8(R8), Y9   // a[k][2]
	VMULPS       Y8, Y9, Y10
	VADDPS       Y10, Y2, Y2
	VBROADCASTSS 12(R8), Y9  // a[k][3]
	VMULPS       Y8, Y9, Y10
	VADDPS       Y10, Y3, Y3
	VBROADCASTSS 16(R8), Y9  // a[k][4]
	VMULPS       Y8, Y9, Y10
	VADDPS       Y10, Y4, Y4
	VBROADCASTSS 20(R8), Y9  // a[k][5]
	VMULPS       Y8, Y9, Y10
	VADDPS       Y10, Y5, Y5
	VBROADCASTSS 24(R8), Y9  // a[k][6]
	VMULPS       Y8, Y9, Y10
	VADDPS       Y10, Y6, Y6
	VBROADCASTSS 28(R8), Y9  // a[k][7]
	VMULPS       Y8, Y9, Y10
	VADDPS       Y10, Y7, Y7

	ADDQ $32, R8             // next packed A row (8 floats)
	ADDQ $32, R9             // next packed B row (8 floats)
	DECQ DX
	JNZ  avx2loop

avx2store:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, (DI)(SI*1)
	VMOVUPS Y2, (R10)
	VMOVUPS Y3, (R10)(SI*1)
	VMOVUPS Y4, (R11)
	VMOVUPS Y5, (R11)(SI*1)
	VMOVUPS Y6, (R12)
	VMOVUPS Y7, (R12)(SI*1)
	VZEROUPPER
	RET

// func schedRowAVX2(dst *float32, n int, terms *RowTerm, nt int, x *float32, xc int)
//
// Schedule-row kernel of the avx2 tier (SchedRowInto):
// dst[j] = +0 + c₀·x[k₀·xc+j] + c₁·x[k₁·xc+j] + … for j < n, with n ≥ 1
// and nt ≥ 1. Lanes run in blocks of 32, 16, 8, 4 and 1. A block's
// accumulators start at +0 and take one VMULPS and one VADDPS per term, in
// term order, so each lane is the scalar chain of the Go reference loop
// (schedRowGo). No fused multiply-add is used.
//
// Every instruction is VEX-encoded, the scalar tail included: a legacy-SSE
// MOVSS/MULSS/ADDSS tail after YMM use pays an SSE/AVX transition on each
// instruction, which made a 15-lane row eight times slower than the Go
// loop (DESIGN.md §8).
//
// Register plan:
//   DI dst, R8 terms, R10 x
//   SI n·4 (end of the lanes), R9 nt·8 (end of the terms), R11 xc·4
//   BX lane offset j·4, CX term offset, AX operand address, DX block end
//   Y0..Y3 accumulators, Y4 broadcast coefficient, Y5..Y8 products

// OPERAND sets AX = &x[k·xc + j] for the term at offset CX.
#define OPERAND \
	MOVLQSX (R8)(CX*1), AX; \
	IMULQ   R11, AX; \
	ADDQ    R10, AX; \
	ADDQ    BX, AX

TEXT ·schedRowAVX2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ n+8(FP), SI
	MOVQ terms+16(FP), R8
	MOVQ nt+24(FP), R9
	MOVQ x+32(FP), R10
	MOVQ xc+40(FP), R11
	SHLQ $2, SI
	SHLQ $3, R9
	SHLQ $2, R11
	XORQ BX, BX

row32:
	LEAQ 128(BX), DX
	CMPQ DX, SI
	JGT  row16
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	XORQ   CX, CX

term32:
	OPERAND
	VBROADCASTSS 4(R8)(CX*1), Y4
	VMULPS       (AX), Y4, Y5
	VADDPS       Y5, Y0, Y0
	VMULPS       32(AX), Y4, Y6
	VADDPS       Y6, Y1, Y1
	VMULPS       64(AX), Y4, Y7
	VADDPS       Y7, Y2, Y2
	VMULPS       96(AX), Y4, Y8
	VADDPS       Y8, Y3, Y3
	ADDQ         $8, CX
	CMPQ         CX, R9
	JLT          term32
	VMOVUPS      Y0, (DI)(BX*1)
	VMOVUPS      Y1, 32(DI)(BX*1)
	VMOVUPS      Y2, 64(DI)(BX*1)
	VMOVUPS      Y3, 96(DI)(BX*1)
	MOVQ         DX, BX
	JMP          row32

	// Fewer than 32 lanes are left: at most one block each of 16, 8 and
	// 4, then up to three single lanes.
row16:
	LEAQ 64(BX), DX
	CMPQ DX, SI
	JGT  row8
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	XORQ   CX, CX

term16:
	OPERAND
	VBROADCASTSS 4(R8)(CX*1), Y4
	VMULPS       (AX), Y4, Y5
	VADDPS       Y5, Y0, Y0
	VMULPS       32(AX), Y4, Y6
	VADDPS       Y6, Y1, Y1
	ADDQ         $8, CX
	CMPQ         CX, R9
	JLT          term16
	VMOVUPS      Y0, (DI)(BX*1)
	VMOVUPS      Y1, 32(DI)(BX*1)
	MOVQ         DX, BX

row8:
	LEAQ 32(BX), DX
	CMPQ DX, SI
	JGT  row4
	VXORPS Y0, Y0, Y0
	XORQ   CX, CX

term8:
	OPERAND
	VBROADCASTSS 4(R8)(CX*1), Y4
	VMULPS       (AX), Y4, Y5
	VADDPS       Y5, Y0, Y0
	ADDQ         $8, CX
	CMPQ         CX, R9
	JLT          term8
	VMOVUPS      Y0, (DI)(BX*1)
	MOVQ         DX, BX

row4:
	LEAQ 16(BX), DX
	CMPQ DX, SI
	JGT  row1
	VXORPS X0, X0, X0
	XORQ   CX, CX

term4:
	OPERAND
	VBROADCASTSS 4(R8)(CX*1), X4
	VMULPS       (AX), X4, X5
	VADDPS       X5, X0, X0
	ADDQ         $8, CX
	CMPQ         CX, R9
	JLT          term4
	VMOVUPS      X0, (DI)(BX*1)
	MOVQ         DX, BX

row1:
	CMPQ BX, SI
	JGE  rowdone
	VXORPS X0, X0, X0
	XORQ   CX, CX

term1:
	OPERAND
	VMOVSS 4(R8)(CX*1), X4
	VMULSS (AX), X4, X5
	VADDSS X5, X0, X0
	ADDQ   $8, CX
	CMPQ   CX, R9
	JLT    term1
	VMOVSS X0, (DI)(BX*1)
	ADDQ   $4, BX
	JMP    row1

rowdone:
	VZEROUPPER
	RET

// func cpuidRaw(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
//
// Raw CPUID — the repo is stdlib-only, so feature detection cannot lean on
// golang.org/x/sys. CPUID is unprivileged and serializing; leaf/subleaf go
// in via EAX/ECX.
TEXT ·cpuidRaw(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbvRaw() (eax, edx uint32)
//
// XGETBV with XCR0 selected: bits 1|2 of EAX report whether the OS saves
// XMM+YMM state across context switches — without them AVX execution
// faults, whatever CPUID says about the silicon.
TEXT ·xgetbvRaw(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
