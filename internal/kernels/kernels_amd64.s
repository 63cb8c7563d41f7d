// AVX bodies for the hottest kernels. Bit-exactness: axpyAVX, gradQuadAVX
// and matmulRowAVX use only VMULPD / VADDPD / VSUBPD (and their scalar SD
// forms in the tails) — each lane performs the exact IEEE-754 operation of
// the corresponding scalar Go expression, and no FMA contraction is
// introduced — so they produce bit-identical results to the pure-Go bodies
// (asserted by the package's property tests, which run both paths on
// amd64). sigmoidAVX uses FMA exactly where math.Exp's own FMA branch does;
// see its comment.

#include "textflag.h"

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() uint32
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET

// func axpyAVX(alpha float64, x, y []float64)
//
// y[i] += alpha * x[i]. Requires len(y) >= len(x); iterates over x.
// Each element: one VMULPD lane (alpha*x rounded) then one VADDPD lane
// (+y rounded) — the exact two roundings of the scalar loop.
TEXT ·axpyAVX(SB), NOSPLIT, $0-56
	MOVSD alpha+0(FP), X0
	MOVQ  x_base+8(FP), SI
	MOVQ  x_len+16(FP), CX
	MOVQ  y_base+32(FP), DI
	VBROADCASTSD X0, Y0
	XORQ  AX, AX
	MOVQ  CX, BX
	ANDQ  $-4, BX

axpyloop4:
	CMPQ AX, BX
	JGE  axpytail
	VMOVUPD (SI)(AX*8), Y1
	VMULPD  Y0, Y1, Y1
	VADDPD  (DI)(AX*8), Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ $4, AX
	JMP  axpyloop4

axpytail:
	// VEX-encoded scalar ops: legacy SSE here would pay an AVX-SSE
	// transition penalty on every call whose length is not a multiple
	// of four.
	CMPQ AX, CX
	JGE  axpydone
	VMOVSD (SI)(AX*8), X1
	VMULSD X0, X1, X1
	VADDSD (DI)(AX*8), X1, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ   AX
	JMP    axpytail

axpydone:
	VZEROUPPER
	RET

// func gradQuadAVX(g, p, q []float64, wx, wv *[4]float64)
//
// Adds four weighted instance contributions to the gradient row g:
//
//	g[j] += wx[0]*p0[j] - wv[0]*q0[j]   ... then instances 1, 2, 3
//
// where p and q each hold four consecutive len(g)-long rows. Per element
// and instance, the operation sequence is mul, mul, sub, add — the exact
// four roundings of the scalar expression, applied in instance order onto
// a register accumulator that replaces the scalar loop's exact store/load
// round-trips.
TEXT ·gradQuadAVX(SB), NOSPLIT, $0-88
	MOVQ g_base+0(FP), DI
	MOVQ g_len+8(FP), CX
	MOVQ p_base+24(FP), SI
	MOVQ q_base+48(FP), DX
	MOVQ wx+72(FP), R8
	MOVQ wv+80(FP), R9

	VBROADCASTSD 0(R8), Y0
	VBROADCASTSD 8(R8), Y1
	VBROADCASTSD 16(R8), Y2
	VBROADCASTSD 24(R8), Y3
	VBROADCASTSD 0(R9), Y4
	VBROADCASTSD 8(R9), Y5
	VBROADCASTSD 16(R9), Y6
	VBROADCASTSD 24(R9), Y7

	// Row pointers: stride = len(g)*8 bytes; R10 holds the stride until the
	// last row pointer is formed, then becomes q3.
	MOVQ CX, R10
	SHLQ $3, R10
	LEAQ (SI)(R10*1), R8
	LEAQ (R8)(R10*1), R9
	LEAQ (R9)(R10*1), R11
	LEAQ (DX)(R10*1), R12
	LEAQ (R12)(R10*1), R13
	LEAQ (R13)(R10*1), R10

	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $-4, BX

gradloop4:
	CMPQ AX, BX
	JGE  gradtail
	VMOVUPD (DI)(AX*8), Y8

	VMOVUPD (SI)(AX*8), Y9
	VMULPD  Y0, Y9, Y9
	VMOVUPD (DX)(AX*8), Y10
	VMULPD  Y4, Y10, Y10
	VSUBPD  Y10, Y9, Y9
	VADDPD  Y9, Y8, Y8

	VMOVUPD (R8)(AX*8), Y9
	VMULPD  Y1, Y9, Y9
	VMOVUPD (R12)(AX*8), Y10
	VMULPD  Y5, Y10, Y10
	VSUBPD  Y10, Y9, Y9
	VADDPD  Y9, Y8, Y8

	VMOVUPD (R9)(AX*8), Y9
	VMULPD  Y2, Y9, Y9
	VMOVUPD (R13)(AX*8), Y10
	VMULPD  Y6, Y10, Y10
	VSUBPD  Y10, Y9, Y9
	VADDPD  Y9, Y8, Y8

	VMOVUPD (R11)(AX*8), Y9
	VMULPD  Y3, Y9, Y9
	VMOVUPD (R10)(AX*8), Y10
	VMULPD  Y7, Y10, Y10
	VSUBPD  Y10, Y9, Y9
	VADDPD  Y9, Y8, Y8

	VMOVUPD Y8, (DI)(AX*8)
	ADDQ $4, AX
	JMP  gradloop4

gradtail:
	// VEX-encoded scalar ops: see axpytail.
	CMPQ AX, CX
	JGE  graddone
	VMOVSD (DI)(AX*8), X8

	VMOVSD (SI)(AX*8), X9
	VMULSD X0, X9, X9
	VMOVSD (DX)(AX*8), X10
	VMULSD X4, X10, X10
	VSUBSD X10, X9, X9
	VADDSD X9, X8, X8

	VMOVSD (R8)(AX*8), X9
	VMULSD X1, X9, X9
	VMOVSD (R12)(AX*8), X10
	VMULSD X5, X10, X10
	VSUBSD X10, X9, X9
	VADDSD X9, X8, X8

	VMOVSD (R9)(AX*8), X9
	VMULSD X2, X9, X9
	VMOVSD (R13)(AX*8), X10
	VMULSD X6, X10, X10
	VSUBSD X10, X9, X9
	VADDSD X9, X8, X8

	VMOVSD (R11)(AX*8), X9
	VMULSD X3, X9, X9
	VMOVSD (R10)(AX*8), X10
	VMULSD X7, X10, X10
	VSUBSD X10, X9, X9
	VADDSD X9, X8, X8

	VMOVSD X8, (DI)(AX*8)
	INCQ   AX
	JMP    gradtail

graddone:
	VZEROUPPER
	RET

// func matmulRowAVX(dst, a, b []float64)
//
// One MatMul output row: dst[c] += Σ_i a[i]*b[i*n+c] with n = len(dst) and
// k = len(a), skipping a[i] == 0 rows (bit test, so ±0.0 both skip, exactly
// like the Go loop's `ai == 0`). Columns are processed in register-resident
// chunks of 16/4/1: per element the products accumulate in ascending i with
// one VMULPD and one VADDPD lane each — the exact roundings of the scalar
// loop — and the chunk registers only replace exact store/load round-trips.
TEXT ·matmulRowAVX(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ a_base+24(FP), R11
	MOVQ a_len+32(FP), R12
	MOVQ b_base+48(FP), DX
	MOVQ CX, R9
	SHLQ $3, R9                  // b row stride in bytes
	XORQ R10, R10                // c0: first column of the current chunk

chunk16:
	LEAQ 16(R10), AX
	CMPQ AX, CX
	JGT  chunk4
	LEAQ (DX)(R10*8), BX
	VMOVUPD (DI)(R10*8), Y8
	VMOVUPD 32(DI)(R10*8), Y9
	VMOVUPD 64(DI)(R10*8), Y10
	VMOVUPD 96(DI)(R10*8), Y11
	MOVQ R11, SI
	MOVQ R12, R13
	TESTQ R13, R13
	JZ   store16

i16:
	MOVQ (SI), AX
	SHLQ $1, AX
	JZ   skip16
	VBROADCASTSD (SI), Y0
	VMOVUPD (BX), Y12
	VMULPD  Y0, Y12, Y12
	VADDPD  Y12, Y8, Y8
	VMOVUPD 32(BX), Y13
	VMULPD  Y0, Y13, Y13
	VADDPD  Y13, Y9, Y9
	VMOVUPD 64(BX), Y14
	VMULPD  Y0, Y14, Y14
	VADDPD  Y14, Y10, Y10
	VMOVUPD 96(BX), Y15
	VMULPD  Y0, Y15, Y15
	VADDPD  Y15, Y11, Y11

skip16:
	ADDQ $8, SI
	ADDQ R9, BX
	DECQ R13
	JNZ  i16

store16:
	VMOVUPD Y8, (DI)(R10*8)
	VMOVUPD Y9, 32(DI)(R10*8)
	VMOVUPD Y10, 64(DI)(R10*8)
	VMOVUPD Y11, 96(DI)(R10*8)
	ADDQ $16, R10
	JMP  chunk16

chunk4:
	LEAQ 4(R10), AX
	CMPQ AX, CX
	JGT  tail1
	LEAQ (DX)(R10*8), BX
	VMOVUPD (DI)(R10*8), Y8
	MOVQ R11, SI
	MOVQ R12, R13
	TESTQ R13, R13
	JZ   store4

i4:
	MOVQ (SI), AX
	SHLQ $1, AX
	JZ   skip4
	VBROADCASTSD (SI), Y0
	VMOVUPD (BX), Y12
	VMULPD  Y0, Y12, Y12
	VADDPD  Y12, Y8, Y8

skip4:
	ADDQ $8, SI
	ADDQ R9, BX
	DECQ R13
	JNZ  i4

store4:
	VMOVUPD Y8, (DI)(R10*8)
	ADDQ $4, R10
	JMP  chunk4

tail1:
	CMPQ R10, CX
	JGE  rowdone
	LEAQ (DX)(R10*8), BX
	VMOVSD (DI)(R10*8), X8
	MOVQ R11, SI
	MOVQ R12, R13
	TESTQ R13, R13
	JZ   store1

i1:
	MOVQ (SI), AX
	SHLQ $1, AX
	JZ   skip1
	VMOVSD (SI), X0
	VMOVSD (BX), X12
	VMULSD X0, X12, X12
	VADDSD X12, X8, X8

skip1:
	ADDQ $8, SI
	ADDQ R9, BX
	DECQ R13
	JNZ  i1

store1:
	VMOVSD X8, (DI)(R10*8)
	INCQ R10
	JMP  tail1

rowdone:
	VZEROUPPER
	RET

// Constants of sigmoidAVX, each replicated across the four lanes. The
// floating-point literals are the ones $GOROOT/src/math/exp_amd64.s uses, so
// the assembler produces the same float64 bits.
DATA sigc<>+0(SB)/8, $0x8000000000000000 // sign bit
DATA sigc<>+8(SB)/8, $0x8000000000000000
DATA sigc<>+16(SB)/8, $0x8000000000000000
DATA sigc<>+24(SB)/8, $0x8000000000000000
DATA sigc<>+32(SB)/8, $1.4426950408889634073599246810018920 // LOG2E
DATA sigc<>+40(SB)/8, $1.4426950408889634073599246810018920
DATA sigc<>+48(SB)/8, $1.4426950408889634073599246810018920
DATA sigc<>+56(SB)/8, $1.4426950408889634073599246810018920
DATA sigc<>+64(SB)/8, $0.69314718055966295651160180568695068359375 // LN2U
DATA sigc<>+72(SB)/8, $0.69314718055966295651160180568695068359375
DATA sigc<>+80(SB)/8, $0.69314718055966295651160180568695068359375
DATA sigc<>+88(SB)/8, $0.69314718055966295651160180568695068359375
DATA sigc<>+96(SB)/8, $0.28235290563031577122588448175013436025525412068e-12 // LN2L
DATA sigc<>+104(SB)/8, $0.28235290563031577122588448175013436025525412068e-12
DATA sigc<>+112(SB)/8, $0.28235290563031577122588448175013436025525412068e-12
DATA sigc<>+120(SB)/8, $0.28235290563031577122588448175013436025525412068e-12
DATA sigc<>+128(SB)/8, $0.0625
DATA sigc<>+136(SB)/8, $0.0625
DATA sigc<>+144(SB)/8, $0.0625
DATA sigc<>+152(SB)/8, $0.0625
DATA sigc<>+160(SB)/8, $2.4801587301587301587e-5
DATA sigc<>+168(SB)/8, $2.4801587301587301587e-5
DATA sigc<>+176(SB)/8, $2.4801587301587301587e-5
DATA sigc<>+184(SB)/8, $2.4801587301587301587e-5
DATA sigc<>+192(SB)/8, $1.9841269841269841270e-4
DATA sigc<>+200(SB)/8, $1.9841269841269841270e-4
DATA sigc<>+208(SB)/8, $1.9841269841269841270e-4
DATA sigc<>+216(SB)/8, $1.9841269841269841270e-4
DATA sigc<>+224(SB)/8, $1.3888888888888888889e-3
DATA sigc<>+232(SB)/8, $1.3888888888888888889e-3
DATA sigc<>+240(SB)/8, $1.3888888888888888889e-3
DATA sigc<>+248(SB)/8, $1.3888888888888888889e-3
DATA sigc<>+256(SB)/8, $8.3333333333333333333e-3
DATA sigc<>+264(SB)/8, $8.3333333333333333333e-3
DATA sigc<>+272(SB)/8, $8.3333333333333333333e-3
DATA sigc<>+280(SB)/8, $8.3333333333333333333e-3
DATA sigc<>+288(SB)/8, $4.1666666666666666667e-2
DATA sigc<>+296(SB)/8, $4.1666666666666666667e-2
DATA sigc<>+304(SB)/8, $4.1666666666666666667e-2
DATA sigc<>+312(SB)/8, $4.1666666666666666667e-2
DATA sigc<>+320(SB)/8, $1.6666666666666666667e-1
DATA sigc<>+328(SB)/8, $1.6666666666666666667e-1
DATA sigc<>+336(SB)/8, $1.6666666666666666667e-1
DATA sigc<>+344(SB)/8, $1.6666666666666666667e-1
DATA sigc<>+352(SB)/8, $0.5
DATA sigc<>+360(SB)/8, $0.5
DATA sigc<>+368(SB)/8, $0.5
DATA sigc<>+376(SB)/8, $0.5
DATA sigc<>+384(SB)/8, $1.0
DATA sigc<>+392(SB)/8, $1.0
DATA sigc<>+400(SB)/8, $1.0
DATA sigc<>+408(SB)/8, $1.0
DATA sigc<>+416(SB)/8, $2.0
DATA sigc<>+424(SB)/8, $2.0
DATA sigc<>+432(SB)/8, $2.0
DATA sigc<>+440(SB)/8, $2.0
DATA sigc<>+448(SB)/4, $1 // int32 lanes: the lowest in-range biased exponent
DATA sigc<>+452(SB)/4, $1
DATA sigc<>+456(SB)/4, $1
DATA sigc<>+460(SB)/4, $1
DATA sigc<>+464(SB)/4, $0x3FF // exponent bias
DATA sigc<>+468(SB)/4, $0x3FF
DATA sigc<>+472(SB)/4, $0x3FF
DATA sigc<>+476(SB)/4, $0x3FF
DATA sigc<>+480(SB)/4, $0x7FE // highest in-range biased exponent
DATA sigc<>+484(SB)/4, $0x7FE
DATA sigc<>+488(SB)/4, $0x7FE
DATA sigc<>+492(SB)/4, $0x7FE
GLOBL sigc<>(SB), RODATA|NOPTR, $496

// func sigmoidAVX(dst []float64) int
//
// dst[i] = 1/(1+exp(-dst[i])) four elements at a time, returning how many
// leading elements it wrote (a multiple of four). Each lane runs the FMA
// branch of math.Exp (archExp in $GOROOT/src/math/exp_amd64.s) operation
// for operation — VCVTPD2DQ rounding of x*LOG2E to the exponent k, the
// fused LN2U/LN2L reduction, ×0.0625, the fused Taylor chain, three
// y·(y+2) squarings and a fourth fused with the final +1 — then scales by
// 2^k and computes 1/(1+e). That equals 1/(1+math.Exp(-x)) bit for bit
// whenever archExp takes the same branch and reaches its final scaling
// directly, i.e. the biased exponent k+0x3FF lies in [1, 0x7FE]. One
// signed range check per group covers every other case: NaN, ±Inf and
// out-of-int32 products convert to 0x80000000, and overflow and
// denormal/underflow results fall outside the range. The function stops
// before the first group with such a lane and leaves it, and any tail
// shorter than four, to the caller's scalar loop. Requires AVX2 and FMA.
TEXT ·sigmoidAVX(SB), NOSPLIT, $0-32
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	ANDQ $-4, CX
	XORQ AX, AX
	VMOVDQU sigc<>+448(SB), X8 // 1 (int32 lanes)
	VMOVUPD sigc<>+384(SB), Y9 // 1.0

sigloop:
	CMPQ AX, CX
	JGE  sigdone
	VMOVUPD (DI)(AX*8), Y0
	VXORPD  sigc<>+0(SB), Y0, Y0 // t = -x
	VMULPD  sigc<>+32(SB), Y0, Y1
	VCVTPD2DQY Y1, X2            // k = int32(round(t*LOG2E))
	VPADDD  sigc<>+464(SB), X2, X3
	VPCMPGTD X3, X8, X4          // 1 > k+bias
	VPCMPGTD sigc<>+480(SB), X3, X5 // k+bias > 0x7FE
	VPOR    X5, X4, X4
	VPTEST  X4, X4
	JNE     sigdone
	VPMOVZXDQ X3, Y7
	VPSLLQ  $52, Y7, Y7          // 2^k
	VCVTDQ2PD X2, Y2
	VFNMADD231PD sigc<>+64(SB), Y2, Y0
	VFNMADD231PD sigc<>+96(SB), Y2, Y0
	VMULPD  sigc<>+128(SB), Y0, Y0
	VMOVUPD sigc<>+160(SB), Y1
	VFMADD213PD sigc<>+192(SB), Y0, Y1
	VFMADD213PD sigc<>+224(SB), Y0, Y1
	VFMADD213PD sigc<>+256(SB), Y0, Y1
	VFMADD213PD sigc<>+288(SB), Y0, Y1
	VFMADD213PD sigc<>+320(SB), Y0, Y1
	VFMADD213PD sigc<>+352(SB), Y0, Y1
	VFMADD213PD sigc<>+384(SB), Y0, Y1
	VMULPD  Y1, Y0, Y0
	VADDPD  sigc<>+416(SB), Y0, Y1
	VMULPD  Y1, Y0, Y0
	VADDPD  sigc<>+416(SB), Y0, Y1
	VMULPD  Y1, Y0, Y0
	VADDPD  sigc<>+416(SB), Y0, Y1
	VMULPD  Y1, Y0, Y0
	VADDPD  sigc<>+416(SB), Y0, Y1
	VFMADD213PD sigc<>+384(SB), Y1, Y0
	VMULPD  Y7, Y0, Y0
	VADDPD  Y9, Y0, Y0
	VDIVPD  Y0, Y9, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ $4, AX
	JMP  sigloop

sigdone:
	MOVQ AX, ret+24(FP)
	VZEROUPPER
	RET
