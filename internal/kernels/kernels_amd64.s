// AVX bodies for the hottest kernels. Bit-exactness: axpyAVX, gradQuadAVX
// and matmulRowNZAVX use only VMULPD / VADDPD / VSUBPD (and their scalar SD
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

// Constants of matmulRowNZAVX. Bytes 0-255: for each 4-bit mask m, the
// int32 lane numbers of m's set bits in ascending order, packed to the
// front (lanes past popcount(m) are never read). Bytes 256-383: for r = 0..3
// a 4-lane mask whose first r lanes are all ones (r = 0 is never used).
// Bytes 384-399: the int32 lane step 4.
DATA mmconst<>+0(SB)/8, $0x0 // m = 0b0000: none
DATA mmconst<>+8(SB)/8, $0x0
DATA mmconst<>+16(SB)/8, $0x0 // 0b0001: 0
DATA mmconst<>+24(SB)/8, $0x0
DATA mmconst<>+32(SB)/8, $0x1 // 0b0010: 1
DATA mmconst<>+40(SB)/8, $0x0
DATA mmconst<>+48(SB)/8, $0x100000000 // 0b0011: 0, 1
DATA mmconst<>+56(SB)/8, $0x0
DATA mmconst<>+64(SB)/8, $0x2 // 0b0100: 2
DATA mmconst<>+72(SB)/8, $0x0
DATA mmconst<>+80(SB)/8, $0x200000000 // 0b0101: 0, 2
DATA mmconst<>+88(SB)/8, $0x0
DATA mmconst<>+96(SB)/8, $0x200000001 // 0b0110: 1, 2
DATA mmconst<>+104(SB)/8, $0x0
DATA mmconst<>+112(SB)/8, $0x100000000 // 0b0111: 0, 1, 2
DATA mmconst<>+120(SB)/8, $0x2
DATA mmconst<>+128(SB)/8, $0x3 // 0b1000: 3
DATA mmconst<>+136(SB)/8, $0x0
DATA mmconst<>+144(SB)/8, $0x300000000 // 0b1001: 0, 3
DATA mmconst<>+152(SB)/8, $0x0
DATA mmconst<>+160(SB)/8, $0x300000001 // 0b1010: 1, 3
DATA mmconst<>+168(SB)/8, $0x0
DATA mmconst<>+176(SB)/8, $0x100000000 // 0b1011: 0, 1, 3
DATA mmconst<>+184(SB)/8, $0x3
DATA mmconst<>+192(SB)/8, $0x300000002 // 0b1100: 2, 3
DATA mmconst<>+200(SB)/8, $0x0
DATA mmconst<>+208(SB)/8, $0x200000000 // 0b1101: 0, 2, 3
DATA mmconst<>+216(SB)/8, $0x3
DATA mmconst<>+224(SB)/8, $0x200000001 // 0b1110: 1, 2, 3
DATA mmconst<>+232(SB)/8, $0x3
DATA mmconst<>+240(SB)/8, $0x100000000 // 0b1111: 0, 1, 2, 3
DATA mmconst<>+248(SB)/8, $0x300000002
DATA mmconst<>+288(SB)/8, $-1 // r = 1
DATA mmconst<>+320(SB)/8, $-1 // r = 2
DATA mmconst<>+328(SB)/8, $-1
DATA mmconst<>+352(SB)/8, $-1 // r = 3
DATA mmconst<>+360(SB)/8, $-1
DATA mmconst<>+368(SB)/8, $-1
DATA mmconst<>+384(SB)/8, $0x400000004 // lane step
DATA mmconst<>+392(SB)/8, $0x400000004
GLOBL mmconst<>(SB), RODATA|NOPTR, $400

// COMPACT4 appends to the index list at (R8)(R14*4) the indices X2+lane of
// the lanes set in the VCMPPD result Y0, adds their count to R14 and steps
// X2 by four. It always stores four int32s; the ones past the count are
// overwritten by the next COMPACT4 or never read. Clobbers R10 and X1; BX
// holds mmconst.
#define COMPACT4 \
	VMOVMSKPD Y0, R10; \
	SHLQ $4, R10; \
	VPADDD (BX)(R10*1), X2, X1; \
	VMOVDQU X1, (R8)(R14*4); \
	POPCNTQ R10, R10; \
	ADDQ R10, R14; \
	VPADDD 384(BX), X2, X2

// Accumulator operations of one column group, at byte offset off from the
// group's first column (R10 columns into the row): load from dst, add the
// product of the broadcast a entry Y15 with the b row at AX, store to dst.
// The M forms go through the lane mask Y13. Per lane the product is one
// VMULPD and the sum one VADDPD, the two roundings of the scalar
// `dst[c] += a[i] * b[i][c]`. The first sources are a[i] and the product,
// as in the compiled axpyGeneric loop; the order only decides which
// payload the sum of two NaNs carries.
#define LD(off, acc) VMOVUPD off(DI)(R10*8), acc
#define ST(off, acc) VMOVUPD acc, off(DI)(R10*8)
#define MADD(off, acc) VMULPD off(AX), Y15, Y14; VADDPD acc, Y14, acc
#define MLD(off, acc) VMASKMOVPD off(DI)(R10*8), Y13, acc
#define MST(off, acc) VMASKMOVPD acc, Y13, off(DI)(R10*8)
#define MMADD(off, acc) VMASKMOVPD off(AX), Y13, Y14; VMULPD Y14, Y15, Y14; VADDPD acc, Y14, acc

// ACCn(op) applies op to the group's first n accumulators, Y0 .. Y(n-1).
#define ACC0(op)
#define ACC1(op) op(0, Y0)
#define ACC2(op) ACC1(op); op(32, Y1)
#define ACC3(op) ACC2(op); op(64, Y2)
#define ACC4(op) ACC3(op); op(96, Y3)
#define ACC5(op) ACC4(op); op(128, Y4)
#define ACC6(op) ACC5(op); op(160, Y5)
#define ACC7(op) ACC6(op); op(192, Y6)
#define ACC8(op) ACC7(op); op(224, Y7)
#define ACC9(op) ACC8(op); op(256, Y8)
#define ACC10(op) ACC9(op); op(288, Y9)
#define ACC11(op) ACC10(op); op(320, Y10)
#define ACC12(op) ACC11(op); op(352, Y11)

// NEXTROW reads list entry R13 (an index i), broadcasts a[i] into Y15 and
// points AX at b row i of the column group (BX).
#define NEXTROW \
	MOVLQSX (R8)(R13*4), AX; \
	VBROADCASTSD (SI)(AX*8), Y15; \
	IMULQ R9, AX; \
	ADDQ BX, AX

// GROUP walks the list once for a group of n full vectors (ACCS = ACCn).
#define GROUP(ACCS, lbl, loop) \
lbl: \
	ACCS(LD); \
	XORQ R13, R13; \
loop: \
	NEXTROW; \
	ACCS(MADD); \
	INCQ R13; \
	CMPQ R13, R14; \
	JLT loop; \
	ACCS(ST); \
	JMP nextgroup

// MGROUP is GROUP for the row's last group when n % 4 != 0: ACCS full
// vectors, then the masked vector acc at byte offset off.
#define MGROUP(ACCS, off, acc, lbl, loop) \
lbl: \
	ACCS(LD); \
	MLD(off, acc); \
	XORQ R13, R13; \
loop: \
	NEXTROW; \
	ACCS(MADD); \
	MMADD(off, acc); \
	INCQ R13; \
	CMPQ R13, R14; \
	JLT loop; \
	ACCS(ST); \
	MST(off, acc); \
	JMP nextgroup

// func matmulRowNZAVX(dst, a, b []float64, nz *[nzBlock]int32)
//
// One MatMul output row: dst[c] += Σ_i a[i]*b[i*n+c] with n = len(dst) and
// k = len(a), skipping exactly the i with a[i] == 0 (±0; NaN is kept). The
// accumulation index runs in ascending blocks of 256 (nzBlock, the length
// of nz), and dst is stored and reloaded at each block edge. Each block
// first compacts the indices of its nonzero a entries into nz without a
// data-dependent branch: VCMPPD (not-equal-or-unordered against zero) and
// VMOVMSKPD turn four entries into a mask, whose lane list comes from
// mmconst and whose count from POPCNT. The block then walks the list once
// per group of up to 48 dst columns, with the group's up to twelve
// accumulators in YMM registers; when n % 4 != 0 the row's last vector
// loads and stores through a lane mask. Per element the products still
// accumulate in ascending i with one VMULPD and one VADDPD, so the
// registers and the block edges only replace exact float64 store/load
// round-trips. Requires AVX and POPCNT.
TEXT ·matmulRowNZAVX(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ a_base+24(FP), SI
	MOVQ a_len+32(FP), R12
	MOVQ nz+72(FP), R8
	MOVQ CX, R9
	SHLQ $3, R9                  // b row stride in bytes
	XORQ R11, R11                // k0: first index of the block

block:
	CMPQ R11, R12
	JGE  rowdone
	LEAQ 256(R11), R13
	CMPQ R13, R12
	CMOVQGT R12, R13             // block end: min(k0+256, k)
	LEAQ mmconst<>(SB), BX
	VXORPD Y4, Y4, Y4
	VMOVD R11, X2
	VPSHUFD $0, X2, X2           // the indices of the current four entries
	XORQ R14, R14                // list length
	MOVQ R11, AX

compact:
	MOVQ R13, R10
	SUBQ AX, R10
	CMPQ R10, $4
	JLT  compacttail
	VCMPPD $4, (SI)(AX*8), Y4, Y0 // NEQ_UQ: a[i] != 0 or NaN
	COMPACT4
	ADDQ $4, AX
	JMP  compact

compacttail:
	// The last one to three entries load through a lane mask; the masked
	// lanes read as +0 and are dropped like zero entries.
	TESTQ R10, R10
	JZ   accumulate
	SHLQ $5, R10
	VMOVUPD 256(BX)(R10*1), Y5
	VMASKMOVPD (SI)(AX*8), Y5, Y0
	VCMPPD $4, Y0, Y4, Y0
	COMPACT4

accumulate:
	TESTQ R14, R14
	JZ   nextblock
	XORQ R10, R10                // c0: first column of the group

group:
	MOVQ CX, AX
	SUBQ R10, AX                 // columns left
	JLE  nextblock
	MOVQ b_base+48(FP), BX
	LEAQ (BX)(R10*8), BX
	CMPQ AX, $48
	JGE  g12
	TESTQ $3, AX
	JNZ  masked
	CMPQ AX, $4
	JEQ  g1
	CMPQ AX, $8
	JEQ  g2
	CMPQ AX, $12
	JEQ  g3
	CMPQ AX, $16
	JEQ  g4
	CMPQ AX, $20
	JEQ  g5
	CMPQ AX, $24
	JEQ  g6
	CMPQ AX, $28
	JEQ  g7
	CMPQ AX, $32
	JEQ  g8
	CMPQ AX, $36
	JEQ  g9
	CMPQ AX, $40
	JEQ  g10
	JMP  g11

masked:
	MOVQ AX, R13
	ANDQ $3, R13
	SHLQ $5, R13
	LEAQ mmconst<>(SB), DX
	VMOVUPD 256(DX)(R13*1), Y13
	SHRQ $2, AX                  // full vectors before the masked one
	JEQ  m1
	CMPQ AX, $1
	JEQ  m2
	CMPQ AX, $2
	JEQ  m3
	CMPQ AX, $3
	JEQ  m4
	CMPQ AX, $4
	JEQ  m5
	CMPQ AX, $5
	JEQ  m6
	CMPQ AX, $6
	JEQ  m7
	CMPQ AX, $7
	JEQ  m8
	CMPQ AX, $8
	JEQ  m9
	CMPQ AX, $9
	JEQ  m10
	CMPQ AX, $10
	JEQ  m11
	JMP  m12

	GROUP(ACC1, g1, g1loop)
	GROUP(ACC2, g2, g2loop)
	GROUP(ACC3, g3, g3loop)
	GROUP(ACC4, g4, g4loop)
	GROUP(ACC5, g5, g5loop)
	GROUP(ACC6, g6, g6loop)
	GROUP(ACC7, g7, g7loop)
	GROUP(ACC8, g8, g8loop)
	GROUP(ACC9, g9, g9loop)
	GROUP(ACC10, g10, g10loop)
	GROUP(ACC11, g11, g11loop)
	GROUP(ACC12, g12, g12loop)
	MGROUP(ACC0, 0, Y0, m1, m1loop)
	MGROUP(ACC1, 32, Y1, m2, m2loop)
	MGROUP(ACC2, 64, Y2, m3, m3loop)
	MGROUP(ACC3, 96, Y3, m4, m4loop)
	MGROUP(ACC4, 128, Y4, m5, m5loop)
	MGROUP(ACC5, 160, Y5, m6, m6loop)
	MGROUP(ACC6, 192, Y6, m7, m7loop)
	MGROUP(ACC7, 224, Y7, m8, m8loop)
	MGROUP(ACC8, 256, Y8, m9, m9loop)
	MGROUP(ACC9, 288, Y9, m10, m10loop)
	MGROUP(ACC10, 320, Y10, m11, m11loop)
	MGROUP(ACC11, 352, Y11, m12, m12loop)

nextgroup:
	ADDQ $48, R10
	JMP  group

nextblock:
	ADDQ $256, R11
	JMP  block

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
