// AVX and AVX-512 bodies for the hottest kernels. Bit-exactness: axpyAVX,
// gradQuadAVX, matmulRowNZAVX and their eight-lane counterparts use only
// VMULPD / VADDPD / VSUBPD (and their scalar SD forms in the AVX tails and
// for the gradient weights) — each lane performs the exact IEEE-754
// operation of the corresponding scalar Go expression, and no FMA
// contraction is introduced — so they produce bit-identical results to the
// pure-Go bodies (asserted by the package's property tests, which run every
// path the host has). sigmoidAVX, sigmoidAVX512 and expAVX512 use FMA
// exactly where math.Exp's own FMA branch does; see sigmoidAVX's comment.

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

// Accumulator operations of accumDiffAVX, at byte offset off from the
// group's first column in the x row at R11 and the v row at R12: add the
// broadcast weight Y15 times the difference of the rows into acc. Per lane
// that is one VSUBPD, one VMULPD and one VADDPD, the three roundings of the
// scalar `g[j] += w * (x[j] - v[j])`. The M form goes through the lane mask
// Y13; its masked lanes read +0 and are never stored.
#define DADD(off, acc) VMOVUPD off(R11), Y14; VSUBPD off(R12), Y14, Y14; VMULPD Y14, Y15, Y14; VADDPD acc, Y14, acc
#define MDADD(off, acc) VMASKMOVPD off(R11), Y13, Y14; VMASKMOVPD off(R12), Y13, Y12; VSUBPD Y12, Y14, Y14; VMULPD Y14, Y15, Y14; VADDPD acc, Y14, acc

// DGROUP walks the m instances once for a group of n full vectors of g
// (ACCS = ACCn), the group's accumulators held in Y0 .. Y(n-1).
#define DGROUP(ACCS, lbl, loop) \
lbl: \
	ACCS(LD); \
	XORQ R13, R13; \
	MOVQ SI, R11; \
	MOVQ DX, R12; \
loop: \
	VBROADCASTSD (R8)(R13*8), Y15; \
	ACCS(DADD); \
	ADDQ R9, R11; \
	ADDQ R9, R12; \
	INCQ R13; \
	CMPQ R13, R14; \
	JLT loop; \
	ACCS(ST); \
	JMP dnext

// DMGROUP is DGROUP for the last group when len(g) % 4 != 0: ACCS full
// vectors, then the masked vector acc at byte offset off.
#define DMGROUP(ACCS, off, acc, lbl, loop) \
lbl: \
	ACCS(LD); \
	MLD(off, acc); \
	XORQ R13, R13; \
	MOVQ SI, R11; \
	MOVQ DX, R12; \
loop: \
	VBROADCASTSD (R8)(R13*8), Y15; \
	ACCS(DADD); \
	MDADD(off, acc); \
	ADDQ R9, R11; \
	ADDQ R9, R12; \
	INCQ R13; \
	CMPQ R13, R14; \
	JLT loop; \
	ACCS(ST); \
	MST(off, acc); \
	JMP dnext

// func accumDiffAVX(g, w, x, v []float64)
//
// g[j] += w[n] * (x[n*len(g)+j] - v[n*len(g)+j]) for n = 0 .. len(w)-1, in
// increasing n. Requires len(w) >= 1, len(g) >= 1 and x, v of len(w) rows.
// The columns of g go in groups of up to 48; each group's up to twelve
// accumulators stay in YMM registers over one walk of all the instances,
// and when len(g) % 4 != 0 the last vector loads and stores through a lane
// mask, as in matmulRowNZAVX. Per element the instances still add in
// increasing n with the scalar expression's three roundings, so the
// registers only replace exact float64 store/load round-trips. Requires AVX.
TEXT ·accumDiffAVX(SB), NOSPLIT, $0-96
	MOVQ g_base+0(FP), DI
	MOVQ g_len+8(FP), CX
	MOVQ w_base+24(FP), R8
	MOVQ w_len+32(FP), R14       // m
	MOVQ CX, R9
	SHLQ $3, R9                  // x and v row stride in bytes
	XORQ R10, R10                // c0: first column of the group

dgroup:
	MOVQ CX, AX
	SUBQ R10, AX                 // columns left
	JLE  ddone
	MOVQ x_base+48(FP), SI
	LEAQ (SI)(R10*8), SI
	MOVQ v_base+72(FP), DX
	LEAQ (DX)(R10*8), DX
	CMPQ AX, $48
	JGE  d12
	TESTQ $3, AX
	JNZ  dmasked
	CMPQ AX, $4
	JEQ  d1
	CMPQ AX, $8
	JEQ  d2
	CMPQ AX, $12
	JEQ  d3
	CMPQ AX, $16
	JEQ  d4
	CMPQ AX, $20
	JEQ  d5
	CMPQ AX, $24
	JEQ  d6
	CMPQ AX, $28
	JEQ  d7
	CMPQ AX, $32
	JEQ  d8
	CMPQ AX, $36
	JEQ  d9
	CMPQ AX, $40
	JEQ  d10
	JMP  d11

dmasked:
	MOVQ AX, R13
	ANDQ $3, R13
	SHLQ $5, R13
	LEAQ mmconst<>(SB), BX
	VMOVUPD 256(BX)(R13*1), Y13
	SHRQ $2, AX                  // full vectors before the masked one
	JEQ  dm1
	CMPQ AX, $1
	JEQ  dm2
	CMPQ AX, $2
	JEQ  dm3
	CMPQ AX, $3
	JEQ  dm4
	CMPQ AX, $4
	JEQ  dm5
	CMPQ AX, $5
	JEQ  dm6
	CMPQ AX, $6
	JEQ  dm7
	CMPQ AX, $7
	JEQ  dm8
	CMPQ AX, $8
	JEQ  dm9
	CMPQ AX, $9
	JEQ  dm10
	CMPQ AX, $10
	JEQ  dm11
	JMP  dm12

	DGROUP(ACC1, d1, d1loop)
	DGROUP(ACC2, d2, d2loop)
	DGROUP(ACC3, d3, d3loop)
	DGROUP(ACC4, d4, d4loop)
	DGROUP(ACC5, d5, d5loop)
	DGROUP(ACC6, d6, d6loop)
	DGROUP(ACC7, d7, d7loop)
	DGROUP(ACC8, d8, d8loop)
	DGROUP(ACC9, d9, d9loop)
	DGROUP(ACC10, d10, d10loop)
	DGROUP(ACC11, d11, d11loop)
	DGROUP(ACC12, d12, d12loop)
	DMGROUP(ACC0, 0, Y0, dm1, dm1loop)
	DMGROUP(ACC1, 32, Y1, dm2, dm2loop)
	DMGROUP(ACC2, 64, Y2, dm3, dm3loop)
	DMGROUP(ACC3, 96, Y3, dm4, dm4loop)
	DMGROUP(ACC4, 128, Y4, dm5, dm5loop)
	DMGROUP(ACC5, 160, Y5, dm6, dm6loop)
	DMGROUP(ACC6, 192, Y6, dm7, dm7loop)
	DMGROUP(ACC7, 224, Y7, dm8, dm8loop)
	DMGROUP(ACC8, 256, Y8, dm9, dm9loop)
	DMGROUP(ACC9, 288, Y9, dm10, dm10loop)
	DMGROUP(ACC10, 320, Y10, dm11, dm11loop)
	DMGROUP(ACC11, 352, Y11, dm12, dm12loop)

dnext:
	ADDQ $48, R10
	JMP  dgroup

ddone:
	VZEROUPPER
	RET

// func sampleBinaryAVX(dst, u, p []float64)
//
// dst[i] = 1.0 if the sign bit of u[i]-p[i] is set, else 0.0: VSUBPD then
// VBLENDVPD, which selects by exactly that bit, four elements at a time and
// VEX scalar forms in the tail. dst may alias p. Requires AVX.
TEXT ·sampleBinaryAVX(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ u_base+24(FP), SI
	MOVQ p_base+48(FP), DX
	VXORPD  Y1, Y1, Y1           // 0.0
	VMOVUPD sigc<>+384(SB), Y2   // 1.0
	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $-4, BX

sbloop4:
	CMPQ AX, BX
	JGE  sbtail
	VMOVUPD (SI)(AX*8), Y0
	VSUBPD  (DX)(AX*8), Y0, Y0   // u - p
	VBLENDVPD Y0, Y2, Y1, Y0     // sign set: 1.0, else 0.0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ $4, AX
	JMP  sbloop4

sbtail:
	CMPQ AX, CX
	JGE  sbdone
	VMOVSD (SI)(AX*8), X0
	VSUBSD (DX)(AX*8), X0, X0
	VBLENDVPD X0, X2, X1, X0
	VMOVSD X0, (DI)(AX*8)
	INCQ   AX
	JMP    sbtail

sbdone:
	VZEROUPPER
	RET

// func scaleRowsAVX(dst, w, src []float64)
//
// dst[n*c+j] = w[n] * src[n*c+j] with c = len(dst)/len(w): one VMULPD lane
// (VMULSD in each row's tail) per element. Requires len(w) >= 1 and
// len(src) == len(dst), a multiple of len(w). Requires AVX.
TEXT ·scaleRowsAVX(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), AX
	MOVQ w_base+24(FP), R8
	MOVQ w_len+32(FP), R9
	MOVQ src_base+48(FP), SI
	XORQ DX, DX
	DIVQ R9                      // AX = c (DX = 0: the length is a multiple)
	MOVQ AX, CX
	MOVQ CX, BX
	ANDQ $-4, BX
	XORQ R10, R10                // n

srrow:
	CMPQ R10, R9
	JGE  srdone
	VBROADCASTSD (R8)(R10*8), Y0
	XORQ AX, AX

srloop4:
	CMPQ AX, BX
	JGE  srtail
	VMULPD (SI)(AX*8), Y0, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ $4, AX
	JMP  srloop4

srtail:
	CMPQ AX, CX
	JGE  srnext
	VMULSD (SI)(AX*8), X0, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ AX
	JMP  srtail

srnext:
	LEAQ (SI)(CX*8), SI
	LEAQ (DI)(CX*8), DI
	INCQ R10
	JMP  srrow

srdone:
	VZEROUPPER
	RET

// ---------------------------------------------------------------------------
// AVX-512 bodies. They keep the contract of the AVX bodies above — per lane
// only VMULPD / VADDPD / VSUBPD, FMA only in the sigmoid where math.Exp's
// FMA branch has it — and replace the mmconst lane-mask table by opmasks:
// a vector's lanes past the end of a row load as +0 through a zeroing mask
// (EVEX masking also suppresses faults on those lanes) and are never
// stored.

// The int32 lane numbers 0..7.
DATA lanes<>+0(SB)/8, $0x100000000
DATA lanes<>+8(SB)/8, $0x300000002
DATA lanes<>+16(SB)/8, $0x500000004
DATA lanes<>+24(SB)/8, $0x700000006
GLOBL lanes<>(SB), RODATA|NOPTR, $32

// LANESBELOW sets opmask k to the lanes whose number is below the count in
// GPR r (all eight when r >= 8). Y23 holds lanes<>; clobbers Y22.
#define LANESBELOW(r, k) \
	VPBROADCASTD r, Y22; \
	VPCMPD $1, Y22, Y23, k

// ZVn(op, opm, ...) applies op to the first n-1 of a row's n accumulators
// and opm to its last one.
#define ZV1(op, opm, a0) opm(0, a0)
#define ZV2(op, opm, a0, a1) op(0, a0); opm(64, a1)
#define ZV3(op, opm, a0, a1, a2) op(0, a0); op(64, a1); opm(128, a2)
#define ZV4(op, opm, a0, a1, a2, a3) op(0, a0); op(64, a1); op(128, a2); opm(192, a3)
#define ZV5(op, opm, a0, a1, a2, a3, a4) op(0, a0); op(64, a1); op(128, a2); op(192, a3); opm(256, a4)
#define ZV6(op, opm, a0, a1, a2, a3, a4, a5) op(0, a0); op(64, a1); op(128, a2); op(192, a3); op(256, a4); opm(320, a5)

// Accumulator operations of accumRankAVX512, at byte offset off from the
// column group's first column. RLD and RST load and store a full vector of
// the g row at DI, RLDM and RSTM the group's last vector through the lane
// mask K1. RKn adds instance n of the current quad, whose p and q rows are
// at SI and DX plus n rows (n = 3: at R11 and R12) and whose broadcast
// weights w·x and w·v are in Z(8+n) and Z(12+n): per lane mul, mul, sub,
// add, with the operands in gradQuadAVX's order. RKnM is RKn for the last
// vector, whose p and q lanes load through K1.
#define RLD(off, acc) VMOVUPD off(DI), acc
#define RST(off, acc) VMOVUPD acc, off(DI)
#define RLDM(off, acc) VMOVUPD.Z off(DI), K1, acc
#define RSTM(off, acc) VMOVUPD acc, K1, off(DI)
#define RK0(off, acc) VMOVUPD off(SI), Z16; VMULPD Z8, Z16, Z16; VMOVUPD off(DX), Z17; VMULPD Z12, Z17, Z17; VSUBPD Z17, Z16, Z16; VADDPD Z16, acc, acc
#define RK0M(off, acc) VMOVUPD.Z off(SI), K1, Z16; VMULPD Z8, Z16, Z16; VMOVUPD.Z off(DX), K1, Z17; VMULPD Z12, Z17, Z17; VSUBPD Z17, Z16, Z16; VADDPD Z16, acc, acc
#define RK1(off, acc) VMOVUPD off(SI)(R9*1), Z16; VMULPD Z9, Z16, Z16; VMOVUPD off(DX)(R9*1), Z17; VMULPD Z13, Z17, Z17; VSUBPD Z17, Z16, Z16; VADDPD Z16, acc, acc
#define RK1M(off, acc) VMOVUPD.Z off(SI)(R9*1), K1, Z16; VMULPD Z9, Z16, Z16; VMOVUPD.Z off(DX)(R9*1), K1, Z17; VMULPD Z13, Z17, Z17; VSUBPD Z17, Z16, Z16; VADDPD Z16, acc, acc
#define RK2(off, acc) VMOVUPD off(SI)(R9*2), Z16; VMULPD Z10, Z16, Z16; VMOVUPD off(DX)(R9*2), Z17; VMULPD Z14, Z17, Z17; VSUBPD Z17, Z16, Z16; VADDPD Z16, acc, acc
#define RK2M(off, acc) VMOVUPD.Z off(SI)(R9*2), K1, Z16; VMULPD Z10, Z16, Z16; VMOVUPD.Z off(DX)(R9*2), K1, Z17; VMULPD Z14, Z17, Z17; VSUBPD Z17, Z16, Z16; VADDPD Z16, acc, acc
#define RK3(off, acc) VMOVUPD off(R11), Z16; VMULPD Z11, Z16, Z16; VMOVUPD off(R12), Z17; VMULPD Z15, Z17, Z17; VSUBPD Z17, Z16, Z16; VADDPD Z16, acc, acc
#define RK3M(off, acc) VMOVUPD.Z off(R11), K1, Z16; VMULPD Z11, Z16, Z16; VMOVUPD.Z off(R12), K1, Z17; VMULPD Z15, Z17, Z17; VSUBPD Z17, Z16, Z16; VADDPD Z16, acc, acc

// RKWEIGHT computes one instance's weights from its w entry at woff(R8) and
// its x and v entries at xa and va, as the Go expressions w*x and w*v, into
// Xwx and Xwv: VMULSD with w as the first source, as written. (The compiled
// Go loops put either operand first; the two orders differ only in which
// payload the product of two NaNs carries.)
#define RKWEIGHT(woff, xa, va, wx, wv) VMOVSD woff(R8), wx; VMULSD xa, wx, wx; VMOVSD woff(R8), wv; VMULSD va, wv, wv

// RKGROUP walks all m instances once for one column group of a g row, its
// accumulators in registers from Z0 (VS = RVn, the group's vectors): four
// instances per pass in instance order, then the last m mod 4 one at a time
// through the same step. R8 points at w, R13 and R14 at the instances' x and
// v entries of the row, SI and DX at their p and q rows, AX counts the
// instances left; R9 and R10 hold the p/q and x/v row strides in bytes.
#define RKGROUP(VS, lbl, quad, one, done) \
lbl: \
	VS(RLD, RLDM); \
quad: \
	CMPQ AX, $4; \
	JLT  one; \
	RKWEIGHT(0, (R13), (R14), X8, X12); \
	RKWEIGHT(8, (R13)(R10*1), (R14)(R10*1), X9, X13); \
	RKWEIGHT(16, (R13)(R10*2), (R14)(R10*2), X10, X14); \
	LEAQ (R13)(R10*2), R11; \
	LEAQ (R14)(R10*2), R12; \
	RKWEIGHT(24, (R11)(R10*1), (R12)(R10*1), X11, X15); \
	VBROADCASTSD X8, Z8; \
	VBROADCASTSD X9, Z9; \
	VBROADCASTSD X10, Z10; \
	VBROADCASTSD X11, Z11; \
	VBROADCASTSD X12, Z12; \
	VBROADCASTSD X13, Z13; \
	VBROADCASTSD X14, Z14; \
	VBROADCASTSD X15, Z15; \
	LEAQ (SI)(R9*2), R11; \
	ADDQ R9, R11; \
	LEAQ (DX)(R9*2), R12; \
	ADDQ R9, R12; \
	VS(RK0, RK0M); \
	VS(RK1, RK1M); \
	VS(RK2, RK2M); \
	VS(RK3, RK3M); \
	LEAQ (R11)(R9*1), SI; \
	LEAQ (R12)(R9*1), DX; \
	ADDQ $32, R8; \
	LEAQ (R13)(R10*4), R13; \
	LEAQ (R14)(R10*4), R14; \
	SUBQ $4, AX; \
	JMP  quad; \
one: \
	TESTQ AX, AX; \
	JZ   done; \
	RKWEIGHT(0, (R13), (R14), X8, X12); \
	VBROADCASTSD X8, Z8; \
	VBROADCASTSD X12, Z12; \
	VS(RK0, RK0M); \
	ADDQ R9, SI; \
	ADDQ R9, DX; \
	ADDQ $8, R8; \
	ADDQ R10, R13; \
	ADDQ R10, R14; \
	DECQ AX; \
	JMP  one; \
done: \
	VS(RST, RSTM); \
	JMP  rknextgroup

// RVn(op, opm) applies op to the first n-1 of a group's n accumulators,
// Z0 .. Z(n-1), and opm to its last one.
#define RV1(op, opm) ZV1(op, opm, Z0)
#define RV2(op, opm) ZV2(op, opm, Z0, Z1)
#define RV3(op, opm) ZV3(op, opm, Z0, Z1, Z2)
#define RV4(op, opm) ZV4(op, opm, Z0, Z1, Z2, Z3)
#define RV5(op, opm) ZV5(op, opm, Z0, Z1, Z2, Z3, Z4)
#define RV6(op, opm) ZV6(op, opm, Z0, Z1, Z2, Z3, Z4, Z5)

// func accumRankAVX512(g, w, x, v, p, q []float64, m, rows, cols int)
//
// AccumRankK's whole update eight lanes wide, in one call:
//
//	g[i][j] += w[n]*x[n][i] * p[n][j] - w[n]*v[n][i] * q[n][j]   for n = 0..m-1
//
// with g [rows×cols], x and v [m×rows], p and q [m×cols]. For each g row it
// walks the columns in groups of up to 48, holding the group's up to six
// vectors in ZMM registers over all m instances; a row's last vector loads
// and stores through the lane mask K1. Each pass takes four instances:
// their weights w·x and w·v are formed with VMULSD (RKWEIGHT) and
// broadcast, then every vector adds instance n's term (w·x)·p[j] -
// (w·v)·q[j] with gradQuadAVX's mul, mul, sub, add, in instance order. The
// last m mod 4 instances run one at a time through the same step. Per
// element the instances therefore add in increasing n with the scalar
// expression's roundings, and the registers only replace exact store/load
// round-trips. Requires m, rows, cols >= 1 and AVX-512 F and VL.
TEXT ·accumRankAVX512(SB), NOSPLIT, $0-168
	MOVQ cols+160(FP), R9
	SHLQ $3, R9                  // p, q and g row stride in bytes
	MOVQ rows+152(FP), R10
	SHLQ $3, R10                 // x and v row stride in bytes
	VMOVDQU32 lanes<>(SB), Y23
	XORQ CX, CX                  // i: the g row
	XORQ BX, BX                  // byte offset of the column group

rkgroup:
	MOVQ p_base+96(FP), SI
	ADDQ BX, SI
	MOVQ q_base+120(FP), DX
	ADDQ BX, DX
	MOVQ w_base+24(FP), R8
	MOVQ x_base+48(FP), R13
	LEAQ (R13)(CX*8), R13
	MOVQ v_base+72(FP), R14
	LEAQ (R14)(CX*8), R14
	MOVQ CX, AX
	IMULQ R9, AX
	ADDQ BX, AX
	MOVQ g_base+0(FP), DI
	ADDQ AX, DI
	MOVQ R9, R11
	SUBQ BX, R11
	SHRQ $3, R11                 // columns left
	LEAQ 7(R11), R12
	SHRQ $3, R12                 // vectors left
	MOVQ $6, AX
	CMPQ R12, AX
	CMOVQGT AX, R12              // vectors in the group
	MOVQ R12, AX
	SHLQ $3, AX
	SUBQ AX, R11
	ADDQ $8, R11                 // columns of the group's last vector
	LANESBELOW(R11, K1)
	MOVQ m+144(FP), AX
	CMPQ R12, $1
	JEQ  rk1
	CMPQ R12, $2
	JEQ  rk2
	CMPQ R12, $3
	JEQ  rk3
	CMPQ R12, $4
	JEQ  rk4
	CMPQ R12, $5
	JEQ  rk5
	JMP  rk6

	RKGROUP(RV1, rk1, rk1quad, rk1one, rk1done)
	RKGROUP(RV2, rk2, rk2quad, rk2one, rk2done)
	RKGROUP(RV3, rk3, rk3quad, rk3one, rk3done)
	RKGROUP(RV4, rk4, rk4quad, rk4one, rk4done)
	RKGROUP(RV5, rk5, rk5quad, rk5one, rk5done)
	RKGROUP(RV6, rk6, rk6quad, rk6one, rk6done)

rknextgroup:
	ADDQ $384, BX
	CMPQ BX, R9
	JLT  rkgroup
	XORQ BX, BX
	INCQ CX
	CMPQ CX, rows+152(FP)
	JLT  rkgroup
	VZEROUPPER
	RET

// Accumulator operations of matmulAVX512, at byte offset off from the
// group's first column. ZLD and ZST load and store a full vector of the dst
// row at DX; ZLDM and ZSTM do it for the group's last vector through the
// lane mask K1. ZMA adds the product of the broadcast a value Z30 with the b
// row at BX+AX into acc; ZMAM is ZMA for the last vector, whose b lanes load
// through K1. ZMK and ZMKM are ZMA and ZMAM with the add merge-masked by K2,
// so a padding step leaves acc untouched. Per lane the product is one
// VMULPD and the sum one VADDPD whose first sources are the a value and the
// product, as in matmulRowNZAVX.
#define ZLD(off, acc) VMOVUPD off(DX), acc
#define ZST(off, acc) VMOVUPD acc, off(DX)
#define ZLDM(off, acc) VMOVUPD.Z off(DX), K1, acc
#define ZSTM(off, acc) VMOVUPD acc, K1, off(DX)
#define ZMA(off, acc) VMULPD off(BX)(AX*1), Z30, Z29; VADDPD acc, Z29, acc
#define ZMAM(off, acc) VMULPD.Z off(BX)(AX*1), Z30, K1, Z29; VADDPD acc, Z29, acc
#define ZMK(off, acc) VMULPD off(BX)(AX*1), Z30, Z29; VADDPD acc, Z29, K2, acc
#define ZMKM(off, acc) VMULPD.Z off(BX)(AX*1), Z30, K1, Z29; VADDPD acc, Z29, K2, acc

// ZENTRY reads entry R13 of one row's lists, whose b row byte offsets start
// at ooff(R8) and a values at voff(R8): AX gets the offset and Z30 the
// broadcast value. ZENTRYK also sets K2 to whether the entry is real; the
// padding past a shorter list's end carries the value +0, and every real
// entry is nonzero or NaN.
#define ZENTRY(ooff, voff) MOVLQSX ooff(R8)(R13*4), AX; VBROADCASTSD voff(R8)(R13*8), Z30
#define ZENTRYK(ooff, voff) ZENTRY(ooff, voff); VCMPPD $4, Z31, Z30, K2

// The row-group shapes: RrGg is r rows of g vectors, row j's accumulators
// after row j-1's. L loads them from the dst rows at SI, SI+n8, ...; S
// stores them; A is one step of every row's list; K one padded step.
#define R1G1L MOVQ SI, DX; ZV1(ZLD, ZLDM, Z0)
#define R1G1S MOVQ SI, DX; ZV1(ZST, ZSTM, Z0)
#define R1G1A ZENTRY(0, 1024); ZV1(ZMA, ZMAM, Z0)
#define R1G2L MOVQ SI, DX; ZV2(ZLD, ZLDM, Z0, Z1)
#define R1G2S MOVQ SI, DX; ZV2(ZST, ZSTM, Z0, Z1)
#define R1G2A ZENTRY(0, 1024); ZV2(ZMA, ZMAM, Z0, Z1)
#define R1G3L MOVQ SI, DX; ZV3(ZLD, ZLDM, Z0, Z1, Z2)
#define R1G3S MOVQ SI, DX; ZV3(ZST, ZSTM, Z0, Z1, Z2)
#define R1G3A ZENTRY(0, 1024); ZV3(ZMA, ZMAM, Z0, Z1, Z2)
#define R1G4L MOVQ SI, DX; ZV4(ZLD, ZLDM, Z0, Z1, Z2, Z3)
#define R1G4S MOVQ SI, DX; ZV4(ZST, ZSTM, Z0, Z1, Z2, Z3)
#define R1G4A ZENTRY(0, 1024); ZV4(ZMA, ZMAM, Z0, Z1, Z2, Z3)
#define R1G5L MOVQ SI, DX; ZV5(ZLD, ZLDM, Z0, Z1, Z2, Z3, Z4)
#define R1G5S MOVQ SI, DX; ZV5(ZST, ZSTM, Z0, Z1, Z2, Z3, Z4)
#define R1G5A ZENTRY(0, 1024); ZV5(ZMA, ZMAM, Z0, Z1, Z2, Z3, Z4)
#define R1G6L MOVQ SI, DX; ZV6(ZLD, ZLDM, Z0, Z1, Z2, Z3, Z4, Z5)
#define R1G6S MOVQ SI, DX; ZV6(ZST, ZSTM, Z0, Z1, Z2, Z3, Z4, Z5)
#define R1G6A ZENTRY(0, 1024); ZV6(ZMA, ZMAM, Z0, Z1, Z2, Z3, Z4, Z5)
#define R2G2L MOVQ SI, DX; ZV2(ZLD, ZLDM, Z0, Z1); ADDQ CX, DX; ZV2(ZLD, ZLDM, Z2, Z3)
#define R2G2S MOVQ SI, DX; ZV2(ZST, ZSTM, Z0, Z1); ADDQ CX, DX; ZV2(ZST, ZSTM, Z2, Z3)
#define R2G2A ZENTRY(0, 1024); ZV2(ZMA, ZMAM, Z0, Z1); ZENTRY(256, 1536); ZV2(ZMA, ZMAM, Z2, Z3)
#define R2G2K ZENTRYK(0, 1024); ZV2(ZMK, ZMKM, Z0, Z1); ZENTRYK(256, 1536); ZV2(ZMK, ZMKM, Z2, Z3)
#define R2G3L MOVQ SI, DX; ZV3(ZLD, ZLDM, Z0, Z1, Z2); ADDQ CX, DX; ZV3(ZLD, ZLDM, Z3, Z4, Z5)
#define R2G3S MOVQ SI, DX; ZV3(ZST, ZSTM, Z0, Z1, Z2); ADDQ CX, DX; ZV3(ZST, ZSTM, Z3, Z4, Z5)
#define R2G3A ZENTRY(0, 1024); ZV3(ZMA, ZMAM, Z0, Z1, Z2); ZENTRY(256, 1536); ZV3(ZMA, ZMAM, Z3, Z4, Z5)
#define R2G3K ZENTRYK(0, 1024); ZV3(ZMK, ZMKM, Z0, Z1, Z2); ZENTRYK(256, 1536); ZV3(ZMK, ZMKM, Z3, Z4, Z5)
#define R4G1L MOVQ SI, DX; ZV1(ZLD, ZLDM, Z0); ADDQ CX, DX; ZV1(ZLD, ZLDM, Z1); ADDQ CX, DX; ZV1(ZLD, ZLDM, Z2); ADDQ CX, DX; ZV1(ZLD, ZLDM, Z3)
#define R4G1S MOVQ SI, DX; ZV1(ZST, ZSTM, Z0); ADDQ CX, DX; ZV1(ZST, ZSTM, Z1); ADDQ CX, DX; ZV1(ZST, ZSTM, Z2); ADDQ CX, DX; ZV1(ZST, ZSTM, Z3)
#define R4G1A ZENTRY(0, 1024); ZV1(ZMA, ZMAM, Z0); ZENTRY(256, 1536); ZV1(ZMA, ZMAM, Z1); ZENTRY(512, 2048); ZV1(ZMA, ZMAM, Z2); ZENTRY(768, 2560); ZV1(ZMA, ZMAM, Z3)
#define R4G1K ZENTRYK(0, 1024); ZV1(ZMK, ZMKM, Z0); ZENTRYK(256, 1536); ZV1(ZMK, ZMKM, Z1); ZENTRYK(512, 2048); ZV1(ZMK, ZMKM, Z2); ZENTRYK(768, 2560); ZV1(ZMK, ZMKM, Z3)

// The dense walk's steps: ZDENTRY broadcasts the a entry R13 (counting up
// from minus the block length to 0) of the row whose block ends at ar into
// Z30, and RrGgD is one step of every row of the group, whose blocks end at
// R8, R11, R12 and R14.
#define ZDENTRY(ar) VBROADCASTSD (ar)(R13*8), Z30
#define R1G1D ZDENTRY(R8); ZV1(ZMA, ZMAM, Z0)
#define R1G2D ZDENTRY(R8); ZV2(ZMA, ZMAM, Z0, Z1)
#define R1G3D ZDENTRY(R8); ZV3(ZMA, ZMAM, Z0, Z1, Z2)
#define R1G4D ZDENTRY(R8); ZV4(ZMA, ZMAM, Z0, Z1, Z2, Z3)
#define R1G5D ZDENTRY(R8); ZV5(ZMA, ZMAM, Z0, Z1, Z2, Z3, Z4)
#define R1G6D ZDENTRY(R8); ZV6(ZMA, ZMAM, Z0, Z1, Z2, Z3, Z4, Z5)
#define R2G2D ZDENTRY(R8); ZV2(ZMA, ZMAM, Z0, Z1); ZDENTRY(R11); ZV2(ZMA, ZMAM, Z2, Z3)
#define R2G3D ZDENTRY(R8); ZV3(ZMA, ZMAM, Z0, Z1, Z2); ZDENTRY(R11); ZV3(ZMA, ZMAM, Z3, Z4, Z5)
#define R4G1D ZDENTRY(R8); ZV1(ZMA, ZMAM, Z0); ZDENTRY(R11); ZV1(ZMA, ZMAM, Z1); ZDENTRY(R12); ZV1(ZMA, ZMAM, Z2); ZDENTRY(R14); ZV1(ZMA, ZMAM, Z3)

// ZGROUP1 walks a single row's list (length R12) once for one column group.
#define ZGROUP1(L, A, S, lbl, loop) \
lbl: \
	L; \
	XORQ R13, R13; \
loop: \
	A; \
	INCQ R13; \
	CMPQ R13, R12; \
	JLT loop; \
	S; \
	JMP znextgroup

// ZGROUPN walks the lists of a multi-row group in lockstep: every row's
// step up to the shortest length R12, then padded steps up to the longest
// length R11, in which a row whose list has ended adds nothing.
#define ZGROUPN(L, A, K, S, lbl, loop, kloop, store) \
lbl: \
	L; \
	XORQ R13, R13; \
	TESTQ R12, R12; \
	JZ kloop; \
loop: \
	A; \
	INCQ R13; \
	CMPQ R13, R12; \
	JLT loop; \
kloop: \
	CMPQ R13, R11; \
	JGE store; \
	K; \
	INCQ R13; \
	JMP kloop; \
store: \
	S; \
	JMP znextgroup

// func matmulAVX512(dst, a, b []float64, m, k, n int, nz *nzLists)
//
// MatMul's row body eight lanes wide, over all m rows: dst[r*n+c] +=
// Σ_i a[r*k+i]*b[i*n+c], skipping exactly the i with a[r*k+i] == 0 (±0;
// NaN is kept). Rows go in groups of R: four when a row is one vector
// (n <= 8), two when it is two or three (n <= 24), else one; the last
// m mod R rows go one at a time. Two or four rows walked together give the
// short rows independent add chains. Blocks of up to 64 (nzBlock512)
// accumulation indices run in ascending order. A first VCMPPD pass over the
// block checks every row of the group: when no entry is ±0 (the dense
// sigmoid and softmax tiles), the block is walked directly, every index in
// order with each row's a entry read in place and the b row offset stepped
// by n8. Otherwise each row of the group compacts its nonzero entries into
// its lists in nz without a data-dependent branch: VCMPPD
// (not-equal-or-unordered against zero) makes an opmask of eight entries,
// VPCOMPRESSD packs their b row byte offsets and VCOMPRESSPD their a
// values, and POPCNT counts them. The block then walks the lists once per
// group of up to 48 dst columns (all of a row when R > 1), with the group's
// accumulators in ZMM registers and the last vector of a row through the
// lane mask K1; the direct walk uses the same column groups. Lists of a
// multi-row group run in lockstep to the shortest; the longer ones then
// continue with the add merge-masked by their entry being real, and each
// list is padded with +0 values (chunk by chunk, before the chunk's
// compressed entries are stored) so that the padded steps read valid
// offsets. Per element the products still accumulate in ascending index
// with one VMULPD and one VADDPD, and dst is stored and reloaded only at
// block edges, which is exact. Requires k*n < 2^28 (int32 byte offsets)
// and AVX-512 F and VL and POPCNT.
TEXT ·matmulAVX512(SB), NOSPLIT, $40-104
	MOVQ dst_base+0(FP), DI
	MOVQ a_base+24(FP), AX
	MOVQ AX, arow-8(SP)          // the group's first a row
	MOVQ m+72(FP), AX
	MOVQ AX, left-16(SP)         // rows left
	MOVQ n+88(FP), CX
	MOVQ $1, AX
	MOVQ $2, R9
	CMPQ CX, $24
	CMOVQLE R9, AX
	MOVQ $4, R9
	CMPQ CX, $8
	CMOVQLE R9, AX
	MOVQ AX, rows-24(SP)         // R
	SHLQ $3, CX                  // n8: dst and b row stride in bytes
	MOVQ nz+96(FP), R8
	VPXORQ Z31, Z31, Z31
	VMOVDQU32 lanes<>(SB), Y23
	VPBROADCASTD CX, Y27
	VPMULLD Y23, Y27, Y26        // lane * n8
	VPSLLD $3, Y27, Y27          // eight b rows

zrowgroup:
	MOVQ left-16(SP), AX
	TESTQ AX, AX
	JLE  zdone
	MOVQ rows-24(SP), R9
	CMPQ AX, R9
	JGE  zrows
	MOVQ $1, R9

zrows:
	MOVQ $0, k0-32(SP)

zblock:
	MOVQ k0-32(SP), R10
	MOVQ k+80(FP), R13
	SUBQ R10, R13                // entries left in each row
	JLE  znextrows
	MOVQ $64, AX
	CMPQ R13, AX
	CMOVQGT AX, R13              // block length: min(k-k0, 64)
	MOVQ R10, AX
	IMULQ CX, AX
	VPBROADCASTD AX, Y24
	VPADDD Y26, Y24, Y24         // b row byte offsets of the block's first eight entries
	MOVQ arow-8(SP), SI
	LEAQ (SI)(R10*8), SI         // the block in the group's first row
	MOVQ nz+96(FP), R8

	// A block with no ±0 entry in any row of the group skips the lists.
	MOVQ SI, DX
	MOVQ R9, R14                 // rows left to scan

zdscan:
	XORQ R10, R10

zdchunk:
	MOVQ R13, AX
	SUBQ R10, AX
	JLE  zdrow
	LANESBELOW(AX, K3)
	VMOVUPD.Z (DX)(R10*8), K3, Z21
	VCMPPD $4, Z31, Z21, K2      // NEQ_UQ: a[i] != 0 or NaN
	KXORW K2, K3, K4
	KORTESTW K4, K4
	JNZ  zsparse                 // some entry is ±0
	ADDQ $8, R10
	JMP  zdchunk

zdrow:
	MOVQ k+80(FP), AX
	LEAQ (DX)(AX*8), DX
	DECQ R14
	JNZ  zdscan
	MOVQ R13, blen-40(SP)
	XORQ R10, R10
	JMP  zgroup

zsparse:
	MOVQ $0, blen-40(SP)
	MOVQ R8, DX                  // row 0 offset list
	LEAQ 1024(R8), BX            // row 0 value list
	MOVQ $64, R12                // shortest list
	XORQ R11, R11                // longest list

zcrow:
	XORQ R10, R10                // entry within the block
	XORQ R14, R14                // list length
	VMOVDQU32 Y24, Y25

zchunk:
	MOVQ R13, AX
	SUBQ R10, AX                 // entries left in the block
	JLE  zcrowdone
	LANESBELOW(AX, K3)
	VMOVUPD.Z (SI)(R10*8), K3, Z21
	VCMPPD $4, Z31, Z21, K2      // NEQ_UQ: a[i] != 0 or NaN
	VMOVUPD Z31, (BX)(R10*8)     // pad with +0 ...
	VMOVDQU32 Y31, (DX)(R10*4)   // ... at offset 0
	VPCOMPRESSD.Z Y25, K2, Y20
	VMOVDQU32 Y20, (DX)(R14*4)
	VCOMPRESSPD.Z Z21, K2, Z20
	VMOVUPD Z20, (BX)(R14*8)
	KMOVW K2, AX
	POPCNTL AX, AX
	ADDQ AX, R14
	VPADDD Y27, Y25, Y25
	ADDQ $8, R10
	JMP  zchunk

zcrowdone:
	CMPQ R14, R12
	CMOVQLT R14, R12
	CMPQ R14, R11
	CMOVQGT R14, R11
	ADDQ $256, DX
	ADDQ $512, BX
	MOVQ k+80(FP), AX
	LEAQ (SI)(AX*8), SI          // the next row's block
	MOVQ R9, AX
	SHLQ $8, AX
	ADDQ R8, AX
	CMPQ DX, AX
	JLT  zcrow

	TESTQ R11, R11
	JZ   znextblock
	XORQ R10, R10                // c0: first column of the group

zgroup:
	MOVQ n+88(FP), AX
	SUBQ R10, AX                 // columns left
	JLE  znextblock
	MOVQ b_base+48(FP), BX
	LEAQ (BX)(R10*8), BX
	LEAQ (DI)(R10*8), SI
	LEAQ 7(AX), R14
	SHRQ $3, R14                 // vectors left
	MOVQ $6, DX
	CMPQ R14, DX
	CMOVQGT DX, R14              // g: vectors in the group
	MOVQ R14, DX
	SHLQ $3, DX
	SUBQ DX, AX
	ADDQ $8, AX                  // columns of the group's last vector
	LANESBELOW(AX, K1)
	CMPQ blen-40(SP), $0
	JNE  zdense
	CMPQ R9, $1
	JNE  zmulti
	CMPQ R14, $1
	JEQ  zr1g1
	CMPQ R14, $2
	JEQ  zr1g2
	CMPQ R14, $3
	JEQ  zr1g3
	CMPQ R14, $4
	JEQ  zr1g4
	CMPQ R14, $5
	JEQ  zr1g5
	JMP  zr1g6

zmulti:
	CMPQ R9, $4
	JEQ  zr4g1
	CMPQ R14, $2
	JEQ  zr2g2
	JMP  zr2g3

	ZGROUP1(R1G1L, R1G1A, R1G1S, zr1g1, zr1g1loop)
	ZGROUP1(R1G2L, R1G2A, R1G2S, zr1g2, zr1g2loop)
	ZGROUP1(R1G3L, R1G3A, R1G3S, zr1g3, zr1g3loop)
	ZGROUP1(R1G4L, R1G4A, R1G4S, zr1g4, zr1g4loop)
	ZGROUP1(R1G5L, R1G5A, R1G5S, zr1g5, zr1g5loop)
	ZGROUP1(R1G6L, R1G6A, R1G6S, zr1g6, zr1g6loop)
	ZGROUPN(R2G2L, R2G2A, R2G2K, R2G2S, zr2g2, zr2g2loop, zr2g2k, zr2g2st)
	ZGROUPN(R2G3L, R2G3A, R2G3K, R2G3S, zr2g3, zr2g3loop, zr2g3k, zr2g3st)
	ZGROUPN(R4G1L, R4G1A, R4G1K, R4G1S, zr4g1, zr4g1loop, zr4g1k, zr4g1st)

// ZDSETUP (defined inside matmulAVX512, as it reads its frame) starts the
// direct walk of a dense block of length blen: R8, R11, R12 and R14 point
// at the block's end in the group's rows 0 to 3 (only the first R are
// read), R13 is -blen and AX the b row byte offset of the block's first
// index, which each step advances by n8.
#define ZDSETUP \
	MOVQ blen-40(SP), R13; \
	MOVQ k0-32(SP), AX; \
	MOVQ arow-8(SP), R8; \
	LEAQ (R8)(AX*8), R8; \
	LEAQ (R8)(R13*8), R8; \
	IMULQ CX, AX; \
	NEGQ R13; \
	MOVQ k+80(FP), R14; \
	SHLQ $3, R14; \
	LEAQ (R8)(R14*1), R11; \
	LEAQ (R8)(R14*2), R12; \
	ADDQ R12, R14

// ZGROUPD walks a dense block once for one column group: every index of
// the block in ascending order, each row's a entry read in place.
#define ZGROUPD(L, A, S, lbl, loop) \
lbl: \
	L; \
	ZDSETUP; \
loop: \
	A; \
	ADDQ CX, AX; \
	INCQ R13; \
	JNZ loop; \
	S; \
	JMP znextgroup

zdense:
	CMPQ R9, $1
	JNE  zdmulti
	CMPQ R14, $1
	JEQ  zd1g1
	CMPQ R14, $2
	JEQ  zd1g2
	CMPQ R14, $3
	JEQ  zd1g3
	CMPQ R14, $4
	JEQ  zd1g4
	CMPQ R14, $5
	JEQ  zd1g5
	JMP  zd1g6

zdmulti:
	CMPQ R9, $4
	JEQ  zd4g1
	CMPQ R14, $2
	JEQ  zd2g2
	JMP  zd2g3

	ZGROUPD(R1G1L, R1G1D, R1G1S, zd1g1, zd1g1loop)
	ZGROUPD(R1G2L, R1G2D, R1G2S, zd1g2, zd1g2loop)
	ZGROUPD(R1G3L, R1G3D, R1G3S, zd1g3, zd1g3loop)
	ZGROUPD(R1G4L, R1G4D, R1G4S, zd1g4, zd1g4loop)
	ZGROUPD(R1G5L, R1G5D, R1G5S, zd1g5, zd1g5loop)
	ZGROUPD(R1G6L, R1G6D, R1G6S, zd1g6, zd1g6loop)
	ZGROUPD(R2G2L, R2G2D, R2G2S, zd2g2, zd2g2loop)
	ZGROUPD(R2G3L, R2G3D, R2G3S, zd2g3, zd2g3loop)
	ZGROUPD(R4G1L, R4G1D, R4G1S, zd4g1, zd4g1loop)

znextgroup:
	ADDQ $48, R10
	JMP  zgroup

znextblock:
	ADDQ $64, k0-32(SP)
	JMP  zblock

znextrows:
	MOVQ R9, AX
	IMULQ CX, AX
	ADDQ AX, DI                  // the next group's dst rows
	MOVQ R9, AX
	IMULQ k+80(FP), AX
	SHLQ $3, AX
	ADDQ AX, arow-8(SP)
	SUBQ R9, left-16(SP)
	JMP  zrowgroup

zdone:
	VZEROUPPER
	RET

// ZEXP8 is the eight-lane form of sigmoidAVX's exponential: it replaces
// each lane x of Z0 by math.Exp(x) through archExp's FMA branch, from the
// rounding of x*LOG2E to the exponent k through the final scaling by 2^k,
// operation for operation. Before any of it, a lane whose biased exponent
// k+0x3FF lies outside [1, 0x7FE] jumps to refuse. The constants come from
// sigc, broadcast; Y8, Y10 and Y11 must hold 1, the exponent bias and
// 0x7FE as int32 lanes. Clobbers Z1-Z5 and Z7.
#define ZEXP8(refuse) \
	VMULPD.BCST sigc<>+32(SB), Z0, Z1; \
	VCVTPD2DQ Z1, Y2; \
	VPADDD  Y10, Y2, Y3; \
	VPCMPGTD Y3, Y8, Y4; \
	VPCMPGTD Y11, Y3, Y5; \
	VPOR    Y5, Y4, Y4; \
	VPTEST  Y4, Y4; \
	JNE     refuse; \
	VPMOVZXDQ Y3, Z7; \
	VPSLLQ  $52, Z7, Z7; \
	VCVTDQ2PD Y2, Z2; \
	VFNMADD231PD.BCST sigc<>+64(SB), Z2, Z0; \
	VFNMADD231PD.BCST sigc<>+96(SB), Z2, Z0; \
	VMULPD.BCST sigc<>+128(SB), Z0, Z0; \
	VBROADCASTSD sigc<>+160(SB), Z1; \
	VFMADD213PD.BCST sigc<>+192(SB), Z0, Z1; \
	VFMADD213PD.BCST sigc<>+224(SB), Z0, Z1; \
	VFMADD213PD.BCST sigc<>+256(SB), Z0, Z1; \
	VFMADD213PD.BCST sigc<>+288(SB), Z0, Z1; \
	VFMADD213PD.BCST sigc<>+320(SB), Z0, Z1; \
	VFMADD213PD.BCST sigc<>+352(SB), Z0, Z1; \
	VFMADD213PD.BCST sigc<>+384(SB), Z0, Z1; \
	VMULPD  Z1, Z0, Z0; \
	VADDPD.BCST sigc<>+416(SB), Z0, Z1; \
	VMULPD  Z1, Z0, Z0; \
	VADDPD.BCST sigc<>+416(SB), Z0, Z1; \
	VMULPD  Z1, Z0, Z0; \
	VADDPD.BCST sigc<>+416(SB), Z0, Z1; \
	VMULPD  Z1, Z0, Z0; \
	VADDPD.BCST sigc<>+416(SB), Z0, Z1; \
	VFMADD213PD.BCST sigc<>+384(SB), Z1, Z0; \
	VMULPD  Z7, Z0, Z0

// func sigmoidAVX512(dst []float64) int
//
// sigmoidAVX eight lanes wide, over the whole slice: the negation, ZEXP8
// and 1/(1+e) per lane. The last one to seven elements run as one group
// through the lane mask K1; the masked lanes load as +0, which is in range,
// and are never stored. It returns the start of the first group with a
// lane out of range, or len(dst), and leaves that group to the caller.
// Requires AVX-512 F and VL and FMA.
TEXT ·sigmoidAVX512(SB), NOSPLIT, $0-32
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	XORQ AX, AX
	VMOVDQU32 lanes<>(SB), Y23
	VPBROADCASTD sigc<>+448(SB), Y8 // 1 (int32 lanes)
	VPBROADCASTD sigc<>+464(SB), Y10 // exponent bias
	VPBROADCASTD sigc<>+480(SB), Y11 // 0x7FE
	VBROADCASTSD sigc<>+384(SB), Z9 // 1.0

zsigloop:
	MOVQ CX, BX
	SUBQ AX, BX
	JLE  zsigdone
	LANESBELOW(BX, K1)
	VMOVUPD.Z (DI)(AX*8), K1, Z0
	VPXORQ.BCST sigc<>+0(SB), Z0, Z0 // t = -x
	ZEXP8(zsigdone)
	VADDPD  Z9, Z0, Z0
	VDIVPD  Z0, Z9, Z0
	VMOVUPD Z0, K1, (DI)(AX*8)
	ADDQ $8, AX
	JMP  zsigloop

zsigdone:
	CMPQ AX, CX
	CMOVQGT CX, AX               // the masked last group ends at len(dst)
	MOVQ AX, ret+24(FP)
	VZEROUPPER
	RET

// func expAVX512(dst []float64) int
//
// dst[i] = exp(dst[i]) eight elements at a time through ZEXP8, each lane
// math.Exp's FMA branch operation for operation up to and including its
// final scaling by 2^k. As in sigmoidAVX512, a group with a lane whose
// biased exponent lies outside [1, 0x7FE] (NaN, ±Inf, overflow, denormal
// and underflow results) is left to the caller: the function returns its
// start, or len(dst). The last one to seven elements run as one group
// through the lane mask K1. Requires AVX-512 F and VL and FMA.
TEXT ·expAVX512(SB), NOSPLIT, $0-32
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	XORQ AX, AX
	VMOVDQU32 lanes<>(SB), Y23
	VPBROADCASTD sigc<>+448(SB), Y8 // 1 (int32 lanes)
	VPBROADCASTD sigc<>+464(SB), Y10 // exponent bias
	VPBROADCASTD sigc<>+480(SB), Y11 // 0x7FE

zexploop:
	MOVQ CX, BX
	SUBQ AX, BX
	JLE  zexpdone
	LANESBELOW(BX, K1)
	VMOVUPD.Z (DI)(AX*8), K1, Z0
	ZEXP8(zexpdone)
	VMOVUPD Z0, K1, (DI)(AX*8)
	ADDQ $8, AX
	JMP  zexploop

zexpdone:
	CMPQ AX, CX
	CMOVQGT CX, AX               // the masked last group ends at len(dst)
	MOVQ AX, ret+24(FP)
	VZEROUPPER
	RET
