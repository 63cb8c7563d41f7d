package kernels

import "math"

// useAVX gates axpyAVX, gradQuadAVX, matmulRowNZAVX, accumDiffAVX,
// scaleRowsAVX and sampleBinaryAVX, and useAVX512 the eight-lane bodies
// accumRankAVX512 and matmulAVX512, which AccumRankK and MatMul prefer.
// Their arithmetic is per-lane IEEE mul/add/sub (no FMA) and
// sign-bit selection, so enabling them never changes a result bit; the
// package tests exercise every setting the host has. matmulRowNZAVX and
// matmulAVX512 also count their nonzero lanes with POPCNT, so the gates
// require it.
var useAVX, hasAVX2FMA, useAVX512 = cpuFeatures()

// useSigmoidAVX gates sigmoidAVX, which matches 1/(1+math.Exp(-x)) only
// while math.Exp takes its own FMA branch. The standard library decides
// that branch from CPUID and GODEBUG (cpu.fma=off, cpu.avx=off), so CPUID
// alone cannot tell: the gate also requires the kernel to agree with the
// reference on inputs whose FMA and non-FMA results differ. The eight-lane
// sigmoidAVX512 and Softmax's expAVX512 run the same instruction sequence,
// so they share the probe.
var useSigmoidAVX = hasAVX2FMA && sigmoidProbe()

var useSigmoidAVX512 = useSigmoidAVX && useAVX512 // gates sigmoidAVX512 and expAVX512

// sigmoidProbeInputs are sigmoid arguments whose reference results differ
// in the last bit between math.Exp's FMA and non-FMA branches.
var sigmoidProbeInputs = [8]float64{-0.375, -2.375, -3.625, -6.375, -7.25, -14.25, -19, -22}

func sigmoidProbe() bool {
	got := sigmoidProbeInputs
	if sigmoidAVX(got[:]) != len(got) {
		return false
	}
	for i, x := range sigmoidProbeInputs {
		if math.Float64bits(got[i]) != math.Float64bits(1/(1+math.Exp(-x))) {
			return false
		}
	}
	return true
}

// cpuFeatures reports AVX and POPCNT with OS-enabled YMM state, and on top
// of them AVX2 and FMA, and AVX-512 F and VL with OS-enabled opmask and ZMM
// state, from CPUID and XGETBV.
func cpuFeatures() (avx, avx2fma, avx512 bool) {
	const osxsave, avxBit, popcntBit, fmaBit, avx2Bit = 1 << 27, 1 << 28, 1 << 23, 1 << 12, 1 << 5
	const avx512F, avx512VL = 1 << 16, 1 << 31
	// XCR0 bits 1-2: SSE and YMM state; bits 5-7: opmask, the upper
	// halves of ZMM0-15 and ZMM16-31.
	const ymmState, zmmState = 0x6, 0xe0
	const need = osxsave | avxBit | popcntBit
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&need != need {
		return false, false, false
	}
	xcr0 := xgetbv0()
	if xcr0&ymmState != ymmState {
		return false, false, false
	}
	if maxLeaf < 7 {
		return true, false, false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	avx2fma = ecx1&fmaBit != 0 && ebx7&avx2Bit != 0
	avx512 = ebx7&avx512F != 0 && ebx7&avx512VL != 0 && xcr0&zmmState == zmmState
	return true, avx2fma, avx512
}

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 returns the low word of XCR0; call it only when CPUID reports
// OSXSAVE.
func xgetbv0() uint32

//go:noescape
func axpyAVX(alpha float64, x, y []float64)

//go:noescape
func gradQuadAVX(g, p, q []float64, wx, wv *[4]float64)

//go:noescape
func accumRankAVX512(g, w, x, v, p, q []float64, m, rows, cols int)

//go:noescape
func matmulRowNZAVX(dst, a, b []float64, nz *[nzBlock]int32)

//go:noescape
func matmulAVX512(dst, a, b []float64, m, k, n int, nz *nzLists)

//go:noescape
func sigmoidAVX(dst []float64) int

//go:noescape
func sigmoidAVX512(dst []float64) int

//go:noescape
func expAVX512(dst []float64) int

//go:noescape
func accumDiffAVX(g, w, x, v []float64)

//go:noescape
func scaleRowsAVX(dst, w, src []float64)

//go:noescape
func sampleBinaryAVX(dst, u, p []float64)
