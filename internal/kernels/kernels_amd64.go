package kernels

import "math"

// useAVX gates axpyAVX, gradQuadAVX and matmulRowNZAVX. Their arithmetic is
// per-lane IEEE mul/add/sub (no FMA), so enabling them never changes a
// result bit; the package tests exercise both settings. matmulRowNZAVX
// also counts its nonzero lanes with POPCNT, so the gate requires it.
var useAVX, hasAVX2FMA = cpuFeatures()

// useSigmoidAVX gates sigmoidAVX, which matches 1/(1+math.Exp(-x)) only
// while math.Exp takes its own FMA branch. The standard library decides
// that branch from CPUID and GODEBUG (cpu.fma=off, cpu.avx=off), so CPUID
// alone cannot tell: the gate also requires the kernel to agree with the
// reference on inputs whose FMA and non-FMA results differ.
var useSigmoidAVX = hasAVX2FMA && sigmoidProbe()

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
// of them AVX2 and FMA, from CPUID and XGETBV.
func cpuFeatures() (avx, avx2fma bool) {
	const osxsave, avxBit, popcntBit, fmaBit, avx2Bit = 1 << 27, 1 << 28, 1 << 23, 1 << 12, 1 << 5
	const need = osxsave | avxBit | popcntBit
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&need != need || xgetbv0()&6 != 6 {
		return false, false
	}
	if maxLeaf < 7 || ecx1&fmaBit == 0 {
		return true, false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return true, ebx7&avx2Bit != 0
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
func matmulRowNZAVX(dst, a, b []float64, nz *[nzBlock]int32)

//go:noescape
func sigmoidAVX(dst []float64) int
