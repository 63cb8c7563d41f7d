//go:build !amd64

package kernels

// The gates are permanently false off amd64; the pure-Go bodies are the
// only implementation and the stubs below are unreachable.
var useAVX, useAVX512, useSigmoidAVX, useSigmoidAVX512 = false, false, false, false

func axpyAVX(alpha float64, x, y []float64) {
	panic("kernels: axpyAVX without amd64 support")
}

func gradQuadAVX(g, p, q []float64, wx, wv *[4]float64) {
	panic("kernels: gradQuadAVX without amd64 support")
}

func accumRankAVX512(g, w, x, v, p, q []float64, m, rows, cols int) {
	panic("kernels: accumRankAVX512 without amd64 support")
}

func matmulAVX512(dst, a, b []float64, m, k, n int, nz *nzLists) {
	panic("kernels: matmulAVX512 without amd64 support")
}

func sigmoidAVX512(dst []float64) int {
	panic("kernels: sigmoidAVX512 without amd64 support")
}

func expAVX512(dst []float64) int {
	panic("kernels: expAVX512 without amd64 support")
}

func matmulRowNZAVX(dst, a, b []float64, nz *[nzBlock]int32) {
	panic("kernels: matmulRowNZAVX without amd64 support")
}

func sigmoidAVX(dst []float64) int {
	panic("kernels: sigmoidAVX without amd64 support")
}

func accumDiffAVX(g, w, x, v []float64) {
	panic("kernels: accumDiffAVX without amd64 support")
}

func scaleRowsAVX(dst, w, src []float64) {
	panic("kernels: scaleRowsAVX without amd64 support")
}

func sampleBinaryAVX(dst, u, p []float64) {
	panic("kernels: sampleBinaryAVX without amd64 support")
}
