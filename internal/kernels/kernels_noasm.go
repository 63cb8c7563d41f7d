//go:build !amd64

package kernels

// useAVX and useSigmoidAVX are permanently false off amd64; the pure-Go
// bodies are the only implementation and the stubs below are unreachable.
var useAVX, useSigmoidAVX = false, false

func axpyAVX(alpha float64, x, y []float64) {
	panic("kernels: axpyAVX without amd64 support")
}

func gradQuadAVX(g, p, q []float64, wx, wv *[4]float64) {
	panic("kernels: gradQuadAVX without amd64 support")
}

func matmulRowNZAVX(dst, a, b []float64, nz *[nzBlock]int32) {
	panic("kernels: matmulRowNZAVX without amd64 support")
}

func sigmoidAVX(dst []float64) int {
	panic("kernels: sigmoidAVX without amd64 support")
}
