package kernels

// Micro-benchmarks comparing the dispatched SIMD bodies against the pure-Go
// bodies, at the row shapes the RBM hot path produces (H = 40 gradient rows,
// Z = 5 class rows). On non-amd64 hosts both variants take the generic path.

import (
	"math/rand"
	"testing"
)

func benchAxpyMode(b *testing.B, n int, avx bool) {
	old := useAVX
	useAVX = avx && old
	defer func() { useAVX = old }()
	rng := rand.New(rand.NewSource(1))
	x, y := randSlice(rng, n), randSlice(rng, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Axpy(1.1, x, y)
	}
}

func BenchmarkAxpy40AVX(b *testing.B)  { benchAxpyMode(b, 40, true) }
func BenchmarkAxpy40Gen(b *testing.B)  { benchAxpyMode(b, 40, false) }
func BenchmarkAxpy640AVX(b *testing.B) { benchAxpyMode(b, 640, true) }
func BenchmarkAxpy640Gen(b *testing.B) { benchAxpyMode(b, 640, false) }

func benchGradMode(b *testing.B, rows, cols int, avx bool) {
	old := useAVX
	useAVX = avx && old
	defer func() { useAVX = old }()
	rng := rand.New(rand.NewSource(1))
	const m = 64
	w := randSlice(rng, m)
	x, v := randSlice(rng, m*rows), randSlice(rng, m*rows)
	p, q := randSlice(rng, m*cols), randSlice(rng, m*cols)
	g := randSlice(rng, rows*cols)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AccumRankK(g, w, x, v, p, q, m, rows, cols)
	}
}

func BenchmarkGrad20x40AVX(b *testing.B) { benchGradMode(b, 20, 40, true) }
func BenchmarkGrad20x40Gen(b *testing.B) { benchGradMode(b, 20, 40, false) }
func BenchmarkGrad40x5AVX(b *testing.B)  { benchGradMode(b, 40, 5, true) }
func BenchmarkGrad40x5Gen(b *testing.B)  { benchGradMode(b, 40, 5, false) }

func benchSigmoidMode(b *testing.B, n int, avx bool) {
	old := useSigmoidAVX
	useSigmoidAVX = avx && old
	defer func() { useSigmoidAVX = old }()
	rng := rand.New(rand.NewSource(1))
	src := make([]float64, n)
	for i := range src {
		src[i] = 5 * rng.NormFloat64()
	}
	dst := make([]float64, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(dst, src)
		Sigmoid(dst)
	}
}

func BenchmarkSigmoid40AVX(b *testing.B)   { benchSigmoidMode(b, 40, true) }
func BenchmarkSigmoid40Gen(b *testing.B)   { benchSigmoidMode(b, 40, false) }
func BenchmarkSigmoid2000AVX(b *testing.B) { benchSigmoidMode(b, 2000, true) }
func BenchmarkSigmoid2000Gen(b *testing.B) { benchSigmoidMode(b, 2000, false) }
