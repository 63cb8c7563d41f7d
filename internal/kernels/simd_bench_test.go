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

// BenchmarkMatMulRBMPasses times the detector's five MatMul shapes at a
// 50-instance mini-batch with V=20, H=40, Z=5: the dense x→h pass, the
// Gibbs chain's h→v and h→z passes on a sampled {0,1} hidden state, and
// ScoreBatch's h→v and h→z passes on dense hidden probabilities.
func BenchmarkMatMulRBMPasses(b *testing.B) {
	const B, V, H, Z = 50, 20, 40, 5
	rng := rand.New(rand.NewSource(1))
	dense := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = rng.Float64()
		}
		return s
	}
	sampled := make([]float64, B*H)
	for i := range sampled {
		sampled[i] = float64(rng.Intn(2))
	}
	x, hProb := dense(B*V), dense(B*H)
	w, wT, u := randSlice(rng, V*H), randSlice(rng, H*V), randSlice(rng, H*Z)
	passes := []struct {
		name string
		a, b []float64
		k, n int
	}{
		{"x-h", x, w, V, H},
		{"h-v-sampled", sampled, wT, H, V},
		{"h-z-sampled", sampled, u, H, Z},
		{"h-v-dense", hProb, wT, H, V},
		{"h-z-dense", hProb, u, H, Z},
	}
	for _, p := range passes {
		for _, mode := range []struct {
			name string
			avx  bool
		}{{"AVX", true}, {"Gen", false}} {
			b.Run(p.name+"/"+mode.name, func(b *testing.B) {
				old := useAVX
				useAVX = mode.avx && old
				defer func() { useAVX = old }()
				dst := make([]float64, B*p.n)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					MatMul(dst, p.a, p.b, B, p.k, p.n)
				}
			})
		}
	}
}
