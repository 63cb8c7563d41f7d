package kernels

// Micro-benchmarks comparing the dispatched SIMD bodies against the pure-Go
// bodies, at the row shapes the RBM hot path produces (H = 40 gradient rows,
// Z = 5 class rows). Each kernel runs in every dispatch mode the host has:
// Gen (pure Go), AVX (four lanes) and AVX512 (eight lanes).

import (
	"math/rand"
	"testing"
)

// benchModes runs body as one sub-benchmark per dispatch mode the host has.
func benchModes(b *testing.B, body func(b *testing.B)) {
	defer restoreGates()
	for _, mode := range kernelModes() {
		b.Run(mode.name, func(b *testing.B) {
			mode.use()
			body(b)
		})
	}
}

func benchAxpy(b *testing.B, n int) {
	benchModes(b, func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		x, y := randSlice(rng, n), randSlice(rng, n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			Axpy(1.1, x, y)
		}
	})
}

func BenchmarkAxpy40(b *testing.B)  { benchAxpy(b, 40) }
func BenchmarkAxpy640(b *testing.B) { benchAxpy(b, 640) }

func benchGrad(b *testing.B, m, rows, cols int) {
	benchModes(b, func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		w := randSlice(rng, m)
		x, v := randSlice(rng, m*rows), randSlice(rng, m*rows)
		p, q := randSlice(rng, m*cols), randSlice(rng, m*cols)
		g := randSlice(rng, rows*cols)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			AccumRankK(g, w, x, v, p, q, m, rows, cols)
		}
	})
}

// The detector's two gradient shapes, W's [V×H] and U's transposed [Z×H],
// at its 50-instance mini-batch (two instances past the last four-instance
// pass) and at a 64-instance tile (none).
func BenchmarkGrad20x40(b *testing.B)    { benchGrad(b, 64, 20, 40) }
func BenchmarkGrad5x40(b *testing.B)     { benchGrad(b, 64, 5, 40) }
func BenchmarkGrad20x40m50(b *testing.B) { benchGrad(b, 50, 20, 40) }
func BenchmarkGrad5x40m50(b *testing.B)  { benchGrad(b, 50, 5, 40) }

func benchSigmoid(b *testing.B, n int) {
	benchModes(b, func(b *testing.B) {
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
	})
}

func BenchmarkSigmoid40(b *testing.B)   { benchSigmoid(b, 40) }
func BenchmarkSigmoid2000(b *testing.B) { benchSigmoid(b, 2000) }

// BenchmarkSoftmax50x5 times the class layer's softmax over the detector's
// 50-instance tile of Z=5 rows, as the Gibbs chain and scoring call it.
func BenchmarkSoftmax50x5(b *testing.B) {
	benchModes(b, func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		src := make([]float64, 50*5)
		for i := range src {
			src[i] = 3 * rng.NormFloat64()
		}
		dst := make([]float64, len(src))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			copy(dst, src)
			Softmax(dst, 5)
		}
	})
}

// BenchmarkBroadcast50x40 times the bias seeding of the detector's
// 50-instance hidden tile, H=40.
func BenchmarkBroadcast50x40(b *testing.B) {
	benchModes(b, func(b *testing.B) {
		row := randSlice(rand.New(rand.NewSource(1)), 40)
		dst := make([]float64, 50*40)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			Broadcast(dst, row, 50)
		}
	})
}

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
		b.Run(p.name, func(b *testing.B) {
			benchModes(b, func(b *testing.B) {
				dst := make([]float64, B*p.n)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					MatMul(dst, p.a, p.b, B, p.k, p.n)
				}
			})
		})
	}
}
