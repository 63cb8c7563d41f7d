package kernels

import (
	"math"
	"math/rand"
	"testing"
)

// The kernels' contract is bitwise: every primitive must produce, per output
// element, the exact float64 of its naive reference loop, because core.RBM
// relies on that to keep batch-major CD-k training bit-identical to the
// per-instance path. Each property test therefore draws random shapes
// (including empty and length-1 edges) and random data (with exact zeros
// injected, exercising the zero-skip branches) and compares bit for bit.

// randSlice fills a slice with values in [-2, 2); about one in five entries
// is an exact zero so the zero-skip paths are exercised.
func randSlice(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		if rng.Intn(5) == 0 {
			continue // exact zero
		}
		s[i] = 4*rng.Float64() - 2
	}
	return s
}

// randDim draws a dimension biased toward the edge cases 0 and 1.
func randDim(rng *rand.Rand, max int) int {
	switch rng.Intn(6) {
	case 0:
		return 0
	case 1:
		return 1
	default:
		return rng.Intn(max) + 1
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// --- naive references (the contract, written as the obvious loops) ---

func naiveDot(x, y []float64) float64 {
	var s float64
	for i := range x {
		s += x[i] * y[i]
	}
	return s
}

func naiveAxpy(a float64, x, y []float64) {
	for i := range x {
		y[i] += a * x[i]
	}
}

func naiveAddScaled(dst []float64, a float64, x []float64, b float64, y []float64) {
	for i := range dst {
		dst[i] = a*x[i] + b*y[i]
	}
}

func naiveAxpyDiff(w float64, x, v, dst []float64) {
	for i := range dst {
		dst[i] += w * (x[i] - v[i])
	}
}

func naiveMatMul(dst, a, b []float64, m, k, n int) {
	for r := 0; r < m; r++ {
		for i := 0; i < k; i++ {
			ai := a[r*k+i]
			if ai == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				dst[r*n+j] += ai * b[i*n+j]
			}
		}
	}
}

func naiveAccumRankK(g, w, x, v, p, q []float64, m, rows, cols int) {
	for n := 0; n < m; n++ {
		wn := w[n]
		for i := 0; i < rows; i++ {
			wxi := wn * x[n*rows+i]
			wvi := wn * v[n*rows+i]
			for j := 0; j < cols; j++ {
				g[i*cols+j] += wxi*p[n*cols+j] - wvi*q[n*cols+j]
			}
		}
	}
}

func naiveSigmoid(dst []float64) {
	for i := range dst {
		dst[i] = 1 / (1 + math.Exp(-dst[i]))
	}
}

func naiveSoftmax(dst []float64) {
	if len(dst) == 0 {
		return
	}
	maxS := math.Inf(-1)
	for _, s := range dst {
		if s > maxS {
			maxS = s
		}
	}
	sum := 0.0
	for k := range dst {
		dst[k] = math.Exp(dst[k] - maxS)
		sum += dst[k]
	}
	for k := range dst {
		dst[k] /= sum
	}
}

// --- property tests ---

const propRounds = 300

func TestDotMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < propRounds; round++ {
		n := randDim(rng, 200)
		x, y := randSlice(rng, n), randSlice(rng, n)
		got, want := Dot(x, y), naiveDot(x, y)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("n=%d: Dot = %v, naive = %v", n, got, want)
		}
	}
}

func TestAxpyMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for round := 0; round < propRounds; round++ {
		n := randDim(rng, 200)
		a := 4*rng.Float64() - 2
		x := randSlice(rng, n)
		y := randSlice(rng, n)
		yRef := append([]float64(nil), y...)
		Axpy(a, x, y)
		naiveAxpy(a, x, yRef)
		if !sameBits(y, yRef) {
			t.Fatalf("n=%d: Axpy diverged from naive", n)
		}
	}
}

func TestAddScaledMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < propRounds; round++ {
		n := randDim(rng, 200)
		a, b := 4*rng.Float64()-2, 4*rng.Float64()-2
		x, y := randSlice(rng, n), randSlice(rng, n)
		dst := make([]float64, n)
		dstRef := make([]float64, n)
		AddScaled(dst, a, x, b, y)
		naiveAddScaled(dstRef, a, x, b, y)
		if !sameBits(dst, dstRef) {
			t.Fatalf("n=%d: AddScaled diverged from naive", n)
		}
		// Aliased form dst == x (the momentum update's shape).
		xAlias := append([]float64(nil), x...)
		AddScaled(xAlias, a, xAlias, b, y)
		if !sameBits(xAlias, dstRef) {
			t.Fatalf("n=%d: aliased AddScaled diverged from naive", n)
		}
	}
}

func TestAxpyDiffMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for round := 0; round < propRounds; round++ {
		n := randDim(rng, 200)
		w := 4*rng.Float64() - 2
		x, v := randSlice(rng, n), randSlice(rng, n)
		dst := randSlice(rng, n)
		dstRef := append([]float64(nil), dst...)
		AxpyDiff(w, x, v, dst)
		naiveAxpyDiff(w, x, v, dstRef)
		if !sameBits(dst, dstRef) {
			t.Fatalf("n=%d: AxpyDiff diverged from naive", n)
		}
	}
}

func TestMatMulMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < propRounds; round++ {
		m, k, n := randDim(rng, 12), randDim(rng, 150), randDim(rng, 150)
		a := randSlice(rng, m*k)
		b := randSlice(rng, k*n)
		dst := randSlice(rng, m*n)
		dstRef := append([]float64(nil), dst...)
		MatMul(dst, a, b, m, k, n)
		naiveMatMul(dstRef, a, b, m, k, n)
		if !sameBits(dst, dstRef) {
			t.Fatalf("m=%d k=%d n=%d: MatMul diverged from naive", m, k, n)
		}
	}
}

// sweepRows draws the m×k left operand of TestMatMulShapeSweep in one of
// three forms: 0, a sampled {0,1} state with about half zeros; 1, one-hot
// rows; 2, dense rows with ±0 entries and a denormal in every row, +Inf and
// -Inf in the second row and a NaN in the third. No row holds both a NaN
// and an Inf: when two NaNs meet in one addition the result carries the
// payload of whichever operand comes first, and the Go compiler picks that
// order per loop (naiveMatMul and axpyGeneric differ), so such a row would
// test the compiler rather than the kernels.
func sweepRows(rng *rand.Rand, form, m, k int) []float64 {
	a := make([]float64, m*k)
	for r := 0; r < m; r++ {
		row := a[r*k : r*k+k]
		switch form {
		case 0:
			for i := range row {
				row[i] = float64(rng.Intn(2))
			}
		case 1:
			row[rng.Intn(k)] = 1
		default:
			for i := range row {
				switch rng.Intn(6) {
				case 0:
					row[i] = 0
				case 1:
					row[i] = math.Copysign(0, -1)
				default:
					row[i] = 4*rng.Float64() - 2
				}
			}
			row[rng.Intn(k)] = 5e-324
			switch r {
			case 1:
				row[rng.Intn(k)] = math.Inf(1)
				row[rng.Intn(k)] = math.Inf(-1)
			case 2:
				row[rng.Intn(k)] = math.NaN()
			}
		}
	}
	return a
}

// TestMatMulShapeSweep pins MatMul bitwise to naiveMatMul over every width
// 1..100 (each 4-lane tail; one, two and three 48-column groups of the AVX
// body) and accumulation lengths around its 4-wide compaction tails and
// 256-entry block edges, on sampled, one-hot and dense left operands. Every
// b row whose a entries are all zero holds NaNs, so a zero the kernel fails
// to skip shows in dst; dst starts as a mix of +0 and -0. Both dispatch
// paths run.
func TestMatMulShapeSweep(t *testing.T) {
	defer func(old bool) { useAVX = old }(useAVX)
	modes := []bool{false}
	if useAVX {
		modes = append(modes, true)
	}
	const m = 3
	rng := rand.New(rand.NewSource(21))
	for _, k := range []int{1, 3, 4, 5, 255, 256, 257, 600} {
		for n := 1; n <= 100; n++ {
			for form := 0; form < 3; form++ {
				a := sweepRows(rng, form, m, k)
				b := randSlice(rng, k*n)
				for i := 0; i < k; i++ {
					if a[i] == 0 && a[k+i] == 0 && a[2*k+i] == 0 {
						for c := 0; c < n; c++ {
							if rng.Intn(2) == 0 {
								b[i*n+c] = math.NaN()
							}
						}
					}
				}
				dst0 := make([]float64, m*n)
				for i := range dst0 {
					if rng.Intn(2) == 0 {
						dst0[i] = math.Copysign(0, -1)
					}
				}
				want := append([]float64(nil), dst0...)
				naiveMatMul(want, a, b, m, k, n)
				for _, avx := range modes {
					useAVX = avx
					got := append([]float64(nil), dst0...)
					MatMul(got, a, b, m, k, n)
					if !sameBits(got, want) {
						t.Fatalf("k=%d n=%d form=%d avx=%v: MatMul diverged from naive", k, n, form, avx)
					}
				}
			}
		}
	}
}

func TestAccumRankKMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < propRounds; round++ {
		m, rows, cols := randDim(rng, 150), randDim(rng, 12), randDim(rng, 60)
		w := randSlice(rng, m)
		x, v := randSlice(rng, m*rows), randSlice(rng, m*rows)
		p, q := randSlice(rng, m*cols), randSlice(rng, m*cols)
		g := randSlice(rng, rows*cols)
		gRef := append([]float64(nil), g...)
		AccumRankK(g, w, x, v, p, q, m, rows, cols)
		naiveAccumRankK(gRef, w, x, v, p, q, m, rows, cols)
		if !sameBits(g, gRef) {
			t.Fatalf("m=%d rows=%d cols=%d: AccumRankK diverged from naive", m, rows, cols)
		}
	}
}

func TestBroadcastFillsRows(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for round := 0; round < propRounds; round++ {
		m, n := randDim(rng, 20), randDim(rng, 50)
		row := randSlice(rng, n)
		dst := randSlice(rng, m*n)
		Broadcast(dst, row, m)
		for r := 0; r < m; r++ {
			if !sameBits(dst[r*n:r*n+n], row) {
				t.Fatalf("m=%d n=%d: row %d not broadcast", m, n, r)
			}
		}
	}
}

// sigmoidSpecials are arguments at the edges of math.Exp's branches: ±0,
// NaN, ±Inf, denormals, out-of-int32 exponents, and the arguments around
// the biased exponents 0, 1, 0x7FE and 0x7FF of exp(-x), where the vector
// path hands over to the scalar expression.
var sigmoidSpecials = []float64{
	0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
	5e-324, -5e-324, 2.2250738585072009e-308, -2.2250738585072014e-308,
	3e9, -3e9,
	708, -708, 708.4, 709.09, -709, -709.78, 709.78,
	745, -745, 746, -746,
}

// sigmoidInput draws a Sigmoid argument: a special, a random bit pattern, or
// an N(0, 25) value (about 4% of which differ between math.Exp's FMA and
// non-FMA branches).
func sigmoidInput(rng *rand.Rand) float64 {
	switch rng.Intn(4) {
	case 0:
		return sigmoidSpecials[rng.Intn(len(sigmoidSpecials))]
	case 1:
		return math.Float64frombits(rng.Uint64())
	default:
		return 5 * rng.NormFloat64()
	}
}

// TestSigmoidMatchesNaive pins Sigmoid to 1/(1+math.Exp(-x)) bit for bit:
// over the shared random shapes, then at every length 0..37 (every scalar
// tail length, refused groups at every position) over specials, random bit
// patterns and N(0, 25) draws, then on each special alone.
func TestSigmoidMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	check := func(dst []float64) {
		t.Helper()
		dstRef := append([]float64(nil), dst...)
		Sigmoid(dst)
		naiveSigmoid(dstRef)
		if !sameBits(dst, dstRef) {
			t.Fatalf("n=%d: Sigmoid diverged from naive", len(dst))
		}
	}
	for round := 0; round < propRounds; round++ {
		check(randSlice(rng, randDim(rng, 200)))
	}
	for n := 0; n <= 37; n++ {
		for round := 0; round < 50; round++ {
			dst := make([]float64, n)
			for i := range dst {
				dst[i] = sigmoidInput(rng)
			}
			check(dst)
		}
	}
	for _, x := range sigmoidSpecials {
		check([]float64{x, x, x, x, x})
	}
}

func TestSoftmaxMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for round := 0; round < propRounds; round++ {
		n := randDim(rng, 50)
		dst := randSlice(rng, n)
		dstRef := append([]float64(nil), dst...)
		Softmax(dst)
		naiveSoftmax(dstRef)
		if !sameBits(dst, dstRef) {
			t.Fatalf("n=%d: Softmax diverged from naive", n)
		}
		sum := 0.0
		for _, p := range dst {
			sum += p
		}
		if n > 0 && math.Abs(sum-1) > 1e-9 {
			t.Fatalf("n=%d: softmax sums to %v", n, sum)
		}
	}
}

// TestSIMDAndGenericPathsAgree reruns the dispatched kernels with the
// assembly paths disabled and asserts bitwise agreement with the enabled
// path over random shapes (on platforms without assembly both runs take the
// generic path and the test is a tautology). The main property tests cover
// whichever path the host dispatches to; this pins the other one.
func TestSIMDAndGenericPathsAgree(t *testing.T) {
	if !useAVX {
		t.Skip("no SIMD path on this host; generic path already covered")
	}
	sigAVX := useSigmoidAVX
	defer func() { useAVX, useSigmoidAVX = true, sigAVX }()
	rng := rand.New(rand.NewSource(20))
	for round := 0; round < propRounds; round++ {
		n := randDim(rng, 200)
		a := 4*rng.Float64() - 2
		x, y := randSlice(rng, n), randSlice(rng, n)
		ySIMD := append([]float64(nil), y...)
		useAVX = true
		Axpy(a, x, ySIMD)
		useAVX = false
		Axpy(a, x, y)
		if !sameBits(y, ySIMD) {
			t.Fatalf("n=%d: Axpy SIMD and generic paths disagree", n)
		}

		mm, mk, mn := randDim(rng, 8), randDim(rng, 100), randDim(rng, 100)
		ma := randSlice(rng, mm*mk)
		mb := randSlice(rng, mk*mn)
		md := randSlice(rng, mm*mn)
		mdSIMD := append([]float64(nil), md...)
		useAVX = true
		MatMul(mdSIMD, ma, mb, mm, mk, mn)
		useAVX = false
		MatMul(md, ma, mb, mm, mk, mn)
		if !sameBits(md, mdSIMD) {
			t.Fatalf("m=%d k=%d n=%d: MatMul SIMD and generic paths disagree", mm, mk, mn)
		}

		m, rows, cols := randDim(rng, 40), randDim(rng, 10), randDim(rng, 60)
		w := randSlice(rng, m)
		xm, vm := randSlice(rng, m*rows), randSlice(rng, m*rows)
		p, q := randSlice(rng, m*cols), randSlice(rng, m*cols)
		g := randSlice(rng, rows*cols)
		gSIMD := append([]float64(nil), g...)
		useAVX = true
		AccumRankK(gSIMD, w, xm, vm, p, q, m, rows, cols)
		useAVX = false
		AccumRankK(g, w, xm, vm, p, q, m, rows, cols)
		if !sameBits(g, gSIMD) {
			t.Fatalf("m=%d rows=%d cols=%d: AccumRankK SIMD and generic paths disagree", m, rows, cols)
		}

		sn := randDim(rng, 200)
		sg := make([]float64, sn)
		for i := range sg {
			sg[i] = sigmoidInput(rng)
		}
		sgSIMD := append([]float64(nil), sg...)
		useSigmoidAVX = sigAVX
		Sigmoid(sgSIMD)
		useSigmoidAVX = false
		Sigmoid(sg)
		if !sameBits(sg, sgSIMD) {
			t.Fatalf("n=%d: Sigmoid SIMD and generic paths disagree", sn)
		}
	}
}

// TestEmptyAndUnitShapesExplicit pins the degenerate shapes the random
// generators only hit probabilistically.
func TestEmptyAndUnitShapesExplicit(t *testing.T) {
	if got := Dot(nil, nil); got != 0 {
		t.Fatalf("Dot(nil, nil) = %v", got)
	}
	if got := Dot([]float64{3}, []float64{4}); got != 12 {
		t.Fatalf("Dot length-1 = %v", got)
	}
	Axpy(2, nil, nil) // must not panic
	y := []float64{1}
	Axpy(2, []float64{3}, y)
	if y[0] != 7 {
		t.Fatalf("Axpy length-1 = %v", y[0])
	}
	AddScaled(nil, 1, nil, 1, nil)
	MatMul(nil, nil, nil, 0, 0, 0)
	AccumRankK(nil, nil, nil, nil, nil, nil, 0, 0, 0)
	Softmax(nil)
	Sigmoid(nil)
	Broadcast(nil, nil, 0)

	d := []float64{0.5}
	MatMul(d, []float64{2}, []float64{3}, 1, 1, 1)
	if d[0] != 6.5 {
		t.Fatalf("MatMul 1x1x1 = %v", d[0])
	}
	s := []float64{4}
	Softmax(s)
	if s[0] != 1 {
		t.Fatalf("Softmax length-1 = %v", s[0])
	}
}
