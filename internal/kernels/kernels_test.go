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

// hostGates are the dispatch gates as the host set them at init.
var hostGates = struct{ avx, avx512, sigmoid, sigmoid512 bool }{
	useAVX, useAVX512, useSigmoidAVX, useSigmoidAVX512,
}

// kernelMode is one dispatch setting: Gen, the pure-Go bodies; AVX, the
// four-lane bodies (with AVX2 and FMA, the four-lane sigmoid); AVX512, the
// eight-lane bodies on top of them.
type kernelMode struct {
	name        string
	avx, avx512 bool
}

// kernelModes lists the dispatch settings the host can run: the generic
// bodies, the AVX bodies where the CPU has them, and the AVX-512 bodies
// where it has those too. Tests that switch modes defer restoreGates.
func kernelModes() []kernelMode {
	modes := []kernelMode{{name: "Gen"}}
	if hostGates.avx {
		modes = append(modes, kernelMode{"AVX", true, false})
	}
	if hostGates.avx512 {
		modes = append(modes, kernelMode{"AVX512", true, true})
	}
	return modes
}

// use switches every gate to the mode, within what the host allows.
func (m kernelMode) use() {
	useAVX = m.avx && hostGates.avx
	useAVX512 = m.avx512 && hostGates.avx512
	useSigmoidAVX = m.avx && hostGates.sigmoid
	useSigmoidAVX512 = m.avx512 && hostGates.sigmoid512
}

func restoreGates() {
	useAVX, useAVX512 = hostGates.avx, hostGates.avx512
	useSigmoidAVX, useSigmoidAVX512 = hostGates.sigmoid, hostGates.sigmoid512
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

func naiveAccumDiffK(g, w, x, v []float64, m int) {
	cols := len(g)
	for n := 0; n < m; n++ {
		for j := range g {
			g[j] += w[n] * (x[n*cols+j] - v[n*cols+j])
		}
	}
}

func naiveSampleBinary(dst, u, p []float64) {
	for i := range dst {
		if u[i] < p[i] {
			dst[i] = 1
		} else {
			dst[i] = 0
		}
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

// naiveSoftmax is the class-layer softmax of one row, the reference every
// width-wide row of Softmax's tile must match.
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
	defer restoreGates()
	rng := rand.New(rand.NewSource(2))
	for round := 0; round < propRounds; round++ {
		n := randDim(rng, 200)
		a := 4*rng.Float64() - 2
		x := randSlice(rng, n)
		y0 := randSlice(rng, n)
		yRef := append([]float64(nil), y0...)
		naiveAxpy(a, x, yRef)
		for _, mode := range kernelModes() {
			mode.use()
			y := append([]float64(nil), y0...)
			Axpy(a, x, y)
			if !sameBits(y, yRef) {
				t.Fatalf("n=%d mode=%s: Axpy diverged from naive", n, mode.name)
			}
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

// TestAccumDiffKSweep pins AccumDiffK bitwise to the one-instance-at-a-time
// loop at every width 0..67 (each 4-lane tail, one and two 48-column groups
// of the AVX body) and tile lengths 0..5 and 64, on every dispatch path.
// The operands hold exact zeros and equal x and v entries, whose differences
// are +0, and g starts as a mix of +0 and -0.
func TestAccumDiffKSweep(t *testing.T) {
	defer restoreGates()
	modes := kernelModes()
	rng := rand.New(rand.NewSource(4))
	for cols := 0; cols <= 67; cols++ {
		for _, m := range []int{0, 1, 2, 3, 4, 5, 64} {
			w := randSlice(rng, m)
			x, v := randSlice(rng, m*cols), randSlice(rng, m*cols)
			for i := range v {
				if rng.Intn(6) == 0 {
					v[i] = x[i]
				}
			}
			g0 := randSlice(rng, cols)
			for i := range g0 {
				if g0[i] == 0 && rng.Intn(2) == 0 {
					g0[i] = math.Copysign(0, -1)
				}
			}
			want := append([]float64(nil), g0...)
			naiveAccumDiffK(want, w, x, v, m)
			for _, mode := range modes {
				mode.use()
				got := append([]float64(nil), g0...)
				AccumDiffK(got, w, x, v, m)
				if !sameBits(got, want) {
					t.Fatalf("cols=%d m=%d mode=%s: AccumDiffK diverged from naive", cols, m, mode.name)
				}
			}
		}
	}
}

// TestScaleRowsSweep pins ScaleRows to one multiply per element at every
// row width 0..67 and row counts 1..5 and 64, on every dispatch path, in
// place and not.
func TestScaleRowsSweep(t *testing.T) {
	defer restoreGates()
	modes := kernelModes()
	rng := rand.New(rand.NewSource(23))
	for cols := 0; cols <= 67; cols++ {
		for _, m := range []int{1, 2, 3, 4, 5, 64} {
			w, src := randSlice(rng, m), randSlice(rng, m*cols)
			want := make([]float64, m*cols)
			for n := 0; n < m; n++ {
				for j := 0; j < cols; j++ {
					want[n*cols+j] = w[n] * src[n*cols+j]
				}
			}
			for _, mode := range modes {
				mode.use()
				got := make([]float64, m*cols)
				ScaleRows(got, w, src, m)
				inPlace := append([]float64(nil), src...)
				ScaleRows(inPlace, w, inPlace, m)
				if !sameBits(got, want) || !sameBits(inPlace, want) {
					t.Fatalf("cols=%d m=%d mode=%s: ScaleRows diverged from naive", cols, m, mode.name)
				}
			}
		}
	}
}

// TestSampleBinarySweep pins SampleBinary to the comparison u < p at every
// length 0..67 on every dispatch path, in place (dst aliasing p, as the
// Gibbs chain calls it) and not. The draws include u == p, neighbours one
// ulp apart, 0 and 1 on either side, and probabilities whose difference
// with u is subnormal.
func TestSampleBinarySweep(t *testing.T) {
	defer restoreGates()
	modes := kernelModes()
	rng := rand.New(rand.NewSource(22))
	draw := func() (u, p float64) {
		u, p = rng.Float64(), rng.Float64()
		switch rng.Intn(8) {
		case 0:
			p = u
		case 1:
			p = math.Nextafter(u, 2)
		case 2:
			p = math.Nextafter(u, -1)
		case 3:
			u, p = 0, []float64{0, 1, 5e-324}[rng.Intn(3)]
		case 4:
			p = []float64{0, 1}[rng.Intn(2)]
		case 5:
			u, p = 1e-308, 1e-308+5e-324*float64(rng.Intn(3))
		}
		return u, p
	}
	for n := 0; n <= 67; n++ {
		for round := 0; round < 20; round++ {
			u, p := make([]float64, n), make([]float64, n)
			for i := range u {
				u[i], p[i] = draw()
			}
			want := make([]float64, n)
			naiveSampleBinary(want, u, p)
			for _, mode := range modes {
				mode.use()
				got := make([]float64, n)
				SampleBinary(got, u, p)
				inPlace := append([]float64(nil), p...)
				SampleBinary(inPlace, u, inPlace)
				if !sameBits(got, want) || !sameBits(inPlace, want) {
					t.Fatalf("n=%d mode=%s: SampleBinary diverged from u < p", n, mode.name)
				}
			}
		}
	}
}

func TestMatMulMatchesNaive(t *testing.T) {
	defer restoreGates()
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < propRounds; round++ {
		m, k, n := randDim(rng, 12), randDim(rng, 150), randDim(rng, 150)
		a := randSlice(rng, m*k)
		b := randSlice(rng, k*n)
		dst0 := randSlice(rng, m*n)
		dstRef := append([]float64(nil), dst0...)
		naiveMatMul(dstRef, a, b, m, k, n)
		for _, mode := range kernelModes() {
			mode.use()
			dst := append([]float64(nil), dst0...)
			MatMul(dst, a, b, m, k, n)
			if !sameBits(dst, dstRef) {
				t.Fatalf("m=%d k=%d n=%d mode=%s: MatMul diverged from naive", m, k, n, mode.name)
			}
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

// denseRows draws the m×k left operand of TestMatMulShapeSweep's dense
// blocks: every entry nonzero (form 3), then exactly one ±0 (form 4) or one
// NaN (form 5) at a random place. It returns the index of that entry's
// column, or -1.
func denseRows(rng *rand.Rand, form, m, k int) ([]float64, int) {
	a := make([]float64, m*k)
	for i := range a {
		a[i] = 0.5 + rng.Float64()
		if rng.Intn(2) == 0 {
			a[i] = -a[i]
		}
	}
	if form == 3 {
		return a, -1
	}
	at := rng.Intn(m * k)
	a[at] = math.NaN()
	if form == 4 {
		a[at] = math.Copysign(0, float64(rng.Intn(2)*2-1))
	}
	return a, at % k
}

// TestMatMulShapeSweep pins MatMul bitwise to naiveMatMul over every width
// 1..100 (each 4- and 8-lane tail; one, two and three 48-column groups of
// the AVX and AVX-512 bodies; the four- and two-row groups of the AVX-512
// body and the single rows after them) and accumulation lengths around the
// 4- and 8-wide compaction tails and the 64- and 256-entry block edges, on
// sampled, one-hot and dense left operands. About a quarter of the indices
// are zero in every row, and their b rows hold NaNs, so a zero the kernel
// fails to skip shows in dst; dst starts as a mix of +0 and -0. At k = 63,
// 64 and 65 it also runs blocks with no zero at all (the AVX-512 body's
// direct walk), with exactly one ±0 (whose b row holds NaNs), and with one
// NaN. Every dispatch path runs.
func TestMatMulShapeSweep(t *testing.T) {
	defer restoreGates()
	modes := kernelModes()
	const m = 7
	rng := rand.New(rand.NewSource(21))
	for _, k := range []int{1, 3, 4, 5, 7, 8, 9, 63, 64, 65, 129, 255, 256, 257, 600} {
		forms := 3
		if k >= 63 && k <= 65 {
			forms = 6
		}
		for n := 1; n <= 100; n++ {
			for form := 0; form < forms; form++ {
				var a, b []float64
				if form < 3 {
					a = sweepRows(rng, form, m, k)
					b = randSlice(rng, k*n)
					for i := 0; i < k; i++ {
						if rng.Intn(4) == 0 {
							for r := 0; r < m; r++ {
								a[r*k+i] = math.Copysign(0, float64(rng.Intn(2)*2-1))
							}
						}
						dead := true
						for r := 0; r < m; r++ {
							dead = dead && a[r*k+i] == 0
						}
						if dead {
							for c := 0; c < n; c++ {
								if rng.Intn(2) == 0 {
									b[i*n+c] = math.NaN()
								}
							}
						}
					}
				} else {
					var at int
					a, at = denseRows(rng, form, m, k)
					b = randSlice(rng, k*n)
					if form == 4 {
						b[at*n+rng.Intn(n)] = math.NaN()
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
				for _, mode := range modes {
					mode.use()
					got := append([]float64(nil), dst0...)
					MatMul(got, a, b, m, k, n)
					if !sameBits(got, want) {
						t.Fatalf("k=%d n=%d form=%d mode=%s: MatMul diverged from naive", k, n, form, mode.name)
					}
				}
			}
		}
	}
}

func TestAccumRankKMatchesNaive(t *testing.T) {
	defer restoreGates()
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < propRounds; round++ {
		m, rows, cols := randDim(rng, 150), randDim(rng, 12), randDim(rng, 60)
		w := randSlice(rng, m)
		x, v := randSlice(rng, m*rows), randSlice(rng, m*rows)
		p, q := randSlice(rng, m*cols), randSlice(rng, m*cols)
		g0 := randSlice(rng, rows*cols)
		gRef := append([]float64(nil), g0...)
		naiveAccumRankK(gRef, w, x, v, p, q, m, rows, cols)
		for _, mode := range kernelModes() {
			mode.use()
			g := append([]float64(nil), g0...)
			AccumRankK(g, w, x, v, p, q, m, rows, cols)
			if !sameBits(g, gRef) {
				t.Fatalf("m=%d rows=%d cols=%d mode=%s: AccumRankK diverged from naive", m, rows, cols, mode.name)
			}
		}
	}
}

// TestAccumRankKSweep pins AccumRankK bitwise to the one-instance-at-a-time
// loop at every width 0..67 (each 4- and 8-lane tail, one and two 48-column
// groups of the AVX-512 body), instance counts around the four-instance
// passes and their one-instance tail (the detector's 50 leaves two), and
// the 64-instance blocks of the other bodies, with one, five and twenty
// rows, on every dispatch path.
func TestAccumRankKSweep(t *testing.T) {
	defer restoreGates()
	modes := kernelModes()
	rng := rand.New(rand.NewSource(24))
	for _, rows := range []int{1, 5, 20} {
		for cols := 0; cols <= 67; cols++ {
			for _, m := range []int{1, 2, 3, 4, 5, 6, 7, 8, 50, 65} {
				w := randSlice(rng, m)
				x, v := randSlice(rng, m*rows), randSlice(rng, m*rows)
				p, q := randSlice(rng, m*cols), randSlice(rng, m*cols)
				g0 := randSlice(rng, rows*cols)
				want := append([]float64(nil), g0...)
				naiveAccumRankK(want, w, x, v, p, q, m, rows, cols)
				for _, mode := range modes {
					mode.use()
					got := append([]float64(nil), g0...)
					AccumRankK(got, w, x, v, p, q, m, rows, cols)
					if !sameBits(got, want) {
						t.Fatalf("rows=%d cols=%d m=%d mode=%s: AccumRankK diverged from naive", rows, cols, m, mode.name)
					}
				}
			}
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

// TestSigmoidMatchesNaive pins Sigmoid to 1/(1+math.Exp(-x)) bit for bit,
// on every dispatch path: over the shared random shapes, then at every
// length 0..37 (every scalar and masked tail length, refused groups at
// every position) over specials, random bit patterns and N(0, 25) draws,
// then on each special alone.
func TestSigmoidMatchesNaive(t *testing.T) {
	defer restoreGates()
	modes := kernelModes()
	rng := rand.New(rand.NewSource(9))
	check := func(src []float64) {
		t.Helper()
		dstRef := append([]float64(nil), src...)
		naiveSigmoid(dstRef)
		for _, mode := range modes {
			mode.use()
			dst := append([]float64(nil), src...)
			Sigmoid(dst)
			if !sameBits(dst, dstRef) {
				t.Fatalf("n=%d mode=%s: Sigmoid diverged from naive", len(dst), mode.name)
			}
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
	defer restoreGates()
	rng := rand.New(rand.NewSource(10))
	for round := 0; round < propRounds; round++ {
		n := randDim(rng, 50)
		src := randSlice(rng, n)
		want := append([]float64(nil), src...)
		naiveSoftmax(want)
		for _, mode := range kernelModes() {
			mode.use()
			dst := append([]float64(nil), src...)
			Softmax(dst, n)
			if !sameBits(dst, want) {
				t.Fatalf("n=%d mode=%s: Softmax diverged from naive", n, mode.name)
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
}

// softmaxRow fills one Softmax row in one of five forms: N(0, 9) draws; a
// spread over [-800, 0], so that some x-max fall below -708 and their
// exponentials are subnormal or zero; specials (±Inf or NaN, ±0, 5e-324)
// among draws; ties at the row's maximum; and the FMA-sensitive exponent
// arguments of softmaxProbeArgs below a maximum of 0. No row holds both a
// NaN and an infinity, for the reason given at sweepRows: Inf-Inf makes a
// second NaN payload, and which of two NaNs a row sum carries depends on
// the compiler's operand order.
func softmaxRow(rng *rand.Rand, row []float64) {
	form := rng.Intn(5)
	specials := []float64{math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 5e-324}
	if rng.Intn(2) == 0 {
		specials[0], specials[1] = math.NaN(), math.NaN()
	}
	for i := range row {
		switch form {
		case 0:
			row[i] = 3 * rng.NormFloat64()
		case 1:
			row[i] = -800 * rng.Float64()
		case 2:
			if rng.Intn(3) == 0 {
				row[i] = specials[rng.Intn(len(specials))]
			} else {
				row[i] = 3 * rng.NormFloat64()
			}
		case 3:
			row[i] = float64(rng.Intn(3)) - 2
		default:
			row[i] = softmaxProbeArgs[rng.Intn(len(softmaxProbeArgs))]
		}
	}
	if form == 4 {
		row[rng.Intn(len(row))] = []float64{0, math.Copysign(0, -1)}[rng.Intn(2)]
	}
}

// softmaxProbeArgs are exponent arguments below 0 whose math.Exp results
// differ in the last bit between its FMA and non-FMA branches: one full
// eight-lane group.
var softmaxProbeArgs = [8]float64{-2.375, -3.75, -5.375, -5.75, -6.625, -6.75, -8.625, -11.25}

// TestSoftmaxSweep pins Softmax bitwise to naiveSoftmax applied row by row,
// at every width 1..9 and row count 0..67 (so every masked last group of
// the eight-lane exponential and refused groups at every position), over
// softmaxRow's forms, on every dispatch path.
func TestSoftmaxSweep(t *testing.T) {
	defer restoreGates()
	modes := kernelModes()
	rng := rand.New(rand.NewSource(25))
	for width := 1; width <= 9; width++ {
		for rows := 0; rows <= 67; rows++ {
			src := make([]float64, rows*width)
			for r := 0; r < rows; r++ {
				softmaxRow(rng, src[r*width:r*width+width])
			}
			want := append([]float64(nil), src...)
			for r := 0; r < rows; r++ {
				naiveSoftmax(want[r*width : r*width+width])
			}
			for _, mode := range modes {
				mode.use()
				got := append([]float64(nil), src...)
				Softmax(got, width)
				if !sameBits(got, want) {
					t.Fatalf("width=%d rows=%d mode=%s: Softmax diverged from naive", width, rows, mode.name)
				}
			}
		}
	}
}

// TestSIMDAndGenericPathsAgree reruns the dispatched kernels on every
// dispatch path the host has and asserts bitwise agreement with the generic
// path over random shapes (on platforms without assembly the generic path
// is the only one and the test is skipped). The main property tests cover
// the same paths against the naive loops; this pins them to each other.
func TestSIMDAndGenericPathsAgree(t *testing.T) {
	modes := kernelModes()
	if len(modes) == 1 {
		t.Skip("no SIMD path on this host; generic path already covered")
	}
	defer restoreGates()
	rng := rand.New(rand.NewSource(20))
	for round := 0; round < propRounds; round++ {
		n := randDim(rng, 200)
		a := 4*rng.Float64() - 2
		x, y := randSlice(rng, n), randSlice(rng, n)

		mm, mk, mn := randDim(rng, 8), randDim(rng, 100), randDim(rng, 100)
		ma := randSlice(rng, mm*mk)
		mb := randSlice(rng, mk*mn)
		md := randSlice(rng, mm*mn)

		m, rows, cols := randDim(rng, 40), randDim(rng, 10), randDim(rng, 60)
		w := randSlice(rng, m)
		xm, vm := randSlice(rng, m*rows), randSlice(rng, m*rows)
		p, q := randSlice(rng, m*cols), randSlice(rng, m*cols)
		g := randSlice(rng, rows*cols)

		sn := randDim(rng, 200)
		sg := make([]float64, sn)
		for i := range sg {
			sg[i] = sigmoidInput(rng)
		}

		var want [4][]float64
		for i, mode := range modes {
			mode.use()
			got := [4][]float64{
				append([]float64(nil), y...),
				append([]float64(nil), md...),
				append([]float64(nil), g...),
				append([]float64(nil), sg...),
			}
			Axpy(a, x, got[0])
			MatMul(got[1], ma, mb, mm, mk, mn)
			AccumRankK(got[2], w, xm, vm, p, q, m, rows, cols)
			Sigmoid(got[3])
			if i == 0 {
				want = got
				continue
			}
			for j, kernel := range []string{"Axpy", "MatMul", "AccumRankK", "Sigmoid"} {
				if !sameBits(got[j], want[j]) {
					t.Fatalf("round %d: %s %s and generic paths disagree", round, kernel, mode.name)
				}
			}
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
	AccumDiffK(nil, nil, nil, nil, 0)
	ScaleRows(nil, nil, nil, 0)
	SampleBinary(nil, nil, nil)
	Softmax(nil, 0)
	Sigmoid(nil)
	Broadcast(nil, nil, 0)

	d := []float64{0.5}
	MatMul(d, []float64{2}, []float64{3}, 1, 1, 1)
	if d[0] != 6.5 {
		t.Fatalf("MatMul 1x1x1 = %v", d[0])
	}
	s := []float64{4}
	Softmax(s, 1)
	if s[0] != 1 {
		t.Fatalf("Softmax length-1 = %v", s[0])
	}
}
