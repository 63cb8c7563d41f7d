// Package kernels provides the dense linear-algebra micro-kernels behind the
// RBM-IM hot path: unrolled vector primitives (Dot, Axpy, AddScaled), the
// zero-skipping matrix product every layer pass runs through (MatMul),
// element-wise activations (Sigmoid, Softmax), and the fused gradient
// accumulators, row scaling and Bernoulli sampler the batch-major CD-k
// trainer uses (AccumRankK, AccumDiffK, ScaleRows, SampleBinary).
//
// # Bit-exactness contract
//
// Every kernel produces, for each output element, the exact floating-point
// result of the obvious scalar reference loop: the same operations, applied
// in the same left-to-right order, with the same expression shapes (no
// re-association, no multiple partial accumulators per element). FMA is
// used only where the reference expression's own math.Exp uses it: the AVX
// Sigmoid body runs the FMA branch of math.Exp's amd64 assembly lane by
// lane, and math.Exp takes that branch only when the CPU has AVX and FMA
// and GODEBUG does not switch them off. CPUID alone therefore cannot tell
// which branch the reference takes, so the vector Sigmoid is enabled only
// when CPUID reports AVX2 and FMA and an init-time probe finds it agreeing
// bit for bit with 1/(1+math.Exp(-x)) on inputs where the two branches
// differ. Blocking and unrolling are only applied across *independent*
// output elements, or by splitting one element's accumulation at an exact
// float64 store/load boundary — both of which leave each element's value
// bit-identical.
//
// On hosts with AVX-512 (F and VL, with the opmask and ZMM state enabled in
// XCR0), MatMul, AccumRankK, Sigmoid and Softmax's exponentials run
// eight-lane bodies under the same contract. A row's last partial vector
// loads and stores through an opmask instead of a lane-mask table: its
// masked lanes load as +0 and are never stored. MatMul's zero-skip stays
// exact: a block whose VCMPPD pass finds no ±0 entry is walked directly,
// index by index, and in any other block each row's nonzero (or NaN)
// entries are compacted with VCMPPD into an opmask and
// VPCOMPRESSD/VCOMPRESSPD, so the product of a ±0 entry is never added;
// when two or four narrow rows are walked together, the steps past a
// shorter row's list add under an opmask that is off for its padding.
// AccumRankK's body holds a g row in registers over all instances, four per
// pass and the rest one at a time, forming each instance's weights with
// the scalar expression's multiplies. Softmax computes each row's shift and
// sum in Go and only the exponentials eight lanes wide, over the whole
// tile: math.Exp's FMA branch without the sigmoid's negation and
// reciprocal, under the sigmoid's probe. Only CPUID and XCR0 (and, for the
// exponentials, the probe) choose the bodies.
//
// This contract is what lets core.RBM run its Gibbs layer passes as one
// blocked product over a whole mini-batch while remaining bit-identical to a
// per-instance matvec loop (the property-based tests in this package assert
// bitwise equality against the naive references, and the core package pins
// the end-to-end guarantee at CD-1 and CD-4).
package kernels

import "math"

// blockK is the accumulation-dimension block length of the pure-Go MatMul
// and of AccumRankK. 64 float64 rows of a typical (≤160-wide) operand panel
// stay resident in L1/L2 while every output row streams past, and
// processing blocks in increasing index order preserves each element's
// accumulation order exactly.
const blockK = 64

// nzBlock is the accumulation-dimension block length of the AVX MatMul row
// body: the length of its nonzero-index list. Blocks run in increasing
// order and dst is stored and reloaded at each block edge, which is exact.
const nzBlock = 256

// nzBlock512 is the accumulation-dimension block length of the AVX-512
// MatMul body, and nzLists its scratch: for each of up to four rows walked
// together, the b row byte offsets and the a values of the block's nonzero
// entries. The assembly addresses the lists by fixed byte offsets (off at
// 0 + 256*row, val at 1024 + 512*row).
const nzBlock512 = 64

type nzLists struct {
	off [4][nzBlock512]int32
	val [4][nzBlock512]float64
}

// Dot returns the inner product of x and y accumulated strictly left to
// right into a single accumulator. The loop is unrolled to amortize branch
// and bounds-check overhead; the unrolled body keeps one sequential
// accumulation chain, so the result is bit-identical to the naive loop.
// y must be at least as long as x.
func Dot(x, y []float64) float64 {
	n := len(x)
	y = y[:n]
	var s float64
	i := 0
	for ; i+4 <= n; i += 4 {
		s += x[i] * y[i]
		s += x[i+1] * y[i+1]
		s += x[i+2] * y[i+2]
		s += x[i+3] * y[i+3]
	}
	for ; i < n; i++ {
		s += x[i] * y[i]
	}
	return s
}

// Axpy computes y[i] += a*x[i] (BLAS axpy), four doubles at a time — AVX
// lanes on amd64, an unrolled scalar loop elsewhere; both apply the exact
// two roundings of the naive loop per element. y must be at least as long
// as x.
func Axpy(a float64, x, y []float64) {
	if useAVX && len(x) >= 8 {
		axpyAVX(a, x, y[:len(x)])
		return
	}
	axpyGeneric(a, x, y)
}

func axpyGeneric(a float64, x, y []float64) {
	n := len(x)
	y = y[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		y[i] += a * x[i]
		y[i+1] += a * x[i+1]
		y[i+2] += a * x[i+2]
		y[i+3] += a * x[i+3]
	}
	for ; i < n; i++ {
		y[i] += a * x[i]
	}
}

// AddScaled computes dst[i] = a*x[i] + b*y[i]. dst may alias x or y (the
// momentum update uses dst == x). x and y must be at least as long as dst.
func AddScaled(dst []float64, a float64, x []float64, b float64, y []float64) {
	n := len(dst)
	x = x[:n]
	y = y[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		dst[i] = a*x[i] + b*y[i]
		dst[i+1] = a*x[i+1] + b*y[i+1]
		dst[i+2] = a*x[i+2] + b*y[i+2]
		dst[i+3] = a*x[i+3] + b*y[i+3]
	}
	for ; i < n; i++ {
		dst[i] = a*x[i] + b*y[i]
	}
}

// AccumDiffK accumulates the weighted rank-m difference
//
//	g[j] += w[n] * (x[n][j] - v[n][j])   for n = 0..m-1
//
// with x and v row-major [m×len(g)]: CD-k's bias gradients over a tile of
// instances. Per element the instances contribute in increasing n with
// exactly the per-instance expression, so the result is bit-identical to
// adding one instance at a time. The AVX body keeps up to 48 columns of g in
// registers across all m instances, which only replaces exact store/load
// round-trips.
func AccumDiffK(g, w, x, v []float64, m int) {
	cols := len(g)
	if m == 0 || cols == 0 {
		return
	}
	w = w[:m]
	x = x[:m*cols]
	v = v[:m*cols]
	if useAVX {
		accumDiffAVX(g, w, x, v)
		return
	}
	for n, wn := range w {
		xr := x[n*cols : n*cols+cols]
		vr := v[n*cols : n*cols+cols]
		for j := range g {
			g[j] += wn * (xr[j] - vr[j])
		}
	}
}

// ScaleRows sets dst[n][j] = w[n] * src[n][j] for the m rows of the
// row-major [m×cols] src, cols = len(src)/m: one multiply per element,
// four lanes at a time on amd64. dst may alias src.
func ScaleRows(dst, w, src []float64, m int) {
	if m == 0 || len(src) == 0 {
		return
	}
	cols := len(src) / m
	w = w[:m]
	src = src[:m*cols]
	dst = dst[:m*cols]
	if useAVX {
		scaleRowsAVX(dst, w, src)
		return
	}
	for n, wn := range w {
		sr := src[n*cols : n*cols+cols]
		dr := dst[n*cols : n*cols+cols]
		for j, s := range sr {
			dr[j] = wn * s
		}
	}
}

// SampleBinary draws Bernoulli states from probabilities using pre-drawn
// uniforms: dst[i] = 1 iff u[i] < p[i], else 0. The comparison is computed
// branchlessly from the sign of u-p (for finite operands u < p iff u-p is
// strictly negative: IEEE gradual underflow keeps u-p nonzero whenever
// u != p, and u == p yields +0.0), because a data-dependent branch would
// mispredict half the time on well-trained probabilities. The AVX body
// takes the same sign bit with VBLENDVPD. dst may alias p; u and p must be
// at least as long as dst.
func SampleBinary(dst, u, p []float64) {
	n := len(dst)
	u = u[:n]
	p = p[:n]
	if useAVX && n >= 4 {
		sampleBinaryAVX(dst, u, p)
		return
	}
	sampleBinaryGeneric(dst, u, p)
}

func sampleBinaryGeneric(dst, u, p []float64) {
	u = u[:len(dst)]
	p = p[:len(dst)]
	for i := range dst {
		dst[i] = float64(math.Float64bits(u[i]-p[i]) >> 63)
	}
}

// MatMul accumulates dst[m×n] += a[m×k] · b[k×n], all row-major. Zero
// elements of a are skipped exactly like the matvec loops it replaces (the
// Gibbs chain feeds {0,1} hidden states through it, halving the work).
//
// Per output element, contributions are added in increasing accumulation
// index, matching `for i: dst[j] += a[i] * b[i][j]`. The pure-Go body
// processes the accumulation dimension in blocks of blockK rows of b so the
// active b panel stays cache-resident across all m output rows; blocks run
// in increasing order, so the per-element accumulation order is unchanged.
func MatMul(dst, a, b []float64, m, k, n int) {
	if m == 0 || k == 0 || n == 0 {
		return
	}
	_ = dst[m*n-1]
	_ = a[m*k-1]
	_ = b[k*n-1]
	if useAVX512 && k*n < 1<<28 {
		// The eight-lane body walks all m rows itself, two or four at a
		// time when a row is narrow, so the short rows' add chains overlap.
		var nz nzLists
		matmulAVX512(dst, a, b, m, k, n, &nz)
		return
	}
	if useAVX {
		// One call per output row. The body lists the row's nonzero a
		// indices in nz without a data-dependent branch, then keeps up to
		// 48 dst columns in registers over one walk of the list, so a
		// sampled {0,1} row costs no mispredicted skips. b stays
		// cache-resident across the row loop for this package's operand
		// sizes, so no explicit blocking is needed.
		var nz [nzBlock]int32
		for r := 0; r < m; r++ {
			matmulRowNZAVX(dst[r*n:r*n+n], a[r*k:r*k+k], b, &nz)
		}
		return
	}
	for k0 := 0; k0 < k; k0 += blockK {
		k1 := k0 + blockK
		if k1 > k {
			k1 = k
		}
		for r := 0; r < m; r++ {
			arow := a[r*k : r*k+k]
			drow := dst[r*n : r*n+n]
			for i := k0; i < k1; i++ {
				ai := arow[i]
				if ai == 0 {
					continue
				}
				Axpy(ai, b[i*n:i*n+n], drow)
			}
		}
	}
}

// AccumRankK accumulates the fused two-sided rank-m gradient update of CD-k:
//
//	g[i][j] += w[n]*x[n][i] * p[n][j] - w[n]*v[n][i] * q[n][j]   for n = 0..m-1
//
// with g row-major [rows×cols], x and v row-major [m×rows], p and q
// row-major [m×cols]. Per output element the instances contribute in
// increasing n with exactly the per-instance expression
// `g += (w*xi)*p[j] - (w*vi)*q[j]`, so the result is bit-identical to a
// sequential instance loop: the inner loop carries four instances per pass
// with the running element held in a register, which only replaces exact
// store/load round-trips of the one-instance-at-a-time loop. Instances are
// processed in blocks so each g row is revisited while the block's p/q
// panel is cache-resident. With AVX-512 one accumRankAVX512 call does the
// whole update, holding each g row in registers over all m instances.
func AccumRankK(g, w, x, v, p, q []float64, m, rows, cols int) {
	if m == 0 || rows == 0 || cols == 0 {
		return
	}
	_ = g[rows*cols-1]
	_ = w[m-1]
	_ = x[m*rows-1]
	_ = v[m*rows-1]
	_ = p[m*cols-1]
	_ = q[m*cols-1]
	if useAVX512 {
		accumRankAVX512(g[:rows*cols], w[:m], x[:m*rows], v[:m*rows], p[:m*cols], q[:m*cols], m, rows, cols)
		return
	}
	for n0 := 0; n0 < m; n0 += blockK {
		n1 := n0 + blockK
		if n1 > m {
			n1 = m
		}
		for i := 0; i < rows; i++ {
			grow := g[i*cols : i*cols+cols]
			n := n0
			for ; n+4 <= n1; n += 4 {
				w0, w1, w2, w3 := w[n], w[n+1], w[n+2], w[n+3]
				wx := [4]float64{w0 * x[(n+0)*rows+i], w1 * x[(n+1)*rows+i], w2 * x[(n+2)*rows+i], w3 * x[(n+3)*rows+i]}
				wv := [4]float64{w0 * v[(n+0)*rows+i], w1 * v[(n+1)*rows+i], w2 * v[(n+2)*rows+i], w3 * v[(n+3)*rows+i]}
				if useAVX {
					gradQuadAVX(grow, p[n*cols:(n+4)*cols], q[n*cols:(n+4)*cols], &wx, &wv)
					continue
				}
				p0 := p[(n+0)*cols : (n+0)*cols+cols]
				p1 := p[(n+1)*cols : (n+1)*cols+cols]
				p2 := p[(n+2)*cols : (n+2)*cols+cols]
				p3 := p[(n+3)*cols : (n+3)*cols+cols]
				q0 := q[(n+0)*cols : (n+0)*cols+cols]
				q1 := q[(n+1)*cols : (n+1)*cols+cols]
				q2 := q[(n+2)*cols : (n+2)*cols+cols]
				q3 := q[(n+3)*cols : (n+3)*cols+cols]
				p0, q0 = p0[:len(grow)], q0[:len(grow)]
				p1, q1 = p1[:len(grow)], q1[:len(grow)]
				p2, q2 = p2[:len(grow)], q2[:len(grow)]
				p3, q3 = p3[:len(grow)], q3[:len(grow)]
				for j := range grow {
					gj := grow[j]
					gj += wx[0]*p0[j] - wv[0]*q0[j]
					gj += wx[1]*p1[j] - wv[1]*q1[j]
					gj += wx[2]*p2[j] - wv[2]*q2[j]
					gj += wx[3]*p3[j] - wv[3]*q3[j]
					grow[j] = gj
				}
			}
			for ; n < n1; n++ {
				wn := w[n]
				wxi := wn * x[n*rows+i]
				wvi := wn * v[n*rows+i]
				prow := p[n*cols : n*cols+cols]
				qrow := q[n*cols : n*cols+cols]
				prow = prow[:len(grow)]
				qrow = qrow[:len(grow)]
				for j := range grow {
					grow[j] += wxi*prow[j] - wvi*qrow[j]
				}
			}
		}
	}
}

// Broadcast copies row into each of the m consecutive len(row)-wide rows of
// dst — the bias seeding step before an accumulating product. It copies the
// row once and then the filled prefix onto the rest, doubling it, so m rows
// take about log2(m) copies.
func Broadcast(dst, row []float64, m int) {
	n := len(row) * m
	if n == 0 {
		return
	}
	dst = dst[:n]
	for done := copy(dst, row); done < n; {
		done += copy(dst[done:], dst[:done])
	}
}

// Sigmoid applies the logistic function element-wise in place, computing
// exactly 1/(1+math.Exp(-x)) per element. On amd64 hosts where the gate
// holds, eight-element groups (the last one masked) run sigmoidAVX512, or
// four-element groups sigmoidAVX without AVX-512; a group the body refuses
// (a lane whose exponential is not finite and normal) and the AVX tail run
// the scalar expression.
func Sigmoid(dst []float64) {
	i := 0
	if useSigmoidAVX512 {
		for {
			i += sigmoidAVX512(dst[i:])
			if i == len(dst) {
				return
			}
			j := min(i+8, len(dst))
			sigmoidGeneric(dst[i:j])
			i = j
		}
	}
	if useSigmoidAVX {
		for i+4 <= len(dst) {
			i += sigmoidAVX(dst[i:])
			if i+4 <= len(dst) {
				sigmoidGeneric(dst[i : i+4])
				i += 4
			}
		}
	}
	sigmoidGeneric(dst[i:])
}

func sigmoidGeneric(dst []float64) {
	for i, x := range dst {
		dst[i] = 1 / (1 + math.Exp(-x))
	}
}

// Softmax applies a max-shifted softmax in place to each width-wide row of
// dst, computing per row exactly the operation sequence of the class-layer
// softmax it replaces: the maximum by a strict left-to-right scan, each
// element becomes math.Exp(x-max), the sum accumulates left to right from
// 0, and every element is divided by it. The shift, the exponentials and
// the sums run as three passes over the whole tile. On amd64 hosts where
// the eight-lane sigmoid gate holds, the exponentials run in eight-element
// groups through expAVX512 (the last one masked), math.Exp's FMA branch
// lane by lane; a group it refuses (a lane whose exponential is not finite
// and normal), and every element elsewhere, runs the scalar math.Exp.
// len(dst) must be a multiple of width; an empty dst is a no-op.
func Softmax(dst []float64, width int) {
	for r := 0; r < len(dst); r += width {
		row := dst[r : r+width]
		maxS := rowMax(row)
		for k := range row {
			row[k] -= maxS
		}
	}
	if useSigmoidAVX512 {
		for i := 0; i < len(dst); {
			i += expAVX512(dst[i:])
			j := min(i+8, len(dst))
			expGeneric(dst[i:j])
			i = j
		}
	} else {
		expGeneric(dst)
	}
	for r := 0; r < len(dst); r += width {
		row := dst[r : r+width]
		sum := 0.0
		for _, e := range row {
			sum += e
		}
		for k := range row {
			row[k] /= sum
		}
	}
}

// rowMax returns the maximum of row by a strict left-to-right scan from
// -Inf, so NaN entries are passed over.
func rowMax(row []float64) float64 {
	maxS := math.Inf(-1)
	for _, s := range row {
		if s > maxS {
			maxS = s
		}
	}
	return maxS
}

func expGeneric(dst []float64) {
	for i, x := range dst {
		dst[i] = math.Exp(x)
	}
}
