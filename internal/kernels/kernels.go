// Package kernels provides the dense linear-algebra micro-kernels behind the
// RBM-IM hot path: unrolled vector primitives (Dot, Axpy, AddScaled), the
// zero-skipping matrix product every layer pass runs through (MatMul),
// element-wise activations (Sigmoid, Softmax), and the fused gradient
// accumulators the batch-major CD-k trainer uses (AccumRankK, AxpyDiff).
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

// AxpyDiff computes dst[i] += w*(x[i] - v[i]) — the bias-gradient
// accumulation of one weighted instance. x and v must be at least as long as
// dst.
func AxpyDiff(w float64, x, v, dst []float64) {
	n := len(dst)
	x = x[:n]
	v = v[:n]
	for i := range dst {
		dst[i] += w * (x[i] - v[i])
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
// panel is cache-resident.
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
// dst — the bias seeding step before an accumulating product.
func Broadcast(dst, row []float64, m int) {
	n := len(row)
	for r := 0; r < m; r++ {
		copy(dst[r*n:r*n+n], row)
	}
}

// Sigmoid applies the logistic function element-wise in place, computing
// exactly 1/(1+math.Exp(-x)) per element. On amd64 hosts where the gate
// holds, four-element groups run sigmoidAVX; a group it refuses (a lane
// whose exponential is not finite and normal) and the tail run the scalar
// expression.
func Sigmoid(dst []float64) {
	i := 0
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

// Softmax applies a max-shifted softmax in place: the maximum is found by a
// strict left-to-right scan, each element becomes exp(x-max), the sum
// accumulates left to right, and every element is divided by it — the exact
// operation sequence of the class-layer softmax it replaces. An empty slice
// is a no-op.
func Softmax(dst []float64) {
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
