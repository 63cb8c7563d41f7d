package stats

import (
	"errors"
	"math"
)

// GrangerResult holds the outcome of a Granger causality test.
type GrangerResult struct {
	// F is the F-statistic of the restriction test.
	F float64
	// PValue is the upper-tail probability under H0 ("x does not
	// Granger-cause y"). Small values mean x helps forecast y.
	PValue float64
	// Lags is the lag order p used.
	Lags int
	// Obs is the number of usable regression rows.
	Obs int
	// Causal reports whether H0 was rejected at the supplied significance
	// level, i.e. whether a Granger-causal relationship was found.
	Causal bool
}

// ErrGrangerInsufficient is returned when the series are too short for the
// requested lag order.
var ErrGrangerInsufficient = errors.New("stats: series too short for Granger test")

// Granger is the reusable scratch of a Granger causality test: the
// differenced series, the two regression design matrices and the normal
// equations. A detector that tests on every trend escape keeps one and
// calls Test, which allocates nothing once the buffers have grown to the
// largest series seen. The zero value is ready to use; a Granger is not
// safe for concurrent use.
type Granger struct {
	dx, dy, target []float64
	xr, xu         []float64   // row-major design matrices
	xtx            []float64   // row-major normal matrix
	xtxRows        [][]float64 // its rows, which SolveLinear's pivoting swaps
	xty, rhs, b    []float64
}

var (
	errGrangerMismatch = errors.New("stats: Granger series length mismatch")
	errGrangerSingular = errors.New("stats: Granger design matrix is singular")
)

// GrangerCausality tests whether x Granger-causes y at the given lag order
// and significance level, with fresh scratch: Granger.Test on a zero
// Granger.
func GrangerCausality(x, y []float64, lags int, alpha float64) (GrangerResult, error) {
	var g Granger
	return g.Test(x, y, lags, alpha)
}

// Test tests whether x Granger-causes y at the given lag order and
// significance level. Following the paper's citation of first-difference
// Granger testing for non-stationary processes, both series are first
// differenced before the lagged regressions are fit.
//
// The restricted model regresses dy_t on its own p lags; the unrestricted
// model adds p lags of dx. The F statistic
//
//	F = ((RSS_r - RSS_u)/p) / (RSS_u/(n - 2p - 1))
//
// is compared against the F(p, n-2p-1) distribution.
func (g *Granger) Test(x, y []float64, lags int, alpha float64) (GrangerResult, error) {
	if lags < 1 {
		lags = 1
	}
	if len(x) != len(y) {
		return GrangerResult{}, errGrangerMismatch
	}
	g.dx = diffInto(g.dx, x)
	g.dy = diffInto(g.dy, y)
	dx, dy := g.dx, g.dy
	n := len(dy) - lags
	minRows := 2*lags + 2
	if n < minRows {
		return GrangerResult{}, ErrGrangerInsufficient
	}
	// Build the regression rows.
	rows := n
	// Restricted: intercept + p lags of dy.
	kr := 1 + lags
	g.xr = grow(g.xr, rows*kr)
	// Unrestricted: intercept + p lags of dy + p lags of dx.
	ku := 1 + 2*lags
	g.xu = grow(g.xu, rows*ku)
	g.target = grow(g.target, rows)
	xr, xu, target := g.xr, g.xu, g.target
	for t := 0; t < rows; t++ {
		ti := t + lags
		target[t] = dy[ti]
		r := xr[t*kr : t*kr+kr]
		u := xu[t*ku : t*ku+ku]
		r[0], u[0] = 1, 1
		for l := 1; l <= lags; l++ {
			r[l] = dy[ti-l]
			u[l] = dy[ti-l]
			u[lags+l] = dx[ti-l]
		}
	}
	rssR, okR := g.regressRSS(xr, kr, target)
	rssU, okU := g.regressRSS(xu, ku, target)
	if !okR || !okU {
		return GrangerResult{}, errGrangerSingular
	}
	dfDen := float64(rows - 2*lags - 1)
	if dfDen <= 0 {
		return GrangerResult{}, ErrGrangerInsufficient
	}
	var f float64
	if rssU <= 1e-300 {
		// Perfect unrestricted fit: treat as infinitely strong causality
		// when it improves on the restricted model, neutral otherwise.
		if rssR > 1e-300 {
			f = math.Inf(1)
		} else {
			f = 0
		}
	} else {
		f = ((rssR - rssU) / float64(lags)) / (rssU / dfDen)
	}
	if f < 0 {
		f = 0
	}
	var p float64
	if math.IsInf(f, 1) {
		p = 0
	} else {
		p = FSurvival(f, float64(lags), dfDen)
	}
	return GrangerResult{
		F:      f,
		PValue: p,
		Lags:   lags,
		Obs:    rows,
		Causal: p < alpha,
	}, nil
}

// grow returns buf resized to n, reallocating only when its capacity is
// short. The contents are not preserved.
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// Diff returns the first differences of s (length len(s)-1).
func Diff(s []float64) []float64 {
	if len(s) < 2 {
		return nil
	}
	return diffInto(nil, s)
}

// diffInto writes the first differences of s into dst's backing array when
// it is large enough and returns them (empty when len(s) < 2).
func diffInto(dst, s []float64) []float64 {
	if len(s) < 2 {
		return dst[:0]
	}
	d := grow(dst, len(s)-1)
	for i := 1; i < len(s); i++ {
		d[i-1] = s[i] - s[i-1]
	}
	return d
}

// regressRSS solves the least-squares problem min ||Xb - y||^2 via the
// normal equations with a tiny ridge for numerical safety, returning the
// residual sum of squares. x is row-major with k columns and len(y) rows.
// ok is false when the system is unsolvable.
func (g *Granger) regressRSS(x []float64, k int, y []float64) (rss float64, ok bool) {
	if len(y) == 0 {
		return 0, false
	}
	// Normal equations: (X'X) b = X'y.
	g.xtx = grow(g.xtx, k*k)
	clear(g.xtx)
	if cap(g.xtxRows) < k {
		g.xtxRows = make([][]float64, k)
	}
	xtx := g.xtxRows[:k]
	for i := range xtx {
		xtx[i] = g.xtx[i*k : i*k+k]
	}
	g.xty = grow(g.xty, k)
	xty := g.xty
	clear(xty)
	for r := range y {
		row := x[r*k : r*k+k]
		for i := 0; i < k; i++ {
			xi := row[i]
			xty[i] += xi * y[r]
			for j := i; j < k; j++ {
				xtx[i][j] += xi * row[j]
			}
		}
	}
	for i := 0; i < k; i++ {
		for j := 0; j < i; j++ {
			xtx[i][j] = xtx[j][i]
		}
		xtx[i][i] += 1e-10 // ridge jitter keeps near-singular systems solvable
	}
	g.rhs = grow(g.rhs, k)
	g.b = grow(g.b, k)
	b := g.b
	if !solveLinear(xtx, xty, g.rhs, b) {
		return 0, false
	}
	for r := range y {
		row := x[r*k : r*k+k]
		pred := 0.0
		for i := 0; i < k; i++ {
			pred += row[i] * b[i]
		}
		d := y[r] - pred
		rss += d * d
	}
	return rss, true
}

// SolveLinear solves A b = y by Gaussian elimination with partial pivoting.
// A is modified in place. ok is false for singular systems.
func SolveLinear(a [][]float64, y []float64) (b []float64, ok bool) {
	n := len(a)
	if n == 0 || len(y) != n {
		return nil, false
	}
	rhs := make([]float64, n)
	b = make([]float64, n)
	if !solveLinear(a, y, rhs, b) {
		return nil, false
	}
	return b, true
}

// solveLinear is SolveLinear writing the solution into b, with rhs as the
// eliminated right-hand side's scratch; both have len(y) == len(a) entries.
func solveLinear(a [][]float64, y, rhs, b []float64) bool {
	n := len(a)
	// Augment.
	copy(rhs, y)
	for col := 0; col < n; col++ {
		// Pivot.
		pivot := col
		best := math.Abs(a[col][col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(a[r][col]); v > best {
				best, pivot = v, r
			}
		}
		if best < 1e-14 {
			return false
		}
		a[col], a[pivot] = a[pivot], a[col]
		rhs[col], rhs[pivot] = rhs[pivot], rhs[col]
		inv := 1 / a[col][col]
		for r := col + 1; r < n; r++ {
			f := a[r][col] * inv
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				a[r][c] -= f * a[col][c]
			}
			rhs[r] -= f * rhs[col]
		}
	}
	for r := n - 1; r >= 0; r-- {
		sum := rhs[r]
		for c := r + 1; c < n; c++ {
			sum -= a[r][c] * b[c]
		}
		b[r] = sum / a[r][r]
	}
	return true
}
