package stats

import "math"

// ADWIN is the adaptive windowing algorithm of Bifet & Gavalda (2007). It
// maintains a variable-length window over a real-valued sequence, shrinking
// it whenever two sub-windows exhibit statistically distinct means. It serves
// two roles in this repository: as the self-adaptive window-size oracle
// inside RBM-IM (the paper's Eq. 28-37 statistics use an ADWIN-chosen W) and
// as a baseline drift detector in internal/detectors.
type ADWIN struct {
	delta float64

	// Exponential histogram: rows of buckets; row i holds buckets that each
	// summarize 2^i elements, with at most maxBuckets buckets per row.
	rows  []adwinRow
	total float64 // sum of all elements
	varSq float64 // sum of per-bucket internal variances
	width int     // number of elements in the window

	// detected is set by Add when the last insertion shrank the window.
	detected bool

	// minClock throttles cut checks: cuts are only attempted every
	// clock insertions (32, as in the reference implementation).
	clock int
	ticks int
}

type adwinBucket struct {
	sum float64
	// variance within the bucket times its size (internal sum of squares).
	varSq float64
}

type adwinRow struct {
	size    int // elements per bucket in this row (2^level)
	buckets []adwinBucket
}

const adwinMaxBuckets = 5

// NewADWIN builds an adaptive window with confidence parameter delta
// (smaller = more conservative; the canonical default is 0.002).
func NewADWIN(delta float64) *ADWIN {
	if delta <= 0 || delta >= 1 {
		delta = 0.002
	}
	return &ADWIN{
		delta: delta,
		rows:  []adwinRow{{size: 1}},
		clock: 32,
	}
}

// Width returns the current window length.
func (a *ADWIN) Width() int { return a.width }

// Mean returns the mean of the current window (0 when empty).
func (a *ADWIN) Mean() float64 {
	if a.width == 0 {
		return 0
	}
	return a.total / float64(a.width)
}

// Detected reports whether the most recent Add shrank the window, i.e.
// whether a change was detected at that step.
func (a *ADWIN) Detected() bool { return a.detected }

// Add inserts x and returns true when the insertion caused the window to
// shrink (change detected).
func (a *ADWIN) Add(x float64) bool {
	a.insert(x)
	a.ticks++
	a.detected = false
	if a.ticks%a.clock == 0 && a.width > 8 {
		a.detected = a.checkCut()
	}
	return a.detected
}

// insert places x as a fresh size-1 bucket and compresses rows that overflow.
func (a *ADWIN) insert(x float64) {
	a.rows[0].buckets = append(a.rows[0].buckets, adwinBucket{sum: x})
	a.width++
	a.total += x
	// Compress: when a row exceeds maxBuckets, merge its two oldest buckets
	// into one bucket of the next row.
	for i := 0; i < len(a.rows); i++ {
		if len(a.rows[i].buckets) <= adwinMaxBuckets {
			break
		}
		if i+1 == len(a.rows) {
			// Reuse the slot (and bucket array) a cut trimmed, if any, so a
			// window that shrinks and grows back allocates nothing.
			if len(a.rows) < cap(a.rows) {
				a.rows = a.rows[:i+2]
				a.rows[i+1].buckets = a.rows[i+1].buckets[:0]
			} else {
				a.rows = append(a.rows, adwinRow{})
			}
			a.rows[i+1].size = a.rows[i].size * 2
		}
		row, next := &a.rows[i], &a.rows[i+1]
		b0, b1 := row.buckets[0], row.buckets[1]
		n := float64(row.size)
		mu0, mu1 := b0.sum/n, b1.sum/n
		d := mu0 - mu1
		merged := adwinBucket{
			sum:   b0.sum + b1.sum,
			varSq: b0.varSq + b1.varSq + n*n/(2*n)*d*d,
		}
		a.varSq += n * n / (2 * n) * d * d
		row.buckets = shiftOut(row.buckets, 2)
		next.buckets = append(next.buckets, merged)
	}
}

// shiftOut drops the k oldest buckets by copying the rest down in place:
// re-slicing from the front would shrink the row's capacity and make every
// later append reallocate it.
func shiftOut(b []adwinBucket, k int) []adwinBucket {
	return b[:copy(b, b[k:])]
}

// checkCut scans split points from oldest to newest and drops the oldest
// buckets while any split shows significantly different means. Returns true
// when at least one bucket was dropped.
func (a *ADWIN) checkCut() bool {
	shrunk := false
	for repeat := true; repeat; {
		repeat = false
		// Walk splits: accumulate the "old" side from the oldest bucket
		// (highest row, front) toward the newest.
		n0, s0 := 0.0, 0.0
		n := float64(a.width)
		total := a.total
		stop := false
		for i := len(a.rows) - 1; i >= 0 && !stop; i-- {
			row := a.rows[i]
			for j := 0; j < len(row.buckets) && !stop; j++ {
				n0 += float64(row.size)
				s0 += row.buckets[j].sum
				n1 := n - n0
				if n0 < 1 || n1 < 1 {
					continue
				}
				mu0 := s0 / n0
				mu1 := (total - s0) / n1
				if a.cutExpression(n0, n1, mu0, mu1) {
					// Drop the oldest bucket and re-scan.
					a.dropOldest()
					shrunk = true
					repeat = a.width > 8
					stop = true
				}
			}
		}
	}
	return shrunk
}

// cutExpression implements the ADWIN2 variance-based bound.
func (a *ADWIN) cutExpression(n0, n1, mu0, mu1 float64) bool {
	n := n0 + n1
	diff := math.Abs(mu0 - mu1)
	v := a.windowVariance()
	dd := math.Log(2 * math.Log(n) / a.delta)
	m := 1/(n0) + 1/(n1)
	eps := math.Sqrt(2*m*v*dd) + 2.0/3.0*dd*m
	return diff > eps
}

// windowVariance estimates the variance of the window contents.
func (a *ADWIN) windowVariance() float64 {
	if a.width < 2 {
		return 0
	}
	mean := a.Mean()
	// Total sum of squares = internal variances + between-bucket spread.
	ss := a.varSq
	for _, row := range a.rows {
		n := float64(row.size)
		for _, b := range row.buckets {
			d := b.sum/n - mean
			ss += n * d * d
		}
	}
	return ss / float64(a.width)
}

// dropOldest removes the oldest bucket from the window.
func (a *ADWIN) dropOldest() {
	for i := len(a.rows) - 1; i >= 0; i-- {
		row := &a.rows[i]
		if len(row.buckets) == 0 {
			continue
		}
		b := row.buckets[0]
		row.buckets = shiftOut(row.buckets, 1)
		a.width -= row.size
		a.total -= b.sum
		a.varSq -= b.varSq
		if a.varSq < 0 {
			a.varSq = 0
		}
		// Trim empty trailing rows.
		for len(a.rows) > 1 && len(a.rows[len(a.rows)-1].buckets) == 0 {
			a.rows = a.rows[:len(a.rows)-1]
		}
		return
	}
}

// Reset clears the window.
func (a *ADWIN) Reset() {
	a.rows = a.rows[:1]
	a.rows[0].buckets = a.rows[0].buckets[:0]
	a.total, a.varSq = 0, 0
	a.width, a.ticks = 0, 0
	a.detected = false
}
