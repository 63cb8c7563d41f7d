package stats

import "math"

// OLS fits y = alpha + beta*x by ordinary least squares and returns the
// intercept, slope, and residual sum of squares. Inputs must have equal,
// nonzero length; with fewer than two points the slope is zero.
func OLS(x, y []float64) (alpha, beta, rss float64) {
	n := float64(len(x))
	if len(x) != len(y) || len(x) == 0 {
		return 0, 0, 0
	}
	var sx, sy, sxx, sxy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		sxy += x[i] * y[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		alpha = sy / n
	} else {
		beta = (n*sxy - sx*sy) / den
		alpha = (sy - beta*sx) / n
	}
	for i := range x {
		r := y[i] - alpha - beta*x[i]
		rss += r * r
	}
	return alpha, beta, rss
}

// SlidingTrend maintains the slope of a simple linear regression of a value
// series against time over a sliding window of at most W points, using the
// incremental sums of Eq. 29-37 of the paper: TR_t, T_t, R_t, T2_t are
// updated in O(1) per observation, with the t > W case subtracting the
// contribution of the observation leaving the window (Eq. 33-36).
type SlidingTrend struct {
	w    int
	t    int
	tr   float64 // sum of t*R over the window (TR_t)
	st   float64 // sum of t over the window (T_t)
	sr   float64 // sum of R over the window (R_t)
	st2  float64 // sum of t^2 over the window (T2_t)
	hist []float64
	head int
	full bool
}

// NewSlidingTrend creates a trend tracker with window capacity w (>= 2).
func NewSlidingTrend(w int) *SlidingTrend {
	if w < 2 {
		w = 2
	}
	return &SlidingTrend{w: w, hist: make([]float64, w)}
}

// Reset empties the tracker and sets its window capacity to w (>= 2),
// leaving it equal to NewSlidingTrend(w). The history array is kept when its
// capacity suffices, so a detector restarting a class after a drift does
// not allocate.
func (s *SlidingTrend) Reset(w int) {
	if w < 2 {
		w = 2
	}
	hist := s.hist[:0]
	if cap(hist) < w {
		hist = make([]float64, w)
	}
	hist = hist[:w]
	clear(hist)
	*s = SlidingTrend{w: w, hist: hist}
}

// SetWindow resizes the window capacity. Shrinking drops the oldest
// observations; growing keeps history and simply allows more. Used by the
// self-adaptive window mechanism.
func (s *SlidingTrend) SetWindow(w int) {
	if w < 2 {
		w = 2
	}
	if w == s.w {
		return
	}
	// Rebuild from retained history (cheap: windows are small).
	vals := s.Values()
	if len(vals) > w {
		vals = vals[len(vals)-w:]
	}
	ns := NewSlidingTrend(w)
	// Preserve the absolute clock so trends remain comparable.
	startT := s.t - len(vals)
	ns.t = startT
	for _, v := range vals {
		ns.Add(v)
	}
	*s = *ns
}

// Add appends the next observation R(M_t) at the next time index.
func (s *SlidingTrend) Add(r float64) {
	s.t++
	t := float64(s.t)
	if s.Count() == s.w {
		// Evict the oldest observation (time t-W) per Eq. 33-36.
		old := s.hist[s.head]
		tOld := float64(s.t - s.w)
		s.tr -= tOld * old
		s.st -= tOld
		s.sr -= old
		s.st2 -= tOld * tOld
	}
	s.hist[s.head] = r
	s.head = (s.head + 1) % s.w
	if s.head == 0 {
		s.full = true
	}
	s.tr += t * r
	s.st += t
	s.sr += r
	s.st2 += t * t
}

// Count returns how many observations the window currently holds (Eq. 37).
func (s *SlidingTrend) Count() int {
	if s.full {
		return s.w
	}
	return s.head
}

// Window returns the current capacity W.
func (s *SlidingTrend) Window() int { return s.w }

// Values returns the retained observations in chronological order.
func (s *SlidingTrend) Values() []float64 {
	return s.ValuesInto(nil)
}

// ValuesInto writes the retained observations in chronological order into
// dst, reusing its backing array when large enough (the detector hot path
// passes a struct-owned scratch slice to stay allocation-free). Returns the
// filled slice.
func (s *SlidingTrend) ValuesInto(dst []float64) []float64 {
	n := s.Count()
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	if s.full {
		for i := 0; i < s.w; i++ {
			dst[i] = s.hist[(s.head+i)%s.w]
		}
		return dst
	}
	copy(dst, s.hist[:s.head])
	return dst
}

// Slope returns the regression slope Qr(t) of Eq. 28 over the current
// window; zero when fewer than two observations are held.
func (s *SlidingTrend) Slope() float64 {
	n := float64(s.Count())
	if n < 2 {
		return 0
	}
	den := n*s.st2 - s.st*s.st
	if den == 0 || math.IsNaN(den) {
		return 0
	}
	return (n*s.tr - s.st*s.sr) / den
}

// Mean returns the mean of the retained observations.
func (s *SlidingTrend) Mean() float64 {
	n := float64(s.Count())
	if n == 0 {
		return 0
	}
	return s.sr / n
}
