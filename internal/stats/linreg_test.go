package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"rbmim/internal/codec"
)

func TestOLSExactLine(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{3, 5, 7, 9, 11} // y = 1 + 2x
	a, b, rss := OLS(x, y)
	approx(t, a, 1, 1e-10, "intercept")
	approx(t, b, 2, 1e-10, "slope")
	approx(t, rss, 0, 1e-10, "rss")
}

func TestOLSConstantSeries(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{4, 4, 4}
	a, b, _ := OLS(x, y)
	approx(t, a, 4, 1e-10, "intercept of constant")
	approx(t, b, 0, 1e-10, "slope of constant")
}

func TestOLSDegenerateInputs(t *testing.T) {
	if a, b, rss := OLS(nil, nil); a != 0 || b != 0 || rss != 0 {
		t.Error("empty input should return zeros")
	}
	// All x identical: slope undefined -> 0, intercept = mean.
	a, b, _ := OLS([]float64{2, 2, 2}, []float64{1, 2, 3})
	approx(t, a, 2, 1e-10, "degenerate intercept")
	approx(t, b, 0, 1e-10, "degenerate slope")
}

func TestSlidingTrendMatchesOLSWithinWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	st := NewSlidingTrend(8)
	var xs, ys []float64
	for i := 1; i <= 8; i++ {
		v := 0.5*float64(i) + rng.NormFloat64()*0.1
		st.Add(v)
		xs = append(xs, float64(i))
		ys = append(ys, v)
	}
	_, beta, _ := OLS(xs, ys)
	approx(t, st.Slope(), beta, 1e-9, "incremental slope vs OLS")
}

func TestSlidingTrendEviction(t *testing.T) {
	st := NewSlidingTrend(4)
	// Feed a ramp then a plateau; after the window slides fully onto the
	// plateau the slope must be ~0.
	for i := 0; i < 4; i++ {
		st.Add(float64(i))
	}
	if st.Slope() <= 0.9 {
		t.Fatalf("ramp slope = %v, want ~1", st.Slope())
	}
	for i := 0; i < 8; i++ {
		st.Add(10)
	}
	approx(t, st.Slope(), 0, 1e-9, "plateau slope after eviction")
	if st.Count() != 4 {
		t.Fatalf("window count = %d, want 4", st.Count())
	}
	approx(t, st.Mean(), 10, 1e-9, "plateau mean")
}

func TestSlidingTrendEvictionMatchesOLS(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	st := NewSlidingTrend(6)
	var all []float64
	for i := 0; i < 40; i++ {
		v := rng.Float64() * 10
		st.Add(v)
		all = append(all, v)
	}
	// Compare against OLS on the last 6 points with absolute time indices.
	xs := make([]float64, 6)
	ys := make([]float64, 6)
	for i := 0; i < 6; i++ {
		xs[i] = float64(35 + i)
		ys[i] = all[34+i]
	}
	_, beta, _ := OLS(xs, ys)
	approx(t, st.Slope(), beta, 1e-9, "slope after many evictions")
}

func TestSlidingTrendSetWindow(t *testing.T) {
	st := NewSlidingTrend(8)
	for i := 0; i < 8; i++ {
		st.Add(float64(i))
	}
	st.SetWindow(4)
	if st.Window() != 4 {
		t.Fatalf("window = %d, want 4", st.Window())
	}
	if st.Count() != 4 {
		t.Fatalf("count after shrink = %d, want 4", st.Count())
	}
	// The retained points are the most recent four: 4,5,6,7 -> slope 1.
	approx(t, st.Slope(), 1, 1e-9, "slope preserved after shrink")
	st.SetWindow(16)
	if st.Window() != 16 || st.Count() != 4 {
		t.Fatalf("grow should retain history: window=%d count=%d", st.Window(), st.Count())
	}
}

// TestSlidingTrendResetMatchesFresh pins that Reset leaves a tracker equal
// to NewSlidingTrend on the same window, bit for bit, whether SetWindow had
// grown its history array (kept) or shrunk it (replaced).
func TestSlidingTrendResetMatchesFresh(t *testing.T) {
	for _, c := range []struct {
		name       string
		set, reset int
	}{{"grown", 12, 6}, {"shrunk", 3, 6}, {"grown-reset-smaller", 12, 4}} {
		rng := rand.New(rand.NewSource(5))
		used := NewSlidingTrend(6)
		for i := 0; i < 20; i++ {
			used.Add(rng.Float64())
		}
		used.SetWindow(c.set)
		for i := 0; i < 5; i++ {
			used.Add(rng.Float64())
		}
		used.Reset(c.reset)
		fresh := NewSlidingTrend(c.reset)
		for i := 0; i < 30; i++ {
			v := rng.NormFloat64()
			used.Add(v)
			fresh.Add(v)
			if math.Float64bits(used.Slope()) != math.Float64bits(fresh.Slope()) ||
				math.Float64bits(used.Mean()) != math.Float64bits(fresh.Mean()) {
				t.Fatalf("%s: after %d adds slope/mean %v/%v, fresh %v/%v",
					c.name, i+1, used.Slope(), used.Mean(), fresh.Slope(), fresh.Mean())
			}
		}
		a, b := codec.NewBuffer(nil), codec.NewBuffer(nil)
		used.EncodeState(a)
		fresh.EncodeState(b)
		if string(a.Bytes()) != string(b.Bytes()) {
			t.Fatalf("%s: reset tracker's state differs from a fresh one's", c.name)
		}
	}
}

// rebuiltTrend is SetWindow's specification for a window w >= 2 other
// than the current one: a fresh tracker on window w, its clock set back by
// the retained count, fed the newest w values of s.
func rebuiltTrend(s *SlidingTrend, w int) *SlidingTrend {
	vals := s.Values()
	if len(vals) > w {
		vals = vals[len(vals)-w:]
	}
	ns := NewSlidingTrend(w)
	ns.t = s.t - len(vals)
	for _, v := range vals {
		ns.Add(v)
	}
	return ns
}

// TestSlidingTrendSetWindowMatchesRebuild drives a tracker through random
// adds, window changes (shrinking, growing within and past its capacity)
// and resets, and checks every in-place SetWindow against rebuiltTrend:
// slope, mean, clock and encoded state, bit for bit. Once the history's
// capacity covers the window, SetWindow allocates nothing.
func TestSlidingTrendSetWindowMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	st := NewSlidingTrend(16)
	for op := 0; op < 20000; op++ {
		switch rng.Intn(8) {
		case 0:
			w := 2 + rng.Intn(70)
			if w == st.Window() {
				continue
			}
			want := rebuiltTrend(st, w)
			st.SetWindow(w)
			a, b := codec.NewBuffer(nil), codec.NewBuffer(nil)
			st.EncodeState(a)
			want.EncodeState(b)
			if math.Float64bits(st.Slope()) != math.Float64bits(want.Slope()) ||
				math.Float64bits(st.Mean()) != math.Float64bits(want.Mean()) ||
				st.t != want.t || string(a.Bytes()) != string(b.Bytes()) {
				t.Fatalf("op %d: SetWindow(%d) differs from the rebuild", op, w)
			}
		case 1:
			if rng.Intn(10) == 0 {
				st.Reset(2 + rng.Intn(20))
			}
		default:
			st.Add(rng.NormFloat64())
		}
	}
	st = NewSlidingTrend(64)
	st.Reset(16)
	for i := 0; i < 100; i++ {
		st.Add(float64(i % 7))
	}
	ws := []int{5, 64, 16, 40}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		st.SetWindow(ws[i%len(ws)])
		st.Add(float64(i))
		i++
	})
	if allocs != 0 {
		t.Fatalf("SetWindow within capacity allocates %.1f per call", allocs)
	}
}

func TestSlidingTrendValuesOrder(t *testing.T) {
	st := NewSlidingTrend(3)
	for _, v := range []float64{1, 2, 3, 4, 5} {
		st.Add(v)
	}
	vals := st.Values()
	want := []float64{3, 4, 5}
	if len(vals) != 3 {
		t.Fatalf("values len = %d", len(vals))
	}
	for i := range want {
		if vals[i] != want[i] {
			t.Fatalf("values = %v, want %v", vals, want)
		}
	}
}

func TestSlidingTrendSlopeFiniteProperty(t *testing.T) {
	f := func(raw []float64) bool {
		st := NewSlidingTrend(5)
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			st.Add(math.Mod(v, 1e6))
			s := st.Slope()
			if math.IsNaN(s) || math.IsInf(s, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
