package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestGrangerDetectsCausalLink(t *testing.T) {
	// y_t = 0.9 * x_{t-1} + small noise: x strongly Granger-causes y.
	rng := rand.New(rand.NewSource(5))
	n := 200
	x := make([]float64, n)
	y := make([]float64, n)
	for i := 1; i < n; i++ {
		x[i] = 0.5*x[i-1] + rng.NormFloat64()
		y[i] = 0.9*x[i-1] + 0.05*rng.NormFloat64()
	}
	res, err := GrangerCausality(x, y, 1, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Causal {
		t.Fatalf("expected causality, p=%v F=%v", res.PValue, res.F)
	}
}

func TestGrangerIndependentNoiseNotCausal(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rejected := 0
	const trials = 40
	for trial := 0; trial < trials; trial++ {
		n := 120
		x := make([]float64, n)
		y := make([]float64, n)
		for i := 0; i < n; i++ {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		res, err := GrangerCausality(x, y, 1, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		if res.Causal {
			rejected++
		}
	}
	// At alpha = 0.05, roughly 5% of independent trials find "causality";
	// allow generous slack.
	if rejected > trials/4 {
		t.Fatalf("independent noise flagged causal in %d/%d trials", rejected, trials)
	}
}

func TestGrangerInsufficientData(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{1, 2, 3}
	if _, err := GrangerCausality(x, y, 1, 0.05); err == nil {
		t.Fatal("expected ErrGrangerInsufficient for tiny series")
	}
}

func TestGrangerLengthMismatch(t *testing.T) {
	if _, err := GrangerCausality(make([]float64, 30), make([]float64, 29), 1, 0.05); err == nil {
		t.Fatal("expected error for mismatched lengths")
	}
}

func TestGrangerHigherLagOrder(t *testing.T) {
	// y depends on x at lag 2 only; a lag-2 test should find it.
	rng := rand.New(rand.NewSource(11))
	n := 300
	x := make([]float64, n)
	y := make([]float64, n)
	for i := 2; i < n; i++ {
		x[i] = rng.NormFloat64()
		y[i] = 0.8*x[i-2] + 0.1*rng.NormFloat64()
	}
	res, err := GrangerCausality(x, y, 2, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Causal {
		t.Fatalf("lag-2 dependence not found, p=%v", res.PValue)
	}
}

func TestDiff(t *testing.T) {
	d := Diff([]float64{1, 4, 9, 16})
	want := []float64{3, 5, 7}
	if len(d) != 3 {
		t.Fatalf("diff length %d", len(d))
	}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("diff = %v, want %v", d, want)
		}
	}
	if Diff([]float64{1}) != nil {
		t.Error("single-element diff should be nil")
	}
}

func TestSolveLinearKnownSystem(t *testing.T) {
	a := [][]float64{{2, 1}, {1, 3}}
	y := []float64{5, 10}
	b, ok := SolveLinear(a, y)
	if !ok {
		t.Fatal("solver failed")
	}
	// Solution: x = 1, y = 3.
	approx(t, b[0], 1, 1e-9, "b0")
	approx(t, b[1], 3, 1e-9, "b1")
}

func TestSolveLinearSingular(t *testing.T) {
	a := [][]float64{{1, 2}, {2, 4}}
	if _, ok := SolveLinear(a, []float64{1, 2}); ok {
		t.Fatal("singular system should fail")
	}
}

func TestSolveLinearPivoting(t *testing.T) {
	// Zero on the first diagonal position requires pivoting.
	a := [][]float64{{0, 1}, {1, 0}}
	b, ok := SolveLinear(a, []float64{2, 3})
	if !ok {
		t.Fatal("pivoting solver failed")
	}
	approx(t, b[0], 3, 1e-12, "pivot b0")
	approx(t, b[1], 2, 1e-12, "pivot b1")
}

func TestGrangerPValueRange(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		n := 60
		x := make([]float64, n)
		y := make([]float64, n)
		for i := 1; i < n; i++ {
			x[i] = rng.NormFloat64()
			y[i] = 0.3*y[i-1] + rng.NormFloat64()
		}
		res, err := GrangerCausality(x, y, 1, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		if res.PValue < 0 || res.PValue > 1 || math.IsNaN(res.PValue) {
			t.Fatalf("p-value out of range: %v", res.PValue)
		}
		if res.F < 0 {
			t.Fatalf("negative F: %v", res.F)
		}
	}
}

// TestGrangerScratchReuse runs one Granger over series of varying length
// and lag order, so its buffers grow and shrink, and checks every result
// bit for bit against GrangerCausality's fresh scratch. A warmed Granger
// then tests without allocating.
func TestGrangerScratchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var g Granger
	for round := 0; round < 2000; round++ {
		n, lags := 3+rng.Intn(40), 1+rng.Intn(3)
		x, y := make([]float64, n), make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = 0.1 * rng.NormFloat64()
			if i >= 2 && round%3 == 0 {
				y[i] += 0.9 * x[i-2]
			}
		}
		if round%11 == 0 {
			for i := range y {
				y[i] = 1 // a singular design
			}
		}
		want, wantErr := GrangerCausality(x, y, lags, 0.05)
		got, err := g.Test(x, y, lags, 0.05)
		if err != wantErr || math.Float64bits(got.F) != math.Float64bits(want.F) ||
			math.Float64bits(got.PValue) != math.Float64bits(want.PValue) || got != want {
			t.Fatalf("round %d (n=%d lags=%d): reused scratch gave %+v, %v; fresh %+v, %v", round, n, lags, got, err, want, wantErr)
		}
	}
	x, y := make([]float64, 32), make([]float64, 32)
	for i := range x {
		x[i], y[i] = rng.NormFloat64(), rng.NormFloat64()
	}
	if allocs := testing.AllocsPerRun(50, func() { _, _ = g.Test(x, y, 1, 0.05) }); allocs != 0 {
		t.Fatalf("Granger.Test allocates %.1f per call on warm scratch", allocs)
	}
}
