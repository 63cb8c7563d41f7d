package core

import (
	"math"
	"testing"

	"rbmim/internal/detectors"
	"rbmim/internal/stats"
	"rbmim/internal/stream"
	"rbmim/internal/synth"
)

func testConfig(features, classes int) Config {
	return Config{
		Features:       features,
		Classes:        classes,
		BatchSize:      50,
		AdaptiveWindow: true,
		Seed:           1,
	}
}

// runDetector feeds n instances of s through d (labels as both truth and
// prediction; RBM-IM ignores the prediction) and returns the batch indices
// at which drift was signalled.
func runDetector(d *Detector, s stream.Stream, n int) []int {
	var driftAt []int
	for i := 0; i < n; i++ {
		in := s.Next()
		st := d.Update(detectors.Observation{X: in.X, TrueClass: in.Y, Predicted: in.Y})
		if st == detectors.Drift {
			driftAt = append(driftAt, i)
		}
	}
	return driftAt
}

func TestDetectorValidation(t *testing.T) {
	if _, err := NewDetector(Config{Features: 0, Classes: 2}); err == nil {
		t.Fatal("expected error for zero features")
	}
	if _, err := NewDetector(Config{Features: 4, Classes: 1}); err == nil {
		t.Fatal("expected error for one class")
	}
	d, err := NewDetector(testConfig(4, 3))
	if err != nil {
		t.Fatalf("NewDetector: %v", err)
	}
	if d.Name() != "RBM-IM" {
		t.Fatalf("Name() = %q", d.Name())
	}
}

func TestDetectorStationaryLowFalseAlarms(t *testing.T) {
	gen, err := synth.NewRBF(synth.Config{Features: 10, Classes: 4, Seed: 5}, 3, 0.07)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDetector(testConfig(10, 4))
	if err != nil {
		t.Fatal(err)
	}
	const n = 20000
	drifts := runDetector(d, gen, n)
	batches := n / d.Config().BatchSize
	if len(drifts) > batches/10 {
		t.Fatalf("stationary stream: %d drift signals over %d batches (too many false alarms)", len(drifts), batches)
	}
}

func TestDetectorFindsSuddenGlobalDrift(t *testing.T) {
	before, err := synth.NewRBF(synth.Config{Features: 10, Classes: 4, Seed: 5}, 3, 0.07)
	if err != nil {
		t.Fatal(err)
	}
	after, err := synth.NewRBF(synth.Config{Features: 10, Classes: 4, Seed: 99}, 3, 0.07)
	if err != nil {
		t.Fatal(err)
	}
	const driftAt = 10000
	s := stream.NewDriftStream(before, after, stream.Sudden, driftAt, 0, 1)
	d, err := NewDetector(testConfig(10, 4))
	if err != nil {
		t.Fatal(err)
	}
	drifts := runDetector(d, s, 20000)
	found := false
	for _, at := range drifts {
		if at >= driftAt && at <= driftAt+4000 {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("sudden global drift at %d not detected; signals at %v", driftAt, drifts)
	}
}

func TestDetectorFindsLocalDriftSingleClass(t *testing.T) {
	gen, err := synth.NewRBF(synth.Config{Features: 10, Classes: 5, Seed: 6}, 3, 0.07)
	if err != nil {
		t.Fatal(err)
	}
	const driftAt = 12000
	// Drift only class 3.
	s := stream.NewLocalDriftInjector(gen, []int{3}, stream.Sudden, driftAt, 0, 2)
	d, err := NewDetector(testConfig(10, 5))
	if err != nil {
		t.Fatal(err)
	}
	foundOnClass := false
	for i := 0; i < 24000; i++ {
		in := s.Next()
		st := d.Update(detectors.Observation{X: in.X, TrueClass: in.Y, Predicted: in.Y})
		if st == detectors.Drift && i >= driftAt && i <= driftAt+6000 {
			for _, c := range d.DriftClasses() {
				if c == 3 {
					foundOnClass = true
				}
			}
		}
	}
	if !foundOnClass {
		t.Fatal("local drift on class 3 not attributed to class 3")
	}
}

func TestDetectorResetClearsState(t *testing.T) {
	gen, err := synth.NewRBF(synth.Config{Features: 8, Classes: 3, Seed: 9}, 3, 0.07)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDetector(testConfig(8, 3))
	if err != nil {
		t.Fatal(err)
	}
	runDetector(d, gen, 3000)
	d.Reset()
	slopes := d.TrendSlopes()
	for k, s := range slopes {
		if s != 0 {
			t.Fatalf("class %d slope %v after Reset, want 0", k, s)
		}
	}
}

func TestDetectorHandlesImbalancedStream(t *testing.T) {
	gen, err := synth.NewRBF(synth.Config{Features: 10, Classes: 5, Seed: 8}, 3, 0.07)
	if err != nil {
		t.Fatal(err)
	}
	skew := stream.NewImbalanceWrapper(gen, stream.NewStaticSkew(5, 100), 3)
	d, err := NewDetector(testConfig(10, 5))
	if err != nil {
		t.Fatal(err)
	}
	// Must run without panics and keep false alarms bounded.
	drifts := runDetector(d, skew, 15000)
	batches := 15000 / d.Config().BatchSize
	if len(drifts) > batches/8 {
		t.Fatalf("imbalanced stationary stream: %d drifts over %d batches", len(drifts), batches)
	}
}

// TestTcritTableMatchesQuantile pins the critical-value table to the call it
// caches: every entry a stream filled through processBatch, and every entry
// the 4*TrendWindow clamp lets trendCandidate reach, equals a fresh
// StudentTQuantile(1-alpha/(2Z), dfree) bit for bit.
func TestTcritTableMatchesQuantile(t *testing.T) {
	gen, err := synth.NewRBF(synth.Config{Features: 8, Classes: 3, Seed: 9}, 3, 0.07)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDetector(testConfig(8, 3))
	if err != nil {
		t.Fatal(err)
	}
	runDetector(d, gen, 6000)
	cfg := d.Config()
	fresh := func(dfree int) float64 {
		return stats.StudentTQuantile(1-cfg.Alpha/(2*float64(cfg.Classes)), float64(dfree))
	}
	filled := 0
	for dfree, v := range d.tcrit {
		if v == 0 {
			continue
		}
		filled++
		if math.Float64bits(v) != math.Float64bits(fresh(dfree)) {
			t.Fatalf("dfree %d: filled entry %v, fresh quantile %v", dfree, v, fresh(dfree))
		}
	}
	if filled == 0 {
		t.Fatal("the stream filled no table entry")
	}
	if want := 4*cfg.TrendWindow - 1; len(d.tcrit) != want {
		t.Fatalf("table has %d entries, the clamp needs %d", len(d.tcrit), want)
	}
	// trendCandidate tests windows of n >= 5 points at dfree = n-2.
	for dfree := 3; dfree <= 4*cfg.TrendWindow-2; dfree++ {
		if got, want := d.tcritAt(dfree), fresh(dfree); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("dfree %d: table %v, fresh quantile %v", dfree, got, want)
		}
	}
}
