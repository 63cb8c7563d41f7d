package eval

import (
	"testing"

	"rbmim/internal/detectors"
	"rbmim/internal/stream"
)

// oracleDetector fires exactly once per ground-truth event, shortly after it
// begins, with perfect class attribution — an upper reference for every real
// detector.
type oracleDetector struct {
	events  []stream.DriftEvent
	i       int
	next    int
	classes []int
}

func (o *oracleDetector) Name() string        { return "Oracle" }
func (o *oracleDetector) Reset()              {}
func (o *oracleDetector) DriftClasses() []int { return o.classes }
func (o *oracleDetector) Update(detectors.Observation) detectors.State {
	defer func() { o.i++ }()
	if o.next < len(o.events) && o.i == o.events[o.next].Position+o.events[o.next].Width+200 {
		o.classes = o.events[o.next].Classes
		o.next++
		return detectors.Drift
	}
	return detectors.None
}

// neverDetector never signals — the lower reference (a frozen pipeline).
type neverDetector struct{}

func (neverDetector) Name() string                                 { return "Never" }
func (neverDetector) Reset()                                       {}
func (neverDetector) Update(detectors.Observation) detectors.State { return detectors.None }

// buildLocal builds the Figure 8 stream for RBF10 with m drifted classes.
func buildLocal(t *testing.T, m int) (stream.Stream, int) {
	t.Helper()
	spec, err := ArtificialByName("RBF10")
	if err != nil {
		t.Fatal(err)
	}
	s, n, err := spec.Build(BuildOptions{Scale: 0.02, Seed: 42, LocalDriftClasses: m})
	if err != nil {
		t.Fatal(err)
	}
	return s, n
}

func runWith(t *testing.T, s stream.Stream, n int, det detectors.Detector) Result {
	t.Helper()
	return RunPipeline(s, det, PipelineConfig{Instances: n, MetricWindow: 500, Seed: 1})
}

// TestOracleBeatsFrozenWhenManyClassesDrift asserts the economics that make
// the Figure 8 experiment meaningful: when most classes drift, adapting on
// the (perfect) signal must clearly beat a frozen pipeline, and the frozen
// pipeline must degrade as the injected damage grows.
func TestOracleBeatsFrozenWhenManyClassesDrift(t *testing.T) {
	if testing.Short() {
		t.Skip("integration economics test")
	}
	s1, n1 := buildLocal(t, 10)
	td := s1.(interface{ TrueDrifts() []stream.DriftEvent })
	oracle := runWith(t, s1, n1, &oracleDetector{events: td.TrueDrifts()})

	s2, n2 := buildLocal(t, 10)
	frozen := runWith(t, s2, n2, neverDetector{})

	if oracle.PMAUC <= frozen.PMAUC+5 {
		t.Fatalf("oracle pmAUC %.1f should clearly beat frozen %.1f at m=10", oracle.PMAUC, frozen.PMAUC)
	}

	s3, n3 := buildLocal(t, 1)
	frozenSmall := runWith(t, s3, n3, neverDetector{})
	if frozenSmall.PMAUC <= frozen.PMAUC {
		t.Fatalf("frozen pipeline should hurt more with more drifted classes: m=1 %.1f vs m=10 %.1f",
			frozenSmall.PMAUC, frozen.PMAUC)
	}
}

// TestRBMIMDetectsAllLocalDriftsAtMEquals1 asserts the paper's headline
// claim (RQ3): RBM-IM catches local drifts affecting a single minority
// class, which the windowed statistical detectors miss.
func TestRBMIMDetectsAllLocalDriftsAtMEquals1(t *testing.T) {
	if testing.Short() {
		t.Skip("integration detection test")
	}
	s, n := buildLocal(t, 1)
	det := PaperDetectors(s.Schema().Features)[5].New(s.Schema().Classes) // RBM-IM
	res := runWith(t, s, n, det)
	if res.TruePositives < 2 {
		t.Fatalf("RBM-IM detected %d/3 single-class local drifts", res.TruePositives)
	}
	// A single seed is too noisy for a detector-vs-detector assertion here;
	// the comparative claim (standard detectors missing local minority
	// drifts) is exercised by the Figure 8 sweep (driftbench -run fig8)
	// across 12 benchmarks.
}

// TestRBMIMGlobalDriftDetection asserts RQ1-level behavior on a sudden
// global drift: detection within the horizon.
func TestRBMIMGlobalDriftDetection(t *testing.T) {
	spec, err := ArtificialByName("RBF5")
	if err != nil {
		t.Fatal(err)
	}
	s, n, err := spec.Build(BuildOptions{Scale: 0.02, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	det := PaperDetectors(s.Schema().Features)[5].New(s.Schema().Classes)
	res := RunPipeline(s, det, PipelineConfig{Instances: n, MetricWindow: 500, Seed: 3})
	if res.TruePositives == 0 {
		t.Fatalf("RBM-IM missed both global drifts (signals at %v)", res.Signals)
	}
}

// TestSweepRunnersProduceFullGrids exercises the Figure 8/9 runners on a
// small configuration.
func TestSweepRunnersProduceFullGrids(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep grid test")
	}
	out, err := RunLocalDriftSweep(SweepConfig{
		Scale:        0.004,
		Seed:         5,
		MetricWindow: 500,
		Benchmarks:   []string{"RBF5"},
		Values:       []int{1, 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || len(out[0].Series) != 6 {
		t.Fatalf("grid shape wrong: %d panels", len(out))
	}
	for _, s := range out[0].Series {
		if len(s.Points) != 2 {
			t.Fatalf("%s: %d points", s.Detector, len(s.Points))
		}
		for _, p := range s.Points {
			if p.PMAUC <= 0 || p.PMAUC > 100 {
				t.Fatalf("%s: pmAUC %v", s.Detector, p.PMAUC)
			}
		}
	}

	out2, err := RunImbalanceSweep(SweepConfig{
		Scale:        0.004,
		Seed:         5,
		MetricWindow: 500,
		Benchmarks:   []string{"Hyperplane5"},
		Values:       []int{50, 500},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out2) != 1 || len(out2[0].Series[0].Points) != 2 {
		t.Fatal("imbalance grid shape wrong")
	}
}
