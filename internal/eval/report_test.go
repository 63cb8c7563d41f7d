package eval

import (
	"strconv"
	"strings"
	"testing"
)

// smallTable3 builds a minimal Table3Output without running pipelines.
func smallTable3() *Table3Output {
	out := &Table3Output{
		Detectors: []string{"A", "B"},
		Rows: []Table3Row{
			{Stream: "S1", Results: []Result{
				{Detector: "A", Stream: "S1", PMAUC: 80, PMGM: 70, Instances: 1000, DetectorSeconds: 0.01},
				{Detector: "B", Stream: "S1", PMAUC: 90, PMGM: 85, Instances: 1000, DetectorSeconds: 0.02},
			}},
			{Stream: "S2", Results: []Result{
				{Detector: "A", Stream: "S2", PMAUC: 60, PMGM: 50, Instances: 1000},
				{Detector: "B", Stream: "S2", PMAUC: 75, PMGM: 65, Instances: 1000},
			}},
		},
		RanksAUC:           []float64{2, 1},
		RanksGM:            []float64{2, 1},
		CriticalDifference: 1.0,
	}
	return out
}

func TestWriteTable3Renders(t *testing.T) {
	var sb strings.Builder
	WriteTable3(&sb, smallTable3())
	s := sb.String()
	for _, want := range []string{"S1", "S2", "80.00", "90.00", "ranks", "det s/1k inst"} {
		if !strings.Contains(s, want) {
			t.Fatalf("table output missing %q:\n%s", want, s)
		}
	}
}

func TestWriteRankAnalysisRenders(t *testing.T) {
	var sb strings.Builder
	out := smallTable3()
	WriteRankAnalysis(&sb, out, "pmauc")
	s := sb.String()
	if !strings.Contains(s, "Friedman") || !strings.Contains(s, "CD(") {
		t.Fatalf("rank analysis missing headers:\n%s", s)
	}
	// Best-ranked detector (B) must be listed first on the axis.
	bIdx := strings.Index(s, "B ")
	aIdx := strings.Index(s, "A ")
	if bIdx < 0 || aIdx < 0 || bIdx > aIdx {
		t.Fatalf("rank axis order wrong:\n%s", s)
	}
}

func TestWriteBayesianComparisonRenders(t *testing.T) {
	var sb strings.Builder
	out := smallTable3()
	if err := WriteBayesianComparison(&sb, out, "A", "B", "pmauc", 1.0, 7); err != nil {
		t.Fatal(err)
	}
	s := sb.String()
	if !strings.Contains(s, "P(B better)") {
		t.Fatalf("bayesian output missing probabilities:\n%s", s)
	}
	// B dominates A by 10-15 points on both streams; with only two paired
	// observations the Dirichlet prior keeps mass on the rope, but the
	// right region must still dominate the left.
	if strings.Contains(s, "P(A better) = 0.9") || strings.Contains(s, "P(A better) = 1.0") {
		t.Fatalf("A should not dominate:\n%s", s)
	}
	if err := WriteBayesianComparison(&sb, out, "missing", "B", "pmauc", 1, 7); err == nil {
		t.Fatal("unknown detector should error")
	}
}

func TestWriteSweepRenders(t *testing.T) {
	panels := []SweepOutput{{
		Stream: "RBF5",
		Series: []SweepSeries{
			{Detector: "A", Points: []SweepPoint{{X: 1, PMAUC: 70, PMGM: 60}, {X: 5, PMAUC: 80, PMGM: 72}}},
			{Detector: "B", Points: []SweepPoint{{X: 1, PMAUC: 90, PMGM: 81}, {X: 5, PMAUC: 91, PMGM: 83}}},
		},
	}}
	var sb strings.Builder
	WriteSweep(&sb, panels, "classes")
	s := sb.String()
	for _, want := range []string{"RBF5", "pmAUC", "pmGM", "drift detection rate"} {
		if !strings.Contains(s, want) {
			t.Fatalf("sweep output missing %q:\n%s", want, s)
		}
	}
}

// TestWriteTablesScaledColumnMatchesBuild checks that Table I's "(scaled)"
// column is the length each benchmark is actually built with at that scale,
// and that Table II follows it.
func TestWriteTablesScaledColumnMatchesBuild(t *testing.T) {
	const scale = 0.002
	var sb strings.Builder
	WriteTables(&sb, scale)
	scaled := map[string]string{}
	for _, line := range strings.Split(sb.String(), "\n") {
		if f := strings.Fields(line); len(f) == 7 {
			scaled[f[0]] = f[2]
		}
	}
	for _, b := range AllBenchmarks() {
		_, n, err := b.Build(scale, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := scaled[b.Name], strconv.Itoa(n); got != want {
			t.Errorf("%s: Table I shows %q instances at scale %v, Build uses %s", b.Name, got, scale, want)
		}
	}
	if !strings.Contains(sb.String(), "Table II") || !strings.Contains(sb.String(), "DDM-OCI") {
		t.Fatalf("Table II missing:\n%s", sb.String())
	}
}

func TestDefaultGridsCoverAllDetectors(t *testing.T) {
	grids := DefaultGrids()
	if len(grids) != 6 {
		t.Fatalf("want 6 grids, got %d", len(grids))
	}
	names := map[string]bool{}
	for _, g := range grids {
		names[g.Detector] = true
		if len(g.Params) == 0 {
			t.Fatalf("%s: empty grid", g.Detector)
		}
		for _, p := range g.Params {
			if len(p.Values) == 0 {
				t.Fatalf("%s/%s: empty values", g.Detector, p.Name)
			}
			box := p.TuneBox()
			if box.Min >= box.Max {
				t.Fatalf("%s/%s: degenerate tuning box", g.Detector, p.Name)
			}
		}
	}
	for _, want := range []string{"WSTD", "RDDM", "FHDDM", "PerfSim", "DDM-OCI", "RBM-IM"} {
		if !names[want] {
			t.Fatalf("grid for %s missing", want)
		}
	}
}

func TestPaperDetectorFactoriesValid(t *testing.T) {
	fax := PaperDetectors(10)
	if len(fax) != 6 {
		t.Fatalf("want 6 paper detectors, got %d", len(fax))
	}
	for _, f := range fax {
		if err := f.Validate(); err != nil {
			t.Fatal(err)
		}
		d := f.New(4)
		if d.Name() != f.Name {
			t.Fatalf("factory %q builds detector named %q", f.Name, d.Name())
		}
	}
	extras := ExtraDetectors()
	if len(extras) != 4 {
		t.Fatalf("want 4 extra detectors, got %d", len(extras))
	}
	for _, f := range extras {
		if err := f.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestTable3ScoresForAndSorting(t *testing.T) {
	out := smallTable3()
	scores, err := out.ScoresFor("B", "pmauc")
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != 2 || scores[0] != 90 || scores[1] != 75 {
		t.Fatalf("scores = %v", scores)
	}
	if _, err := out.ScoresFor("Z", "pmauc"); err == nil {
		t.Fatal("unknown detector should error")
	}
	sorted := out.SortedByRank("pmauc")
	if sorted[0] != "B" || sorted[1] != "A" {
		t.Fatalf("sorted = %v", sorted)
	}
}
