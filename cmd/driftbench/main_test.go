package main

import (
	"path/filepath"
	"strings"
	"testing"
)

// runOut runs driftbench with args and returns what it printed.
func runOut(t *testing.T, args ...string) string {
	t.Helper()
	var out strings.Builder
	if err := run(args, &out); err != nil {
		t.Fatalf("driftbench %s: %v\n%s", strings.Join(args, " "), err, out.String())
	}
	return out.String()
}

// TestRunEveryArtefact drives every paper artefact through one invocation at
// a tiny scale: Tables I-II, Table III, Figures 4-9 and the resume demo.
func TestRunEveryArtefact(t *testing.T) {
	out := runOut(t, "-run", "tables,table3,ranks,bayes,fig8,fig9,resume",
		"-scale", "0.002", "-benchmarks", "EEG,RBF5")
	for _, want := range []string{
		"== Kill-and-resume demo",
		"finished at observation 20000: drifts after the cut",
		"== Tables I-II",
		"Table I: properties",
		"Table II: examined detectors",
		"== Experiment 1 (Table III), scale=0.002 ==",
		"\nEEG ",
		"\nRBF5 ",
		"== Figures 4-5",
		"== Figures 6-7",
		"== Experiment 2 (Figure 8)",
		"== RBF5 (pmAUC vs classes) ==",
		"== Experiment 3 (Figure 9)",
		"== RBF5 (pmAUC vs IR) ==",
		"\ndone in ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q", want)
		}
	}
	// The sweeps skip the real-world stream: Figures 8-9 use the
	// artificial streams only.
	if strings.Contains(out, "== EEG (pmAUC") {
		t.Error("a sweep ran on the real-world stream EEG")
	}
	if t.Failed() {
		t.Log(out)
	}
}

// TestRunRejectsUnknownNames checks that a typo fails instead of running
// nothing and exiting cleanly, and that it fails before Table III starts.
func TestRunRejectsUnknownNames(t *testing.T) {
	for _, args := range [][]string{
		{"-run", "tabel3"},
		{"-run", "table3,fig10", "-scale", "0.002", "-benchmarks", "RBF5"},
		{"-run", "fig8", "-scale", "0.002", "-benchmarks", "RBFX"},
		{"-run", "fig9", "-scale", "0.002", "-benchmarks", "EEG"},
		{"-run", "table3,fig8", "-scale", "0.002", "-benchmarks", "EEG"},
		{"-run", "all", "-scale", "0.002", "-benchmarks", "EEG"},
	} {
		var out strings.Builder
		if err := run(args, &out); err == nil {
			t.Errorf("driftbench %s succeeded, want an error:\n%s", strings.Join(args, " "), out.String())
		}
		if strings.Contains(out.String(), "== Experiment 1") {
			t.Errorf("driftbench %s ran Table III before rejecting its arguments", strings.Join(args, " "))
		}
	}
}

// TestResumeDemoRoundTrips checks the resume demo's claim: saving the
// detector mid-stream and resuming from the file ends with the same drifts
// after the cut and the same weight checksum as the uninterrupted run.
func TestResumeDemoRoundTrips(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "ck.bin")
	reference := finishedLine(t, runOut(t, "-run", "resume"))
	if out := runOut(t, "-run", "resume", "-checkpoint", ck); strings.Contains(out, "finished at") {
		t.Fatalf("the checkpoint run finished the stream:\n%s", out)
	}
	if got := finishedLine(t, runOut(t, "-run", "resume", "-resume", ck)); got != reference {
		t.Fatalf("resumed run: %s\nuninterrupted: %s", got, reference)
	}
}

// finishedLine returns the resume demo's post-cut summary: the drifts after
// the cut and the final checksum (the total differs by design, since a
// resumed run did not see the prefix).
func finishedLine(t *testing.T, out string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "finished at") {
			head, _, _ := strings.Cut(line, " (total")
			_, checksum, _ := strings.Cut(line, "final weight checksum")
			return head + checksum
		}
	}
	t.Fatalf("no finished line in:\n%s", out)
	return ""
}
