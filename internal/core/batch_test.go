package core

import (
	"reflect"
	"slices"
	"testing"

	"rbmim/internal/detectors"
	"rbmim/internal/stream"
	"rbmim/internal/synth"
)

// driftObservations pre-draws a drifting stream so the sequential and
// batched detectors consume the exact same instances.
func driftObservations(t *testing.T, n int) []detectors.Observation {
	t.Helper()
	before, err := synth.NewRBF(synth.Config{Features: 10, Classes: 4, Seed: 5}, 3, 0.07)
	if err != nil {
		t.Fatal(err)
	}
	after, err := synth.NewRBF(synth.Config{Features: 10, Classes: 4, Seed: 99}, 3, 0.07)
	if err != nil {
		t.Fatal(err)
	}
	return drawObservations(stream.NewDriftStream(before, after, stream.Sudden, n/2, 0, 1), n)
}

// localDriftObservations pre-draws a 5-class stream whose class 3 alone
// drifts halfway: a local drift that only per-drift attribution names.
func localDriftObservations(t *testing.T, n int) []detectors.Observation {
	t.Helper()
	gen, err := synth.NewRBF(synth.Config{Features: 10, Classes: 5, Seed: 6}, 3, 0.07)
	if err != nil {
		t.Fatal(err)
	}
	return drawObservations(stream.NewLocalDriftInjector(gen, []int{3}, stream.Sudden, n/2, 0, 2), n)
}

func drawObservations(s stream.Stream, n int) []detectors.Observation {
	obs := make([]detectors.Observation, n)
	for i := range obs {
		in := s.Next()
		obs[i] = detectors.Observation{X: in.X, TrueClass: in.Y, Predicted: in.Y}
	}
	return obs
}

// driftAttribution is what a caller can read right after a drift: the
// attributed classes and the flight record's mini-batch index.
type driftAttribution struct {
	classes []int
	batch   int
}

func attributionOf(d *Detector) driftAttribution {
	return driftAttribution{classes: slices.Clone(d.DriftClasses()), batch: d.LastDriftRecord().Batch}
}

// TestUpdateBatchMatchesSequential is the update-path contract on a global
// drift: see checkUpdateBatchMatchesSequential.
func TestUpdateBatchMatchesSequential(t *testing.T) {
	checkUpdateBatchMatchesSequential(t, 4, driftObservations(t, 20000), -1)
}

// TestUpdateBatchDriftClassesSurviveBlock runs the same contract on a local
// class-3 drift: a drift signalled by a mini-batch in the middle of a block
// must be attributed to class 3 when UpdateBatch returns at it, exactly as
// the sequential run attributes it, even when quiet mini-batches follow it
// inside the block.
func TestUpdateBatchDriftClassesSurviveBlock(t *testing.T) {
	checkUpdateBatchMatchesSequential(t, 5, localDriftObservations(t, 24000), 3)
}

// checkUpdateBatchMatchesSequential checks that, for every chunking, looping
// UpdateBatch on its returned count emits the exact per-observation states
// of the sequential Update loop, reports at each drift the classes and
// flight-record batch the sequential run reports at that index, and leaves
// the RBM in the same state (same CD-k randomness consumed in the same
// order). local is the class some drift after the halfway injection must
// name, or -1 for a global drift.
func checkUpdateBatchMatchesSequential(t *testing.T, classes int, obs []detectors.Observation, local int) {
	t.Helper()
	n := len(obs)
	seq, err := NewDetector(testConfig(10, classes))
	if err != nil {
		t.Fatal(err)
	}
	want := make([]detectors.State, n)
	wantAttr := make(map[int]driftAttribution)
	for i := range obs {
		want[i] = seq.Update(obs[i])
		if want[i] == detectors.Drift {
			wantAttr[i] = attributionOf(seq)
		}
	}
	if len(wantAttr) == 0 {
		t.Fatal("comparison stream produced no drift; the test is vacuous")
	}
	if local >= 0 && !namesClassAfter(wantAttr, local, n/2) {
		t.Fatalf("no drift after the injection names class %d", local)
	}
	for _, chunk := range []int{1, 7, 50, 256, 1000} {
		bat, err := NewDetector(testConfig(10, classes))
		if err != nil {
			t.Fatal(err)
		}
		got := make([]detectors.State, n)
		for start := 0; start < n; start += chunk {
			end := min(start+chunk, n)
			for off := start; off < end; {
				k := bat.UpdateBatch(obs[off:end], got[off:end])
				run := got[off : off+k]
				off += k
				if slices.Contains(run[:k-1], detectors.Drift) {
					t.Fatalf("chunk=%d: UpdateBatch ran past a drift before %d", chunk, off)
				}
				if i := off - 1; got[i] == detectors.Drift {
					if a := attributionOf(bat); !reflect.DeepEqual(a, wantAttr[i]) {
						t.Fatalf("chunk=%d: drift at %d attributed %+v, %+v sequentially", chunk, i, a, wantAttr[i])
					}
				}
			}
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("chunk=%d: state[%d] = %v batched, %v sequential", chunk, i, got[i], want[i])
			}
		}
		seqErr, batErr := seq.LastErrors(), bat.LastErrors()
		for k := range seqErr {
			if seqErr[k] != batErr[k] {
				t.Fatalf("chunk=%d: class %d reconstruction error %v batched vs %v sequential", chunk, k, batErr[k], seqErr[k])
			}
		}
	}
}

// namesClassAfter reports whether a drift at an index >= from names class.
func namesClassAfter(attr map[int]driftAttribution, class, from int) bool {
	for i, a := range attr {
		if i >= from && slices.Contains(a.classes, class) {
			return true
		}
	}
	return false
}

// TestTrainBatchUnscoredMatchesTrainBatch verifies the amortization claim:
// skipping the scoring pass must leave the weights bit-identical.
func TestTrainBatchUnscoredMatchesTrainBatch(t *testing.T) {
	build := func() *RBM {
		r, err := NewRBM(RBMConfig{Visible: 8, Hidden: 16, Classes: 3, Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := build(), build()
	gen, err := synth.NewRBF(synth.Config{Features: 8, Classes: 3, Seed: 2}, 3, 0.08)
	if err != nil {
		t.Fatal(err)
	}
	xs := make([][]float64, 50)
	ys := make([]int, 50)
	for batch := 0; batch < 40; batch++ {
		for i := range xs {
			in := gen.Next()
			xs[i] = in.X
			ys[i] = in.Y
		}
		a.TrainBatch(xs, ys)
		b.TrainBatchUnscored(xs, ys)
	}
	x := xs[0]
	for y := 0; y < 3; y++ {
		if ea, eb := a.ReconstructionError(x, y), b.ReconstructionError(x, y); ea != eb {
			t.Fatalf("class %d: reconstruction error %v scored vs %v unscored", y, ea, eb)
		}
	}
}
