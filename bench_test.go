package rbmim

// Benchmarks of the core primitives, the detector ablations and the
// detector's checkpoint serialization (the monitor's multi-stream ingest is
// measured by BenchmarkMonitorParallelIngest in internal/monitor and by
// perfbench's wire workloads):
//
//	go test -run xxx -bench=. -benchmem
//
// The paper's tables and figures are reproduced by cmd/driftbench, whose
// tier-1 test (cmd/driftbench/main_test.go) runs every -run mode at a tiny
// scale; allocation claims are pinned by testing.AllocsPerRun tests, not by
// the -benchmem columns here.

import (
	"fmt"
	"testing"

	"rbmim/internal/core"
	"rbmim/internal/detectors"
	"rbmim/internal/eval"
	"rbmim/internal/realworld"
	"rbmim/internal/synth"
)

// benchScale keeps each ablation pipeline at the 3000-instance minimum
// length.
const benchScale = 0.002

// BenchmarkDetectorUpdate measures the per-instance cost of every detector
// (the "test time" row of Table III) on a 20-feature 5-class stream.
func BenchmarkDetectorUpdate(b *testing.B) {
	gen, err := synth.NewRBF(synth.Config{Features: 20, Classes: 5, Seed: 3}, 3, 0.08)
	if err != nil {
		b.Fatal(err)
	}
	// Pre-draw observations so stream cost is excluded.
	obs := make([]detectors.Observation, 4096)
	for i := range obs {
		in := gen.Next()
		obs[i] = detectors.Observation{X: in.X, TrueClass: in.Y, Predicted: in.Y}
	}
	fax := eval.PaperDetectors(20)
	fax = append(fax, eval.ExtraDetectors()...)
	for _, f := range fax {
		f := f
		b.Run(f.Name, func(b *testing.B) {
			det := f.New(5)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				det.Update(obs[i%len(obs)])
			}
		})
	}
}

// BenchmarkDetectorUpdateBatch compares RBM-IM's per-instance Update loop
// against detectors.UpdateBatch on 256-observation blocks, looping on the
// returned count as every caller does. ns/op is per block; the ns/obs metric
// is comparable across the two sub-benches. UpdateBatch is the Update loop,
// so the two should read the same: the block costs one call per drift, not
// less work per observation.
func BenchmarkDetectorUpdateBatch(b *testing.B) {
	const block = 256
	gen, err := synth.NewRBF(synth.Config{Features: 20, Classes: 5, Seed: 3}, 3, 0.08)
	if err != nil {
		b.Fatal(err)
	}
	obs := make([]detectors.Observation, 4096)
	for i := range obs {
		in := gen.Next()
		obs[i] = detectors.Observation{X: in.X, TrueClass: in.Y, Predicted: in.Y}
	}
	newDet := func() detectors.Detector {
		return eval.PaperDetectors(20)[5].New(5) // RBM-IM
	}
	perObs := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/block, "ns/obs")
	}
	b.Run("perInstance", func(b *testing.B) {
		det := newDet()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			base := (i * block) % len(obs)
			for j := 0; j < block; j++ {
				det.Update(obs[base+j])
			}
		}
		perObs(b)
	})
	b.Run("batch256", func(b *testing.B) {
		det := newDet()
		states := make([]detectors.State, block)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			base := (i * block) % len(obs)
			for off := 0; off < block; {
				off += detectors.UpdateBatch(det, obs[base+off:base+block], states[off:])
			}
		}
		perObs(b)
	})
}

// BenchmarkRBMTrainBatch measures one CD-1 mini-batch update at the paper's
// default batch size for three stream widths.
func BenchmarkRBMTrainBatch(b *testing.B) {
	for _, width := range []int{20, 40, 80} {
		width := width
		b.Run(map[int]string{20: "20features", 40: "40features", 80: "80features"}[width], func(b *testing.B) {
			rbm, err := core.NewRBM(core.RBMConfig{
				Visible: width, Hidden: 2 * width, Classes: 10,
				LearningRate: 0.5, Momentum: 0.9, Seed: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			gen, err := synth.NewRBF(synth.Config{Features: width, Classes: 10, Seed: 5}, 3, 0.08)
			if err != nil {
				b.Fatal(err)
			}
			xs := make([][]float64, 50)
			ys := make([]int, 50)
			for i := range xs {
				in := gen.Next()
				xs[i] = in.X
				ys[i] = in.Y
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rbm.TrainBatch(xs, ys)
			}
		})
	}
}

// BenchmarkReconstructionError measures the per-instance scoring cost of the
// trained RBM (the detector's hot path).
func BenchmarkReconstructionError(b *testing.B) {
	rbm, err := core.NewRBM(core.RBMConfig{Visible: 40, Hidden: 80, Classes: 10, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	x := make([]float64, 40)
	for i := range x {
		x[i] = float64(i) / 40
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rbm.ReconstructionError(x, i%10)
	}
}

// BenchmarkClassifier measures the base learner's predict+train cycle.
func BenchmarkClassifier(b *testing.B) {
	gen, err := synth.NewRBF(synth.Config{Features: 20, Classes: 10, Seed: 9}, 3, 0.08)
	if err != nil {
		b.Fatal(err)
	}
	ins := make([]Instance, 4096)
	for i := range ins {
		ins[i] = gen.Next()
	}
	tree := newBenchTree()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := ins[i%len(ins)]
		tree.Predict(in.X)
		tree.Train(in.X, in.Y)
	}
}

// BenchmarkStreamGenerators measures raw generation cost per family.
func BenchmarkStreamGenerators(b *testing.B) {
	cfg := synth.Config{Features: 40, Classes: 10, Seed: 2}
	hyp, _ := synth.NewHyperplane(cfg, 0)
	rbf, _ := synth.NewRBF(cfg, 3, 0.08)
	tree, _ := synth.NewRandomTree(cfg, 0)
	agr, _ := synth.NewAgrawal(cfg, 0)
	for _, tc := range []struct {
		name string
		s    Stream
	}{{"Hyperplane", hyp}, {"RBF", rbf}, {"RandomTree", tree}, {"Agrawal", agr}} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tc.s.Next()
			}
		})
	}
}

// BenchmarkRealWorldSurrogates measures the composed surrogate streams
// (generator + drift orchestration + imbalance wrapper).
func BenchmarkRealWorldSurrogates(b *testing.B) {
	for _, name := range []string{"EEG", "Covertype", "IntelSensors"} {
		name := name
		b.Run(name, func(b *testing.B) {
			spec, err := realworld.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			s, n, err := spec.Build(1, 3)
			if err != nil {
				b.Fatal(err)
			}
			drawn := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if drawn == n {
					// b.N can exceed the stream's full Table I length
					// (e.g. EEG is only ~15k instances): restart it.
					b.StopTimer()
					s, n, err = spec.Build(1, 3)
					if err != nil {
						b.Fatal(err)
					}
					drawn = 0
					b.StartTimer()
				}
				s.Next()
				drawn++
			}
		})
	}
}

// BenchmarkAblationAdaptiveWindow compares RBM-IM with and without the
// ADWIN-driven self-adaptive window (the design choice called out in
// DESIGN.md) on a sudden-drift pipeline.
func BenchmarkAblationAdaptiveWindow(b *testing.B) {
	for _, adaptive := range []bool{true, false} {
		adaptive := adaptive
		name := "adaptive"
		if !adaptive {
			name = "fixed"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				spec, err := eval.ArtificialByName("RBF5")
				if err != nil {
					b.Fatal(err)
				}
				s, n, err := spec.Build(eval.BuildOptions{Scale: benchScale, Seed: 21})
				if err != nil {
					b.Fatal(err)
				}
				det, err := core.NewDetector(core.Config{
					Features:       s.Schema().Features,
					Classes:        s.Schema().Classes,
					AdaptiveWindow: adaptive,
					Seed:           22,
				})
				if err != nil {
					b.Fatal(err)
				}
				res := eval.RunPipeline(s, det, eval.PipelineConfig{Instances: n, MetricWindow: 500, Seed: 23})
				if i == 0 && testing.Verbose() {
					b.Logf("%s: pmAUC=%.2f TP=%d FA=%d", name, res.PMAUC, res.TruePositives, res.FalseAlarms)
				}
			}
		})
	}
}

// BenchmarkAblationSkewInsensitiveLoss compares the class-balanced loss
// (beta = 0.99) against plain unweighted CD (beta ~ 0, making every class
// weight 1) on an extremely imbalanced pipeline.
func BenchmarkAblationSkewInsensitiveLoss(b *testing.B) {
	for _, balanced := range []bool{true, false} {
		balanced := balanced
		name := "classBalanced"
		if !balanced {
			name = "unweighted"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				spec, err := eval.ArtificialByName("RBF10")
				if err != nil {
					b.Fatal(err)
				}
				s, n, err := spec.Build(eval.BuildOptions{Scale: benchScale, Seed: 31, IROverride: 400})
				if err != nil {
					b.Fatal(err)
				}
				cfg := core.Config{
					Features:       s.Schema().Features,
					Classes:        s.Schema().Classes,
					AdaptiveWindow: true,
					Seed:           32,
				}
				if !balanced {
					cfg.Beta = 1e-9 // effective-number weights collapse to 1
				}
				det, err := core.NewDetector(cfg)
				if err != nil {
					b.Fatal(err)
				}
				res := eval.RunPipeline(s, det, eval.PipelineConfig{Instances: n, MetricWindow: 500, Seed: 33})
				if i == 0 && testing.Verbose() {
					b.Logf("%s: pmAUC=%.2f pmGM=%.2f", name, res.PMAUC, res.PMGM)
				}
			}
		})
	}
}

// newBenchTree builds the base classifier via the internal package (the
// façade intentionally does not re-export the classifier).
func newBenchTree() interface {
	Predict([]float64) (int, []float64)
	Train([]float64, int)
} {
	return benchTreeFactory()
}

// BenchmarkDetectorSaveState measures one full RBM-IM snapshot: the
// serialization runs on the shard goroutine in production, so this is the
// per-stream pause a checkpoint tick injects between micro-batches. The
// snapshot_bytes metric records the per-stream footprint a Store holds.
func BenchmarkDetectorSaveState(b *testing.B) {
	for _, features := range []int{20, 80} {
		features := features
		b.Run(fmt.Sprintf("%dfeatures", features), func(b *testing.B) {
			det, err := core.NewDetector(core.Config{Features: features, Classes: 5, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			gen, err := synth.NewRBF(synth.Config{Features: features, Classes: 5, Seed: 3}, 3, 0.08)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < 2000; i++ {
				in := gen.Next()
				det.Update(detectors.Observation{X: in.X, TrueClass: in.Y, Predicted: in.Y})
			}
			var frame []byte
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if frame, err = det.AppendState(frame[:0]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(len(frame)), "snapshot_bytes")
		})
	}
}
