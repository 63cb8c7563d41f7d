package rbmim

// Benchmarks of the core primitives, the detector ablations and the
// monitor:
//
//	go test -run xxx -bench=. -benchmem
//
// The paper's tables and figures are reproduced by cmd/driftbench, whose
// tier-1 test (cmd/driftbench/main_test.go) runs every -run mode at a tiny
// scale; allocation claims are pinned by testing.AllocsPerRun tests, not by
// the -benchmem columns here.

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"rbmim/internal/core"
	"rbmim/internal/detectors"
	"rbmim/internal/eval"
	"rbmim/internal/monitor"
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

// BenchmarkMonitorIngest measures multi-stream throughput of the sharded
// Monitor at increasing shard counts: 64 independent streams fed from
// GOMAXPROCS producers via RunParallel. Throughput (ns/op = ns/observation)
// should improve with shards until the producer count or memory bandwidth
// saturates; cmd/monitorbench runs the same sweep at full scale with
// per-shard balance reporting.
func BenchmarkMonitorIngest(b *testing.B) {
	const (
		streams  = 64
		features = 20
		classes  = 5
	)
	gen, err := synth.NewRBF(synth.Config{Features: features, Classes: classes, Seed: 17}, 3, 0.08)
	if err != nil {
		b.Fatal(err)
	}
	obs := make([]detectors.Observation, 4096)
	for i := range obs {
		in := gen.Next()
		obs[i] = detectors.Observation{X: in.X, TrueClass: in.Y, Predicted: in.Y}
	}
	ids := make([]string, streams)
	for i := range ids {
		ids[i] = fmt.Sprintf("stream-%02d", i)
	}
	for _, shards := range []int{1, 2, 4, 8} {
		shards := shards
		b.Run(fmt.Sprintf("%dshards", shards), func(b *testing.B) {
			m, err := monitor.New(monitor.Config{
				Detector:  core.Config{Features: features, Classes: classes, Seed: 7},
				Shards:    shards,
				QueueSize: 4096,
			})
			if err != nil {
				b.Fatal(err)
			}
			var next atomic.Uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := int(next.Add(1))
				for pb.Next() {
					i++
					if err := m.Ingest(ids[i%streams], obs[i%len(obs)]); err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.StopTimer()
			m.Close()
		})
	}
}

// BenchmarkMonitorIngestSingleStream measures the per-observation overhead
// the Monitor adds over a bare detector (hashing, copy, channel hop) in the
// degenerate single-stream single-shard case.
func BenchmarkMonitorIngestSingleStream(b *testing.B) {
	gen, err := synth.NewRBF(synth.Config{Features: 20, Classes: 5, Seed: 17}, 3, 0.08)
	if err != nil {
		b.Fatal(err)
	}
	obs := make([]detectors.Observation, 4096)
	for i := range obs {
		in := gen.Next()
		obs[i] = detectors.Observation{X: in.X, TrueClass: in.Y, Predicted: in.Y}
	}
	m, err := monitor.New(monitor.Config{
		Detector:  core.Config{Features: 20, Classes: 5, Seed: 7},
		Shards:    1,
		QueueSize: 4096,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Ingest("only", obs[i%len(obs)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	m.Close()
}

// benchCountDetector is a near-free detector isolating the monitor's own
// ingestion path (hash, lock, slab copy, queue hop, shard dispatch) from
// detector cost.
type benchCountDetector struct{ n uint64 }

func (d *benchCountDetector) Update(detectors.Observation) detectors.State {
	d.n++
	return detectors.None
}
func (d *benchCountDetector) Reset()       {}
func (d *benchCountDetector) Name() string { return "count" }

// BenchmarkMonitorIngestBatch compares per-instance Ingest against
// IngestBatch at block 256 across 64 streams. ns/op is per 256-observation
// block; the ns/obs metric is comparable across sub-benches. The "overhead"
// variants host a near-free detector, isolating the monitor path that
// batching amortizes (one queue hop, one pooled slab, and one shard
// dispatch per block instead of 256); the "RBM-IM" variants show the same
// comparison under a real detector load. The -benchmem columns are per
// block and gate nothing; TestClientIngestAllocs (internal/server) pins the
// ingest path at zero allocations.
func BenchmarkMonitorIngestBatch(b *testing.B) {
	const (
		streams  = 64
		features = 20
		classes  = 5
		block    = 256
	)
	gen, err := synth.NewRBF(synth.Config{Features: features, Classes: classes, Seed: 17}, 3, 0.08)
	if err != nil {
		b.Fatal(err)
	}
	obs := make([]detectors.Observation, 4096)
	for i := range obs {
		in := gen.Next()
		obs[i] = detectors.Observation{X: in.X, TrueClass: in.Y, Predicted: in.Y}
	}
	ids := make([]string, streams)
	for i := range ids {
		ids[i] = fmt.Sprintf("stream-%02d", i)
	}
	newConfig := func(name string, queue int) monitor.Config {
		if name == "overhead" {
			return monitor.Config{
				NewDetector: func(string) (detectors.Detector, error) { return &benchCountDetector{}, nil },
				Shards:      4,
				QueueSize:   queue,
			}
		}
		cfg := monitor.Config{
			Detector:  core.Config{Features: features, Classes: classes, Seed: 7},
			Shards:    4,
			QueueSize: queue,
		}
		// The tele-off variant isolates the stage-histogram cost (queue-wait
		// stamps + detector timing) for the overhead table in EXPERIMENTS.md;
		// the default variants run at full telemetry, the production level.
		if name == "RBM-IM-tele-off" {
			cfg.Telemetry = TelemetryOff
		}
		return cfg
	}
	perObs := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/block, "ns/obs")
	}
	for _, name := range []string{"overhead", "RBM-IM", "RBM-IM-tele-off"} {
		name := name
		// Both modes bound the same number of in-flight observations (4096),
		// so backpressure engages identically and the pooled slabs actually
		// recycle; the timed region includes the Close drain, making ns/obs
		// a true end-to-end throughput figure rather than producer-side cost.
		b.Run(name+"/perInstance", func(b *testing.B) {
			m, err := monitor.New(newConfig(name, 4096))
			if err != nil {
				b.Fatal(err)
			}
			// Warm pools and detectors before measuring steady state.
			for s := 0; s < streams; s++ {
				for j := 0; j < block; j++ {
					if err := m.Ingest(ids[s], obs[j]); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id := ids[i%streams]
				base := (i * block) % len(obs)
				for j := 0; j < block; j++ {
					if err := m.Ingest(id, obs[base+j]); err != nil {
						b.Fatal(err)
					}
				}
			}
			m.Close()
			b.StopTimer()
			perObs(b)
		})
		b.Run(name+"/batch256", func(b *testing.B) {
			m, err := monitor.New(newConfig(name, 4096/block))
			if err != nil {
				b.Fatal(err)
			}
			for s := 0; s < streams; s++ {
				if err := m.IngestBatch(ids[s], obs[:block]); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				base := (i * block) % len(obs)
				if err := m.IngestBatch(ids[i%streams], obs[base:base+block]); err != nil {
					b.Fatal(err)
				}
			}
			m.Close()
			b.StopTimer()
			perObs(b)
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

// BenchmarkMonitorCheckpoint measures what state persistence costs the
// ingest path: the single-stream single-shard Ingest loop (the monitor's
// per-observation floor) with checkpointing off, against an in-memory store
// snapshotting every 100 ms and a filesystem store at the same cadence.
// Snapshots are serialized on the shard goroutine into pooled buffers and
// written by the async writer, so ns/obs should be statistically unchanged.
// The timed region includes Close, so B/op carries a fixed cost that falls
// with -benchtime.
func BenchmarkMonitorCheckpoint(b *testing.B) {
	gen, err := synth.NewRBF(synth.Config{Features: 20, Classes: 5, Seed: 17}, 3, 0.08)
	if err != nil {
		b.Fatal(err)
	}
	obs := make([]detectors.Observation, 4096)
	for i := range obs {
		in := gen.Next()
		obs[i] = detectors.Observation{X: in.X, TrueClass: in.Y, Predicted: in.Y}
	}
	modes := []struct {
		name  string
		store func(b *testing.B) monitor.Store
	}{
		{"off", func(*testing.B) monitor.Store { return nil }},
		{"mem", func(*testing.B) monitor.Store { return monitor.NewMemStore() }},
		{"fs", func(b *testing.B) monitor.Store {
			store, err := monitor.NewFSStore(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			return store
		}},
	}
	for _, mode := range modes {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			m, err := monitor.New(monitor.Config{
				Detector:   core.Config{Features: 20, Classes: 5, Seed: 7},
				Shards:     1,
				QueueSize:  4096,
				Checkpoint: monitor.CheckpointConfig{Store: mode.store(b), Interval: 100 * time.Millisecond},
			})
			if err != nil {
				b.Fatal(err)
			}
			// Warm the detector, pools, and checkpoint scratch.
			for i := 0; i < 512; i++ {
				if err := m.Ingest("only", obs[i%len(obs)]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := m.Ingest("only", obs[i%len(obs)]); err != nil {
					b.Fatal(err)
				}
			}
			m.Close() // the drain is part of the measured throughput
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/obs")
			if sn := m.Snapshot(); sn.CheckpointErrors != 0 {
				b.Fatalf("checkpoint errors during bench: %d", sn.CheckpointErrors)
			}
		})
	}
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
