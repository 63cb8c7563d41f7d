package eval

import (
	"reflect"
	"strings"
	"testing"

	"rbmim/internal/classifier"
	"rbmim/internal/detectors"
	"rbmim/internal/metrics"
	"rbmim/internal/stream"
	"rbmim/internal/synth"
)

// runPipelineReference is a frozen copy of the pre-block-refactor
// RunPipeline (the per-instance test-then-train loop, without block staging
// or defensive ring copies), kept as the semantic reference that
// RunPipeline with BlockSize 1 must reproduce byte for byte. Warnings are
// counted identically so the Result structs compare whole.
func runPipelineReference(s stream.Stream, det detectors.Detector, cfg PipelineConfig) Result {
	cfg.fill()
	schema := s.Schema()
	tree := classifier.NewPerceptronTree(schema.Features, schema.Classes, cfg.Seed)
	preq := metrics.NewPrequential(schema.Classes, cfg.MetricWindow)
	res := Result{Detector: det.Name(), Stream: "", Instances: cfg.Instances}

	trainUntil := cfg.Warmup
	coolUntil := 0
	ring := make([]stream.Instance, 0, 2*cfg.MetricWindow)
	ringPos := 0
	for i := 0; i < cfg.Instances; i++ {
		in := s.Next()
		pred, scores := tree.Predict(in.X)
		preq.Add(in.Y, pred, scores)

		obs := detectors.Observation{X: in.X, TrueClass: in.Y, Predicted: pred, Scores: scores}
		state := det.Update(obs)

		switch state {
		case detectors.Drift:
			if i >= coolUntil {
				res.Signals = append(res.Signals, i)
				adaptClassifier(tree, det, ring)
				det.Reset()
				coolUntil = i + cfg.Cooldown
				if i+cfg.AdaptWindow > trainUntil {
					trainUntil = i + cfg.AdaptWindow
				}
			}
		case detectors.Warning:
			res.Warnings++
		}
		if cfg.TrainContinuously || i < trainUntil {
			tree.Train(in.X, in.Y)
		}
		if len(ring) < cap(ring) {
			ring = append(ring, in)
		} else if cap(ring) > 0 {
			ring[ringPos] = in
			ringPos = (ringPos + 1) % cap(ring)
		}
	}
	preq.Finish()
	res.PMAUC = preq.PMAUC()
	res.PMGM = preq.PMGM()
	res.Accuracy = preq.Accuracy()
	res.Kappa = preq.Kappa()
	scoreDrifts(&res, s, cfg)
	return res
}

// stripTimings zeroes the wall-clock fields that legitimately differ
// between two otherwise identical runs.
func stripTimings(r Result) Result {
	r.DetectorSeconds = 0
	r.AdaptSeconds = 0
	return r
}

// TestBlockSize1ByteIdenticalToReferenceLoop is the refactor's anchor: on
// fixed-seed benchmark streams, for both a trainable (RBM-IM) and a
// statistical (RDDM) detector, RunPipeline with BlockSize 1 must produce a
// Result identical to the frozen pre-refactor loop in every non-timing
// field — metrics, signal positions, warnings, and drift scoring.
func TestBlockSize1ByteIdenticalToReferenceLoop(t *testing.T) {
	buildDrift := func() stream.Stream {
		before, err := synth.NewRBF(synth.Config{Features: 10, Classes: 4, Seed: 5}, 3, 0.07)
		if err != nil {
			t.Fatal(err)
		}
		after, err := synth.NewRBF(synth.Config{Features: 10, Classes: 4, Seed: 77}, 3, 0.07)
		if err != nil {
			t.Fatal(err)
		}
		return stream.NewDriftStream(before, after, stream.Sudden, 6000, 0, 1)
	}
	buildBench := func() stream.Stream {
		spec, err := ArtificialByName("RBF5")
		if err != nil {
			t.Fatal(err)
		}
		s, _, err := spec.Build(BuildOptions{Scale: 0.01, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	cases := []struct {
		name      string
		build     func() stream.Stream
		detector  int // PaperDetectors index
		instances int
	}{
		{"RBM-IM/driftstream", buildDrift, 5, 12000},
		{"RDDM/driftstream", buildDrift, 1, 12000},
		{"RBM-IM/RBF5", buildBench, 5, 8000},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := PipelineConfig{Instances: tc.instances, MetricWindow: 500, Seed: 1, BlockSize: 1}
			features := tc.build().Schema().Features
			classes := tc.build().Schema().Classes
			want := runPipelineReference(tc.build(), PaperDetectors(features)[tc.detector].New(classes), cfg)
			got := RunPipeline(tc.build(), PaperDetectors(features)[tc.detector].New(classes), cfg)
			if !reflect.DeepEqual(stripTimings(got), stripTimings(want)) {
				t.Fatalf("BlockSize 1 diverges from the reference loop:\n got %+v\nwant %+v", stripTimings(got), stripTimings(want))
			}
		})
	}
}

// TestBlockedPipelineDetectsDrift smoke-tests the batched path end to end:
// with a large block the pipeline must still detect an injected sudden
// drift and produce in-range metrics.
func TestBlockedPipelineDetectsDrift(t *testing.T) {
	before, err := synth.NewRBF(synth.Config{Features: 10, Classes: 4, Seed: 5}, 3, 0.07)
	if err != nil {
		t.Fatal(err)
	}
	after, err := synth.NewRBF(synth.Config{Features: 10, Classes: 4, Seed: 77}, 3, 0.07)
	if err != nil {
		t.Fatal(err)
	}
	s := stream.NewDriftStream(before, after, stream.Sudden, 6000, 0, 1)
	det := PaperDetectors(10)[5].New(4) // RBM-IM
	res := RunPipeline(s, det, PipelineConfig{
		Instances: 12000, MetricWindow: 500, Seed: 1, BlockSize: 256,
		// Block semantics shift signal timing relative to the per-instance
		// loop; allow the same post-drift slack the detector-level tests use.
		DriftHorizon: 4000,
	})
	if res.PMAUC <= 0 || res.PMAUC > 100 {
		t.Fatalf("pmAUC out of range: %v", res.PMAUC)
	}
	if res.TruePositives+res.MissedDrifts != 1 {
		t.Fatalf("ground truth has 1 drift, scored TP=%d missed=%d", res.TruePositives, res.MissedDrifts)
	}
	if res.TruePositives != 1 {
		t.Fatalf("blocked pipeline missed the sudden drift (signals %v)", res.Signals)
	}
}

// TestBlockedPipelineResetsAtEachDrift pins where a block's drifts are
// handled: at their own position, so the detector is reset before it sees
// the rest of the block. The stub drifts every 700th Update since its last
// Reset, so its signals fall at the same indices for every block size only
// when each reset lands right after its drift.
func TestBlockedPipelineResetsAtEachDrift(t *testing.T) {
	const every, instances = 700, 5000
	var want []int
	for i := every - 1; i < instances; i += every {
		want = append(want, i)
	}
	for _, block := range []int{1, 7, 256} {
		gen, err := synth.NewRBF(synth.Config{Features: 8, Classes: 3, Seed: 4}, 3, 0.07)
		if err != nil {
			t.Fatal(err)
		}
		res := RunPipeline(gen, &driftSinceReset{every: every},
			PipelineConfig{Instances: instances, MetricWindow: 500, Seed: 2, BlockSize: block})
		if !reflect.DeepEqual(res.Signals, want) {
			t.Fatalf("BlockSize %d: signals %v, want %v", block, res.Signals, want)
		}
	}
}

// driftSinceReset emits Drift on every every-th Update since its last
// Reset.
type driftSinceReset struct{ since, every int }

func (d *driftSinceReset) Update(detectors.Observation) detectors.State {
	d.since++
	if d.since%d.every == 0 {
		return detectors.Drift
	}
	return detectors.None
}

func (d *driftSinceReset) Reset()       { d.since = 0 }
func (d *driftSinceReset) Name() string { return "drift-since-reset" }

// reusingStream emits instances whose X always views the same backing
// array, mutated on every Next — the hostile stream contract the
// adaptation ring must survive.
type reusingStream struct {
	base stream.Stream
	buf  []float64
}

func (r *reusingStream) Schema() stream.Schema { return r.base.Schema() }
func (r *reusingStream) Next() stream.Instance {
	in := r.base.Next()
	if r.buf == nil {
		r.buf = make([]float64, len(in.X))
	}
	copy(r.buf, in.X)
	return stream.Instance{X: r.buf, Y: in.Y, Weight: in.Weight}
}

// periodicSignals deterministically emits Drift every driftEvery updates
// and Warning every warnEvery updates, forcing ring replays at known
// positions without depending on detector dynamics.
type periodicSignals struct {
	n                     int
	driftEvery, warnEvery int
}

func (d *periodicSignals) Update(detectors.Observation) detectors.State {
	d.n++
	if d.driftEvery > 0 && d.n%d.driftEvery == 0 {
		return detectors.Drift
	}
	if d.warnEvery > 0 && d.n%d.warnEvery == 0 {
		return detectors.Warning
	}
	return detectors.None
}

// Reset keeps the counter: the pipeline resets after every handled drift,
// and the stub must keep signalling deterministically across resets.
func (d *periodicSignals) Reset()       {}
func (d *periodicSignals) Name() string { return "periodic" }

// TestRingSurvivesMutatedStreamBuffers is the satellite regression test: a
// stream that mutates the X it returned must not corrupt drift-replay. The
// run over the buffer-reusing stream must equal the run over the clean
// stream exactly — before the ring copied defensively, the replay trained
// the rebuilt classifier on 2*MetricWindow copies of the newest instance.
func TestRingSurvivesMutatedStreamBuffers(t *testing.T) {
	build := func() stream.Stream {
		s, err := synth.NewRBF(synth.Config{Features: 8, Classes: 3, Seed: 9}, 3, 0.07)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	// BlockSize 1 exercises the ring replay; BlockSize 8 additionally
	// exercises the block staging, which holds instances across Next calls
	// and must therefore also own its X buffers.
	for _, block := range []int{1, 8} {
		cfg := PipelineConfig{Instances: 9000, MetricWindow: 500, Seed: 2, BlockSize: block}
		clean := RunPipeline(build(), &periodicSignals{driftEvery: 3000}, cfg)
		hostile := RunPipeline(&reusingStream{base: build()}, &periodicSignals{driftEvery: 3000}, cfg)
		if len(clean.Signals) == 0 {
			t.Fatalf("BlockSize %d: no drift handled; the replay path was never exercised", block)
		}
		if !reflect.DeepEqual(stripTimings(clean), stripTimings(hostile)) {
			t.Fatalf("BlockSize %d: buffer-reusing stream corrupted the run:\n clean   %+v\n hostile %+v", block, stripTimings(clean), stripTimings(hostile))
		}
	}
}

// TestWarningsCounted pins the satellite accounting: Warning states land in
// Result.Warnings and surface in the Table III report.
func TestWarningsCounted(t *testing.T) {
	gen, err := synth.NewRBF(synth.Config{Features: 8, Classes: 3, Seed: 4}, 3, 0.07)
	if err != nil {
		t.Fatal(err)
	}
	res := RunPipeline(gen, &periodicSignals{warnEvery: 100}, PipelineConfig{Instances: 5000, MetricWindow: 500, Seed: 2})
	if res.Warnings != 50 {
		t.Fatalf("Result.Warnings = %d, want 50 (every 100th of 5000)", res.Warnings)
	}
	out := &Table3Output{
		Detectors: []string{"stub"},
		Rows: []Table3Row{{Stream: "s", Results: []Result{{
			Instances: 5000, Warnings: 50, PMAUC: 50, PMGM: 50,
		}}}},
		RanksAUC: []float64{1},
		RanksGM:  []float64{1},
	}
	var sb strings.Builder
	WriteTable3(&sb, out)
	if !strings.Contains(sb.String(), "warn/1k inst") || !strings.Contains(sb.String(), "10.00") {
		t.Fatalf("Table III output missing the warnings row (50 warnings / 5k = 10.00 per 1k):\n%s", sb.String())
	}
}
