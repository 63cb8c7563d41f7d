// Package eval implements the prequential evaluation harness and the
// experiment runners that regenerate every table and figure of the paper's
// evaluation section: Table III (detector comparison on 24 streams under
// pmAUC/pmGM with ranks and timings), Figures 4-5 (Bonferroni-Dunn), Figures
// 6-7 (Bayesian signed tests), Figure 8 (local drift sweep), and Figure 9
// (imbalance-ratio robustness sweep).
package eval

import (
	"time"

	"rbmim/internal/classifier"
	"rbmim/internal/detectors"
	"rbmim/internal/metrics"
	"rbmim/internal/stream"
)

// PipelineConfig binds one stream to one detector for a prequential run.
type PipelineConfig struct {
	// Instances is the number of stream instances to process.
	Instances int
	// MetricWindow is the prequential window (paper: 1000).
	MetricWindow int
	// Seed drives the classifier initialization.
	Seed int64
	// DriftHorizon is the window (in instances) after a ground-truth drift
	// within which a signal counts as a true detection (default: 10% of the
	// stream or 5000, whichever is smaller).
	DriftHorizon int
	// Warmup is the initial training phase length during which the
	// classifier learns unconditionally (default: max(2000, Instances/5)).
	Warmup int
	// AdaptWindow is how many instances of training each Warning/Drift
	// signal buys the classifier (default: 2 * MetricWindow). Outside the
	// warmup and these windows the classifier is frozen — the paper's
	// framework couples classifier adaptation to the detector ("the
	// underlying classifier ... stopped being updated" when detectors
	// missed drifts), which is what makes detector quality visible in the
	// prequential metrics.
	AdaptWindow int
	// TrainContinuously disables the detector-gated freezing (for
	// ablations).
	TrainContinuously bool
	// Cooldown suppresses drift handling for this many instances after a
	// handled drift (default: MetricWindow/2). Without it, DDM-family
	// detectors re-trigger on the error spike of the freshly reset
	// classifier, entering a reset storm. The detector is also Reset after
	// each handled drift, as MOA's drift-handling wrappers do.
	Cooldown int
	// BlockSize is the prequential block length B: each iteration predicts
	// (and records metrics for) a block of up to B instances, then feeds the
	// block to the detector with detectors.UpdateBatch, handling each drift
	// at its own position (the detector is reset before it sees the rest of
	// the block) and training the classifier per instance in order. The
	// default 1 reproduces the classic per-instance test-then-train loop
	// exactly; larger blocks are the block-based prequential processing of
	// the online class-imbalance literature, at the cost of intra-block
	// staleness (predictions inside a block are made before the classifier
	// trains on the block's earlier instances).
	BlockSize int
}

func (c *PipelineConfig) fill() {
	if c.MetricWindow <= 0 {
		c.MetricWindow = 1000
	}
	if c.Warmup <= 0 {
		c.Warmup = c.Instances / 5
		if c.Warmup < 2000 {
			c.Warmup = 2000
		}
	}
	if c.AdaptWindow <= 0 {
		c.AdaptWindow = 2 * c.MetricWindow
	}
	if c.Cooldown <= 0 {
		c.Cooldown = c.MetricWindow / 2
	}
	if c.BlockSize <= 0 {
		c.BlockSize = 1
	}
}

// Result summarizes one prequential run.
type Result struct {
	// Detector is the detector name.
	Detector string
	// Stream is the benchmark name.
	Stream string
	// PMAUC and PMGM are the prequential metrics in [0, 100].
	PMAUC float64
	PMGM  float64
	// Accuracy and Kappa are auxiliary prequential metrics in [0, 100].
	Accuracy float64
	Kappa    float64
	// Signals is the list of instance indices where drift was signalled.
	Signals []int
	// Warnings counts the Warning states the detector emitted over the run.
	// Warnings buy no adaptation (see PipelineConfig.AdaptWindow) but are a
	// cheap chattiness diagnostic next to FalseAlarms.
	Warnings int
	// DetectorSeconds is the cumulative wall time spent inside
	// Detector.Update ("test + self-update" time of Table III).
	DetectorSeconds float64
	// AdaptSeconds is the cumulative wall time spent adapting the
	// classifier after drift signals.
	AdaptSeconds float64
	// Instances processed.
	Instances int
	// Drift scoring against ground truth (when the stream provides it).
	TruePositives int
	FalseAlarms   int
	MissedDrifts  int
	// MeanDelay is the average detection delay in instances over detected
	// drifts (-1 when no ground truth or nothing detected).
	MeanDelay float64
}

// RunPipeline executes the prequential test-then-train loop in blocks of
// PipelineConfig.BlockSize: predict and record metrics for a block, then
// feed it to the detector with detectors.UpdateBatch and, per instance in
// order, adapt the classifier on each drift signal as UpdateBatch returns it
// and train it while in warmup or inside a detector-opened adaptation window
// (see PipelineConfig.AdaptWindow). BlockSize 1 is exactly the classic
// per-instance loop.
func RunPipeline(s stream.Stream, det detectors.Detector, cfg PipelineConfig) Result {
	cfg.fill()
	schema := s.Schema()
	tree := classifier.NewPerceptronTree(schema.Features, schema.Classes, cfg.Seed)
	preq := metrics.NewPrequential(schema.Classes, cfg.MetricWindow)
	res := Result{Detector: det.Name(), Stream: "", Instances: cfg.Instances}

	var detTime, adaptTime time.Duration
	trainUntil := cfg.Warmup
	coolUntil := 0
	// Recent-instance ring used to rebuild the classifier on drift signals
	// (the MOA background-learner pattern: a false alarm costs little
	// because the replacement is retrained on the recent window). The ring
	// owns its feature buffers: X is copied in (slot capacity reused, so the
	// steady state allocates nothing), which keeps the replay window intact
	// even if a stream implementation reuses the backing arrays it emits.
	// Today's generators all allocate a fresh X per Next (audited:
	// internal/synth, internal/stream wrappers, internal/realworld), so the
	// copy is pure insurance — but replay integrity should not depend on an
	// unstated contract with every future stream.
	ring := make([]stream.Instance, 0, 2*cfg.MetricWindow)
	ringPos := 0
	// Block staging. Scores returned by Predict view per-leaf scratch that
	// the next Predict may overwrite, so each block observation gets its own
	// row of a flat scores slab.
	B := cfg.BlockSize
	blockIns := make([]stream.Instance, B)
	blockObs := make([]detectors.Observation, B)
	blockStates := make([]detectors.State, B)
	scoresSlab := make([]float64, B*schema.Classes)
	for base := 0; base < cfg.Instances; base += B {
		n := B
		if rem := cfg.Instances - base; rem < n {
			n = rem
		}
		// Test phase: predict and record metrics for the whole block. The
		// block holds instances across Next calls, so each slot keeps a
		// defensive copy of X (same ownership contract as the ring below) —
		// a stream that reuses its backing arrays must not be able to
		// rewrite the block behind the detector's and classifier's backs.
		for j := 0; j < n; j++ {
			copyInstance(&blockIns[j], s.Next())
			in := blockIns[j]
			pred, scores := tree.Predict(in.X)
			preq.Add(in.Y, pred, scores)
			row := scoresSlab[j*schema.Classes : (j+1)*schema.Classes]
			copy(row, scores)
			blockObs[j] = detectors.Observation{X: in.X, TrueClass: in.Y, Predicted: pred, Scores: row}
		}
		// Detector phase ("test + self-update" time of Table III), then
		// handling + train phase, per instance in block order. UpdateBatch
		// returns right after each drift, so the drift is handled — classes
		// read, detector reset — before the detector sees the rest of the
		// block.
		next := 0
		for j := 0; j < n; j++ {
			if j == next {
				t0 := time.Now()
				next += detectors.UpdateBatch(det, blockObs[j:n], blockStates[j:n])
				detTime += time.Since(t0)
			}
			i := base + j
			in := blockIns[j]
			switch blockStates[j] {
			case detectors.Drift:
				if i >= coolUntil {
					res.Signals = append(res.Signals, i)
					t1 := time.Now()
					adaptClassifier(tree, det, ring)
					adaptTime += time.Since(t1)
					det.Reset()
					coolUntil = i + cfg.Cooldown
					if i+cfg.AdaptWindow > trainUntil {
						trainUntil = i + cfg.AdaptWindow
					}
				}
			case detectors.Warning:
				// Warnings are counted but buy no adaptation (and therefore
				// no training), so chatty detectors cannot subsidize a
				// frozen classifier with a stream of warnings.
				res.Warnings++
			}
			if cfg.TrainContinuously || i < trainUntil {
				tree.Train(in.X, in.Y)
			}
			if len(ring) < cap(ring) {
				ring = append(ring, in.Clone())
			} else if cap(ring) > 0 {
				copyInstance(&ring[ringPos], in)
				ringPos = (ringPos + 1) % cap(ring)
			}
		}
	}
	preq.Finish()
	res.PMAUC = preq.PMAUC()
	res.PMGM = preq.PMGM()
	res.Accuracy = preq.Accuracy()
	res.Kappa = preq.Kappa()
	res.DetectorSeconds = detTime.Seconds()
	res.AdaptSeconds = adaptTime.Seconds()
	scoreDrifts(&res, s, cfg)
	return res
}

// copyInstance overwrites a block or ring slot with a defensive copy of in,
// reusing the slot's X buffer when it is large enough so the steady state
// allocates nothing.
func copyInstance(slot *stream.Instance, in stream.Instance) {
	if cap(slot.X) >= len(in.X) {
		slot.X = slot.X[:len(in.X)]
	} else {
		slot.X = make([]float64, len(in.X))
	}
	copy(slot.X, in.X)
	slot.Y = in.Y
	slot.Weight = in.Weight
}

// adaptClassifier applies the drift signal to the base learner: a local
// (class-attributed) drift resets only the affected classes, a global one
// rebuilds the tree. In both cases the fresh parts are replayed over the
// recent-instance ring, mirroring MOA's background-learner replacement —
// this keeps the cost of a false alarm low while still letting a true
// detection re-learn the new concept quickly.
func adaptClassifier(tree *classifier.PerceptronTree, det detectors.Detector, ring []stream.Instance) {
	const replayEpochs = 3
	if attr, ok := det.(detectors.ClassAttributor); ok {
		if classes := attr.DriftClasses(); len(classes) > 0 && len(classes) < tree.Classes() {
			// Warm local adaptation: keep the tree and all weights. The
			// other classes' knowledge is intact, the multiclass perceptron
			// scores are relative (a hard per-class reset would destroy
			// calibration), and the affected classes relearn from the fresh
			// post-drift instances that the adaptation window lets in —
			// replaying the ring here would feed them pre-drift data.
			return
		}
	}
	tree.Reset()
	for e := 0; e < replayEpochs; e++ {
		for _, in := range ring {
			tree.Train(in.X, in.Y)
		}
	}
}

// scoreDrifts matches drift signals against the stream's ground truth.
func scoreDrifts(res *Result, s stream.Stream, cfg PipelineConfig) {
	td, ok := s.(interface{ TrueDrifts() []stream.DriftEvent })
	if !ok {
		res.MeanDelay = -1
		return
	}
	events := td.TrueDrifts()
	if len(events) == 0 {
		res.MeanDelay = -1
		res.FalseAlarms = len(res.Signals)
		return
	}
	horizon := cfg.DriftHorizon
	if horizon <= 0 {
		horizon = cfg.Instances / 10
		if horizon > 5000 {
			horizon = 5000
		}
		if horizon < 500 {
			horizon = 500
		}
	}
	matched := make([]bool, len(events))
	delaySum, delayN := 0.0, 0
	for _, sig := range res.Signals {
		hit := false
		for ei, ev := range events {
			start := ev.Position
			end := ev.Position + ev.Width + horizon
			if sig >= start && sig <= end {
				hit = true
				if !matched[ei] {
					matched[ei] = true
					delaySum += float64(sig - start)
					delayN++
				}
				break
			}
		}
		if !hit {
			res.FalseAlarms++
		}
	}
	for _, m := range matched {
		if m {
			res.TruePositives++
		} else {
			res.MissedDrifts++
		}
	}
	if delayN > 0 {
		res.MeanDelay = delaySum / float64(delayN)
	} else {
		res.MeanDelay = -1
	}
}
