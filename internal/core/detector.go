package core

import (
	"fmt"
	"math"

	"rbmim/internal/detectors"
	"rbmim/internal/stats"
	"rbmim/internal/stream"
)

// Config parameterizes the RBM-IM drift detector (Table II, row "RBM-IM").
type Config struct {
	// Features and Classes describe the monitored stream.
	Features int
	Classes  int
	// BatchSize is the mini-batch length M (Table II: {25,50,75,100}).
	BatchSize int
	// HiddenFraction sets H = max(2, round(f*V)) when Hidden is zero.
	// Table II sweeps {0.25..1.0}; the default here is 2.0 — see the
	// calibration notes in EXPERIMENTS.md.
	HiddenFraction float64
	// Hidden overrides the hidden layer size directly when positive.
	Hidden int
	// LearningRate is eta. Table II sweeps {0.01..0.07}; the default here
	// is 0.5 (with momentum 0.9) because this implementation applies one
	// averaged CD update per mini-batch rather than the paper's
	// per-instance schedule, so it needs a much larger step for the same
	// per-batch learning progress. The detector must compress the current
	// concept quickly for drifts to register as reconstruction-error
	// escapes; the constants were selected by the detection-quality grid in
	// EXPERIMENTS.md (calibration notes).
	LearningRate float64
	// GibbsSteps is k of CD-k (Table II: {1..4}).
	GibbsSteps int
	// Alpha is the significance level shared by the trend prediction
	// interval and the Granger causality decision (default 0.05).
	Alpha float64
	// TrendWindow is the initial sliding-window length W in batches
	// (default 16); with AdaptiveWindow it is re-fit by ADWIN afterwards.
	TrendWindow int
	// AdaptiveWindow enables ADWIN-driven self-adaptation of W (default on
	// via NewDetector; the paper: "we propose to use a self-adaptive window
	// size").
	AdaptiveWindow bool
	// GrangerLags is the lag order of the causality test (default 1).
	GrangerLags int
	// WarmupBatches is the number of initial batches used purely for
	// training before detection starts. The paper trains on the first
	// batch only; the default here is 30 because the early CD updates
	// descend steeply and non-linearly, which the linear trend model would
	// otherwise misread as changes.
	WarmupBatches int
	// Seed drives all randomness.
	Seed int64
	// Momentum, Beta, CountDecay tune the RBM (see RBMConfig).
	Momentum   float64
	Beta       float64
	CountDecay float64
}

// withDefaults fills zero values with the paper-aligned defaults.
func (c Config) withDefaults() Config {
	if c.BatchSize <= 0 {
		c.BatchSize = 50
	}
	if c.HiddenFraction <= 0 {
		c.HiddenFraction = 2.0
	}
	if c.LearningRate <= 0 {
		c.LearningRate = 0.5
	}
	if c.Momentum == 0 {
		c.Momentum = 0.9
	}
	if c.GibbsSteps <= 0 {
		c.GibbsSteps = 1
	}
	if c.Alpha <= 0 {
		c.Alpha = 0.05
	}
	if c.TrendWindow < 4 {
		c.TrendWindow = 16
	}
	if c.GrangerLags <= 0 {
		c.GrangerLags = 1
	}
	if c.WarmupBatches <= 0 {
		c.WarmupBatches = 30
	}
	return c
}

// classMonitor holds the per-class detection state: the sliding trend of the
// class's reconstruction error, the ADWIN that adapts the window, and the
// retained trend history for the Granger test. The error series is updated
// only on batches in which the class appears (Eq. 27 is computed over the
// class's instances in the current mini-batch), so minority classes form
// sparse but *fresh* series — every point reflects the newest instances of
// that class, which is what makes local minority drifts visible.
type classMonitor struct {
	trend   *stats.SlidingTrend
	adwin   *stats.ADWIN
	history []float64 // recent trend slopes for the causality test
	batches int       // class-present batches since (re)start
	lastErr float64
	// accSum/accCount accumulate the class's reconstruction errors across
	// batches until at least minPointSupport instances back a series point,
	// so extreme-minority series stay low-noise without losing freshness.
	accSum   float64
	accCount int
	// pending marks that the previous series point already escaped the
	// prediction interval: a drift is only confirmed on two consecutive
	// escapes, which a level shift produces and isolated noise does not.
	pending bool
}

// minPointSupport is the minimum number of class instances backing one
// reconstruction-error series point.
const minPointSupport = 3

// Detector is RBM-IM. It implements detectors.Detector and
// detectors.ClassAttributor so the evaluation harness treats it exactly like
// the baselines while exposing local (per-class) drift attribution.
type Detector struct {
	cfg    Config
	rbm    *RBM
	scaler *stream.Scaler
	// batchX holds BatchSize preallocated rows (views into batchBuf) that
	// are scaled into in place; batchN counts the filled rows. Together with
	// the struct-owned scratch below this keeps steady-state Update calls
	// free of heap allocations.
	batchX   [][]float64
	batchBuf []float64
	batchY   []int
	batchN   int
	monitor  []*classMonitor
	batches  int
	drifted  []int
	// historyCap bounds the retained per-class trend history: two Granger
	// windows.
	historyCap int
	// Per-batch scratch: the batched per-instance reconstruction errors,
	// per-class error sums/counts, and the regression buffers of
	// trendCandidate.
	errs      []float64
	errSums   []float64
	errCounts []int
	xsScratch []float64
	vScratch  []float64
	// tcrit caches the prediction-interval critical value of
	// trendCandidate by degrees of freedom (0 = not computed yet). It is a
	// function of Config alone, so it is neither checkpointed nor cleared
	// by Reset.
	tcrit []float64
	// Checkpoint scratch (state.go): the encoded payload and the framed
	// snapshot, reused so periodic SaveState calls are allocation-free.
	stateScratch []byte
	frameScratch []byte
	// Drift flight recorder (flightrecorder.go): a ring of recent per-class
	// detection samples and the record snapshotted at the last confirmed
	// drift. Process-local observability, excluded from SaveState.
	recorder  []DriftSample
	recHead   int
	recLen    int
	lastDrift *DriftRecord
}

var _ detectors.Detector = (*Detector)(nil)
var _ detectors.ClassAttributor = (*Detector)(nil)

// NewDetector builds an RBM-IM detector for the given stream schema.
func NewDetector(cfg Config) (*Detector, error) {
	cfg = cfg.withDefaults()
	if cfg.Features < 1 || cfg.Classes < 2 {
		return nil, fmt.Errorf("core: detector needs features >= 1 and classes >= 2, got %d/%d", cfg.Features, cfg.Classes)
	}
	hidden := cfg.Hidden
	if hidden <= 0 {
		hidden = int(math.Round(cfg.HiddenFraction * float64(cfg.Features)))
		if hidden < 2 {
			hidden = 2
		}
	}
	rbm, err := NewRBM(RBMConfig{
		Visible:      cfg.Features,
		Hidden:       hidden,
		Classes:      cfg.Classes,
		LearningRate: cfg.LearningRate,
		GibbsSteps:   cfg.GibbsSteps,
		Momentum:     cfg.Momentum,
		Beta:         cfg.Beta,
		CountDecay:   cfg.CountDecay,
		Seed:         cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	d := &Detector{
		cfg:        cfg,
		rbm:        rbm,
		scaler:     stream.NewScaler(stream.Schema{Features: cfg.Features, Classes: cfg.Classes}),
		historyCap: 2 * cfg.TrendWindow,
	}
	d.batchBuf = make([]float64, cfg.BatchSize*cfg.Features)
	d.batchX = make([][]float64, cfg.BatchSize)
	for i := range d.batchX {
		d.batchX[i] = d.batchBuf[i*cfg.Features : (i+1)*cfg.Features : (i+1)*cfg.Features]
	}
	d.batchY = make([]int, cfg.BatchSize)
	d.errs = make([]float64, cfg.BatchSize)
	// Pre-grow the RBM's batch-major matrices for the configured mini-batch
	// so the detector never allocates on the hot path, first batch included.
	rbm.ensureBatch(cfg.BatchSize)
	d.errSums = make([]float64, cfg.Classes)
	d.errCounts = make([]int, cfg.Classes)
	// The adaptive window is clamped to 4*TrendWindow (and LoadState
	// rejects wider ones), so these never grow after construction.
	d.xsScratch = make([]float64, 0, 4*cfg.TrendWindow)
	d.vScratch = make([]float64, 0, 4*cfg.TrendWindow)
	d.tcrit = make([]float64, 4*cfg.TrendWindow-1)
	d.recorder = make([]DriftSample, flightRecorderDepth)
	d.monitor = make([]*classMonitor, cfg.Classes)
	for k := range d.monitor {
		d.monitor[k] = &classMonitor{
			trend:   stats.NewSlidingTrend(cfg.TrendWindow),
			adwin:   stats.NewADWIN(0.002),
			history: make([]float64, 0, d.historyCap),
		}
	}
	return d, nil
}

// Name returns "RBM-IM".
func (d *Detector) Name() string { return "RBM-IM" }

// Config returns the resolved configuration.
func (d *Detector) Config() Config { return d.cfg }

// DriftClasses lists the classes attributed to the most recent drift signal.
func (d *Detector) DriftClasses() []int { return d.drifted }

// Reset clears the detection statistics. The trained RBM is retained: the
// paper's detector "re-trains itself in an online fashion" rather than being
// re-initialized by the harness.
func (d *Detector) Reset() {
	for _, m := range d.monitor {
		m.trend = stats.NewSlidingTrend(d.cfg.TrendWindow)
		m.adwin = stats.NewADWIN(0.002)
		m.history = m.history[:0]
		m.batches = 0
		m.lastErr = 0
		m.accSum, m.accCount = 0, 0
		m.pending = false
	}
	d.drifted = nil
	d.batchN = 0
	d.recHead, d.recLen = 0, 0
	d.lastDrift = nil
}

// Update consumes one observation; detection work happens when a mini-batch
// completes.
func (d *Detector) Update(o detectors.Observation) detectors.State {
	if len(o.X) != d.cfg.Features {
		// Fail loudly: silently padding or truncating would train the RBM
		// on garbage (the batch rows are fixed at cfg.Features wide).
		panic(fmt.Sprintf("core: observation has %d features, detector configured for %d", len(o.X), d.cfg.Features))
	}
	d.scaler.Observe(o.X)
	d.scaler.Scale(o.X, d.batchX[d.batchN])
	d.batchY[d.batchN] = o.TrueClass
	d.batchN++
	if d.batchN < d.cfg.BatchSize {
		return detectors.None
	}
	state := d.processBatch()
	d.batchN = 0
	return state
}

// UpdateBatch is detectors.UpdateBatch on d: the sequential Update loop,
// returning the count consumed right after the first Drift.
func (d *Detector) UpdateBatch(obs []detectors.Observation, states []detectors.State) int {
	return detectors.UpdateBatch(d, obs, states)
}

// processBatch trains the RBM on the completed mini-batch and runs the
// per-class trend + Granger drift tests.
func (d *Detector) processBatch() detectors.State {
	d.batches++
	// The unscored variant skips the pre-update error pass behind
	// TrainBatch's return value: Eq. 27 is evaluated below against the
	// updated weights, so that pass would be discarded work.
	d.rbm.TrainBatchUnscored(d.batchX, d.batchY)
	if d.batches <= d.cfg.WarmupBatches {
		return detectors.None
	}
	d.drifted = nil
	warning := false
	// Per-class mean reconstruction error over the instances of the class
	// in this mini-batch (Eq. 27). Classes absent from the batch get no
	// update, so minority series are sparse but always fresh. Scoring runs
	// batch-major (ScoreBatch: three blocked layer passes for the whole
	// mini-batch, bit-identical to per-instance ReconstructionError calls).
	sums := d.errSums
	counts := d.errCounts
	clear(sums)
	clear(counts)
	d.rbm.ScoreBatch(d.batchX, d.batchY, d.errs)
	for i := range d.batchX {
		y := d.batchY[i]
		if y < 0 || y >= d.cfg.Classes {
			continue
		}
		sums[y] += d.errs[i]
		counts[y]++
	}
	for k, m := range d.monitor {
		if counts[k] == 0 {
			continue
		}
		m.accSum += sums[k]
		m.accCount += counts[k]
		if m.accCount < minPointSupport {
			continue
		}
		r := m.accSum / float64(m.accCount)
		m.accSum, m.accCount = 0, 0
		m.lastErr = r
		m.batches++
		d.recordSample(k, r, m)

		// Candidate test: does the new error escape the trend's prediction
		// interval?
		candidate, escaped := d.trendCandidate(m, r)
		if escaped {
			warning = true
		}

		if candidate {
			if !m.pending {
				// First escape: arm the class but hold the point out of the
				// statistics, so the next point is tested against the same
				// pre-jump window. A real level shift escapes again; an
				// isolated noise spike does not.
				m.pending = true
				continue
			}
			// Second consecutive escape: consult the causality test —
			// Granger between the previous and current halves of the trend
			// history on first differences. A rejected causality hypothesis
			// (past no longer forecasts present) confirms the drift.
			if d.grangerConfirms(m) {
				d.drifted = append(d.drifted, k)
				// Restart this class's detection statistics; the RBM itself
				// keeps training online.
				m.trend = stats.NewSlidingTrend(d.cfg.TrendWindow)
				m.adwin = stats.NewADWIN(0.002)
				m.history = m.history[:0]
				m.batches = 0
				m.pending = false
				continue
			}
			// Causality holds: treat the escapes as explained variation and
			// absorb the point below.
		}
		m.pending = false

		// Feed the statistics so later tests compare against this window.
		if d.cfg.AdaptiveWindow {
			if m.adwin.Add(r) {
				// ADWIN shrank: adapt the trend window toward the
				// homogeneous suffix it found (bounded to sane sizes).
				w := m.adwin.Width()
				if w < 4 {
					w = 4
				}
				if w > 4*d.cfg.TrendWindow {
					w = 4 * d.cfg.TrendWindow
				}
				m.trend.SetWindow(w)
			}
		}
		m.trend.Add(r)
		// Fixed-capacity history: shift-and-append instead of reslicing the
		// tail, so the backing array is reused forever.
		if len(m.history) == d.historyCap {
			copy(m.history, m.history[1:])
			m.history = m.history[:d.historyCap-1]
		}
		m.history = append(m.history, m.trend.Slope())
	}
	if len(d.drifted) > 0 {
		d.lastDrift = d.buildDriftRecord()
		return detectors.Drift
	}
	if warning {
		return detectors.Warning
	}
	return detectors.None
}

// trendCandidate checks whether the new reconstruction error r escapes the
// two-sided prediction interval of the class's trend regression at a
// Bonferroni-corrected significance (alpha split across the monitored
// classes, since each batch runs one test per class). Both directions count:
// a concept change usually makes previously-learned prototypes reconstruct
// worse, but a class relocating into an already well-modeled region shows up
// as a sharp *decrease* — the paper's trend analysis is
// direction-agnostic. A small relative magnitude floor guards against
// micro-escapes when the interval is degenerately tight. Returns candidate
// (consult the causality test) and escaped (the observation lay outside the
// interval).
func (d *Detector) trendCandidate(m *classMonitor, r float64) (candidate, escaped bool) {
	n := m.trend.Count()
	if n < 5 {
		return false, false
	}
	vals := m.trend.ValuesInto(d.vScratch)
	d.vScratch = vals[:0]
	xs := d.xsScratch[:n]
	for i := range xs {
		xs[i] = float64(i)
	}
	alphaHat, betaHat, rss := stats.OLS(xs, vals)
	dfree := n - 2
	s2 := rss / float64(dfree)
	// Prediction at the next time index.
	x0 := float64(n)
	xBar := (x0 - 1) / 2
	var sxx float64
	for _, x := range xs {
		dx := x - xBar
		sxx += dx * dx
	}
	if sxx <= 0 {
		return false, false
	}
	pred := alphaHat + betaHat*x0
	se := math.Sqrt(s2 * (1 + 1/float64(n) + (x0-xBar)*(x0-xBar)/sxx))
	if se < 1e-9 {
		se = 1e-9
	}
	tcrit := d.tcritAt(dfree)
	jump := math.Abs(r - pred)
	floor := 0.05 * m.trend.Mean()
	if floor < 1e-6 {
		floor = 1e-6
	}
	escaped = jump > tcrit*se
	candidate = escaped && jump > floor
	return candidate, escaped
}

// tcritAt returns the two-sided critical value of trendCandidate's
// prediction interval at dfree degrees of freedom, with alpha split across
// the classes, computing it on first use. dfree is at most
// 4*TrendWindow-2, the widest window the clamp allows.
func (d *Detector) tcritAt(dfree int) float64 {
	t := d.tcrit[dfree]
	if t == 0 {
		effAlpha := d.cfg.Alpha / float64(d.cfg.Classes)
		t = stats.StudentTQuantile(1-effAlpha/2, float64(dfree))
		d.tcrit[dfree] = t
	}
	return t
}

// grangerConfirms runs the first-difference Granger causality test between
// the older and newer halves of the class's retained trend history,
// returning true when the causality hypothesis is rejected (drift).
func (d *Detector) grangerConfirms(m *classMonitor) bool {
	h := m.history
	half := len(h) / 2
	need := 2*d.cfg.GrangerLags + 3
	if half < need {
		// Not enough history for the causality test yet: stay conservative
		// and keep gathering evidence (a short refractory period after each
		// restart, matching the paper's "first batch trains the detector").
		return false
	}
	prev := h[:half]
	cur := h[len(h)-half:]
	res, err := stats.GrangerCausality(prev, cur, d.cfg.GrangerLags, d.cfg.Alpha)
	if err != nil {
		return true
	}
	return !res.Causal
}

// LastErrors returns the most recent per-class reconstruction errors
// (diagnostics, examples, and the local-drift demos).
func (d *Detector) LastErrors() []float64 {
	out := make([]float64, d.cfg.Classes)
	for k, m := range d.monitor {
		out[k] = m.lastErr
	}
	return out
}

// TrendSlopes returns the current per-class trend slopes Qr(t)^m (Eq. 28).
func (d *Detector) TrendSlopes() []float64 {
	out := make([]float64, d.cfg.Classes)
	for k, m := range d.monitor {
		out[k] = m.trend.Slope()
	}
	return out
}

// RBM exposes the underlying network (examples and diagnostics).
func (d *Detector) RBM() *RBM { return d.rbm }
