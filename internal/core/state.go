package core

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"sync"

	"rbmim/internal/codec"
	"rbmim/internal/detectors"
	"rbmim/internal/stats"
	"rbmim/internal/stream"
)

// This file implements checkpointing for RBM-IM: a versioned, reflection-free
// binary snapshot of every piece of mutable detector state, with the hard
// guarantee that save → load → continue training is bit-identical to never
// stopping (pinned by state_test.go at CD-1 and CD-4, mid-mini-batch
// included). The persistent state is exactly:
//
//   - the RBM parameters (w, u, a, b, c), momentum buffers, decayed class
//     counts with their lazy scale/gain pair, and the RNG position;
//   - the online min-max scaler bounds;
//   - the partially filled mini-batch (scaled rows + labels);
//   - the per-class monitors (sliding trend, ADWIN, trend history, pending
//     flag, accumulators) and the detector's batch/drift counters.
//
// Everything else on the structs (batch matrices, gradient scratch,
// transposes, per-batch weight tables) is derived scratch and is rebuilt on
// demand after a load. LoadState is atomic: the receiver is only mutated
// after the entire snapshot decoded and validated, so a corrupt or truncated
// snapshot leaves the detector exactly as it was.

// countedSource is math/rand's lagged-Fibonacci generator, owned here so
// the RBM can count its draws and fill the CD-k uniforms in one tight loop.
// It yields exactly the sequence of rand.NewSource(seed) — every pinned
// random sequence in the repository is unchanged — and its draw count is
// what makes the RNG serializable: a snapshot stores the count, a restore
// re-seeds and replays that many draws.
//
// math/rand's source emits y[n] = y[n-607] + y[n-273] (mod 2^64) from a
// 607-word register it does not expose. Seeding therefore draws the first
// 607 outputs from a rand.NewSource(seed) and serves them as they are; each
// later output follows from the recurrence over the ring of the last 607.
type countedSource struct {
	// ring[n%rngLen] holds output n for the last rngLen outputs n, and the
	// seeded outputs 0..rngLen-1 until they are served.
	ring  [rngLen]uint64
	pos   int // calls % rngLen: the ring slot of the next output
	calls uint64
}

const (
	rngLen  = 607 // math/rand's register length: the long lag
	rngTap  = 273 // its short lag
	rngMask = 1<<63 - 1
)

func newCountedSource(seed int64) *countedSource {
	c := new(countedSource)
	c.Seed(seed)
	return c
}

// seeders recycles the math/rand sources that seed countedSource: a fresh
// one allocates a register as large as the ring it fills, once per RBM
// construction and restore.
var seeders sync.Pool

// Seed resets the stream to the start of rand.NewSource(seed)'s sequence.
func (c *countedSource) Seed(seed int64) {
	std, ok := seeders.Get().(rand.Source64)
	if ok {
		std.Seed(seed)
	} else {
		std = rand.NewSource(seed).(rand.Source64)
	}
	for i := range c.ring {
		c.ring[i] = std.Uint64()
	}
	seeders.Put(std)
	c.pos, c.calls = 0, 0
}

func (c *countedSource) Int63() int64 { return int64(c.Uint64() & rngMask) }

func (c *countedSource) Uint64() uint64 {
	i := c.pos
	y := c.ring[i]
	if c.calls >= rngLen {
		y += c.ring[tapSlot(i)]
		c.ring[i] = y
	}
	c.calls++
	if c.pos = i + 1; c.pos == rngLen {
		c.pos = 0
	}
	return y
}

// tapSlot is the ring slot of output n-rngTap when slot i holds output
// n-rngLen.
func tapSlot(i int) int {
	if i < rngTap {
		return i + rngLen - rngTap
	}
	return i - rngTap
}

// uniform is rand.Rand.Float64's map from one raw draw y to [0, 1], before
// its redraw rule: values of y&rngMask within 512 of 2^63 round to 1.0, and
// Float64 discards those and draws again.
func uniform(y uint64) float64 {
	return float64(int64(y&rngMask)) / (1 << 63)
}

// fillFloat64 fills dst with the values len(dst) successive calls of
// rand.Rand.Float64 over c would return, consuming the same raw draws (one
// per value, plus one per 1.0 redrawn). Past the seeded outputs it walks the
// ring in runs over which neither lag wraps, so each draw is one add, one
// store and one conversion.
func (c *countedSource) fillFloat64(dst []float64) {
	k := 0
	for k < len(dst) && c.calls < rngLen {
		if f := uniform(c.Uint64()); f != 1 {
			dst[k] = f
			k++
		}
	}
	i := c.pos
	for k < len(dst) {
		end, tap := rngTap, rngLen-rngTap
		if i >= rngTap {
			end, tap = rngLen, -rngTap
		}
		// m draws write at most m values, so d never overflows; a 1.0 is
		// written and then overwritten by the next draw's value.
		m := min(end-i, len(dst)-k)
		a := c.ring[i : i+m]
		b := c.ring[i+tap : i+tap+m]
		d := dst[k : k+m]
		kk := 0
		for t := range a {
			y := a[t] + b[t]
			a[t] = y
			f := uniform(y)
			d[kk] = f
			if f != 1 {
				kk++
			}
		}
		k += kk
		c.calls += uint64(m)
		if i += m; i == rngLen {
			i = 0
		}
	}
	c.pos = i
}

// skipTo re-seeds the source and replays it forward to the given draw count.
// Int63, Uint64 and fillFloat64 all advance the stream by one output per raw
// draw, so the replay lands on the identical state regardless of which mix
// of calls produced the count.
func (c *countedSource) skipTo(seed int64, calls uint64) {
	c.Seed(seed)
	for c.calls < calls {
		c.Uint64()
	}
}

// maxRNGReplay bounds the RNG position a snapshot may carry, because a
// restore replays that many raw draws (~2 ns each). 2^32 draws replay in
// roughly ten seconds and cover ~10^8 observations per stream at typical
// CD-k draw rates — far beyond the paper's stream lengths. Snapshots past
// the ceiling fail loudly rather than hang the loader; see DESIGN.md
// ("Checkpoint format") for the jump-ahead discussion.
const maxRNGReplay = 1 << 32

// encodeState appends the RBM's persistent state: the construction
// parameters (validated on load) followed by every mutable field.
func (r *RBM) encodeState(w *codec.Buffer) {
	c := r.cfg
	w.Int(c.Visible)
	w.Int(c.Hidden)
	w.Int(c.Classes)
	w.F64(c.LearningRate)
	w.Int(c.GibbsSteps)
	w.F64(c.Momentum)
	w.F64(c.Beta)
	w.F64(c.CountDecay)
	w.I64(c.Seed)
	w.F64s(r.w)
	w.F64s(r.u)
	w.F64s(r.a)
	w.F64s(r.b)
	w.F64s(r.c)
	w.F64s(r.dw)
	w.F64s(r.du)
	w.F64s(r.da)
	w.F64s(r.db)
	w.F64s(r.dc)
	w.F64s(r.classCounts)
	w.F64(r.countScale)
	w.F64(r.countGain)
	w.U64(r.src.calls)
}

// rbmStaged holds a fully decoded RBM state before it is applied.
type rbmStaged struct {
	w, u, a, b, c         []float64
	dw, du, da, db, dc    []float64
	classCounts           []float64
	countScale, countGain float64
	rngCalls              uint64
}

// decodeState reads and validates an RBM state against the receiver's
// configuration without touching the receiver.
func (r *RBM) decodeState(rd *codec.Reader) *rbmStaged {
	c := r.cfg
	if v := rd.Int(); rd.Err() == nil && v != c.Visible {
		rd.Fail("snapshot has %d visible neurons, RBM has %d", v, c.Visible)
	}
	if h := rd.Int(); rd.Err() == nil && h != c.Hidden {
		rd.Fail("snapshot has %d hidden neurons, RBM has %d", h, c.Hidden)
	}
	if z := rd.Int(); rd.Err() == nil && z != c.Classes {
		rd.Fail("snapshot has %d classes, RBM has %d", z, c.Classes)
	}
	if lr := rd.F64(); rd.Err() == nil && lr != c.LearningRate {
		rd.Fail("snapshot learning rate %v, RBM has %v", lr, c.LearningRate)
	}
	if k := rd.Int(); rd.Err() == nil && k != c.GibbsSteps {
		rd.Fail("snapshot CD-%d, RBM is CD-%d", k, c.GibbsSteps)
	}
	if m := rd.F64(); rd.Err() == nil && m != c.Momentum {
		rd.Fail("snapshot momentum %v, RBM has %v", m, c.Momentum)
	}
	if b := rd.F64(); rd.Err() == nil && b != c.Beta {
		rd.Fail("snapshot beta %v, RBM has %v", b, c.Beta)
	}
	if d := rd.F64(); rd.Err() == nil && d != c.CountDecay {
		rd.Fail("snapshot count decay %v, RBM has %v", d, c.CountDecay)
	}
	if s := rd.I64(); rd.Err() == nil && s != c.Seed {
		rd.Fail("snapshot seed %d, RBM has %d", s, c.Seed)
	}
	V, H, Z := c.Visible, c.Hidden, c.Classes
	st := &rbmStaged{
		w:           rd.F64sLen(V * H),
		u:           rd.F64sLen(H * Z),
		a:           rd.F64sLen(V),
		b:           rd.F64sLen(H),
		c:           rd.F64sLen(Z),
		dw:          rd.F64sLen(V * H),
		du:          rd.F64sLen(H * Z),
		da:          rd.F64sLen(V),
		db:          rd.F64sLen(H),
		dc:          rd.F64sLen(Z),
		classCounts: rd.F64sLen(Z),
		countScale:  rd.F64(),
		countGain:   rd.F64(),
		rngCalls:    rd.U64(),
	}
	if rd.Err() != nil {
		return nil
	}
	// The lazy decay pair lives in (floor, 1] x [1, 1/floor); anything else
	// means a corrupt snapshot that would silently skew Eq. 13.
	if !(st.countScale > 0 && st.countScale <= 1) || !(st.countGain >= 1) {
		rd.Fail("count scale/gain %v/%v outside the lazy-decay range", st.countScale, st.countGain)
		return nil
	}
	if st.rngCalls > maxRNGReplay {
		rd.Fail("RNG position %d exceeds the replay ceiling %d", st.rngCalls, uint64(maxRNGReplay))
		return nil
	}
	return st
}

// applyState installs a staged state, repositioning the RNG by replay. The
// batch matrices, transposes, and weight tables are derived scratch: they
// are invalidated (wuStale) or rebuilt on the next batch.
func (r *RBM) applyState(st *rbmStaged) {
	copy(r.w, st.w)
	copy(r.u, st.u)
	copy(r.a, st.a)
	copy(r.b, st.b)
	copy(r.c, st.c)
	copy(r.dw, st.dw)
	copy(r.du, st.du)
	copy(r.da, st.da)
	copy(r.db, st.db)
	copy(r.dc, st.dc)
	copy(r.classCounts, st.classCounts)
	r.countScale = st.countScale
	r.countGain = st.countGain
	r.src.skipTo(r.cfg.Seed, st.rngCalls)
	r.wuStale = true
}

// WeightChecksum returns an FNV-1a digest over the bit patterns of the
// learned parameters (w, u, a, b, c). Two detectors whose training histories
// are bit-identical — the checkpoint guarantee — have equal checksums; used
// by the kill-and-resume demos and tests.
func (r *RBM) WeightChecksum() uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	sum := uint64(offset)
	for _, s := range [][]float64{r.w, r.u, r.a, r.b, r.c} {
		for _, v := range s {
			bits := math.Float64bits(v)
			for i := 0; i < 8; i++ {
				sum ^= bits >> (8 * i) & 0xff
				sum *= prime
			}
		}
	}
	return sum
}

// detectorStaged holds a fully decoded Detector state before it is applied.
type detectorStaged struct {
	rbm      *rbmStaged
	scaler   *stream.Scaler
	batchBuf []float64
	batchY   []int
	batchN   int
	batches  int
	drifted  []int
	monitor  []*classMonitor
}

// encodeState appends the detector's complete persistent state (the frame
// payload behind SaveState).
func (d *Detector) encodeState(w *codec.Buffer) {
	c := d.cfg
	w.Int(c.Features)
	w.Int(c.Classes)
	w.Int(c.BatchSize)
	w.F64(c.HiddenFraction)
	w.Int(c.Hidden)
	w.F64(c.LearningRate)
	w.Int(c.GibbsSteps)
	w.F64(c.Alpha)
	w.Int(c.TrendWindow)
	w.Bool(c.AdaptiveWindow)
	w.Int(c.GrangerLags)
	w.Int(c.WarmupBatches)
	w.I64(c.Seed)
	w.F64(c.Momentum)
	w.F64(c.Beta)
	w.F64(c.CountDecay)

	d.rbm.encodeState(w)
	d.scaler.EncodeState(w)

	w.Int(d.batchN)
	w.F64s(d.batchBuf[:d.batchN*c.Features])
	w.Ints(d.batchY[:d.batchN])
	w.Int(d.batches)
	w.Ints(d.drifted)

	for _, m := range d.monitor {
		m.trend.EncodeState(w)
		m.adwin.EncodeState(w)
		w.F64s(m.history)
		w.Int(m.batches)
		w.F64(m.lastErr)
		w.F64(m.accSum)
		w.Int(m.accCount)
		w.Bool(m.pending)
	}
}

// decodeState reads and validates a full detector snapshot without touching
// the receiver.
func (d *Detector) decodeState(rd *codec.Reader) (*detectorStaged, error) {
	c := d.cfg
	checkInt := func(name string, want int) {
		if got := rd.Int(); rd.Err() == nil && got != want {
			rd.Fail("snapshot %s %d, detector has %d", name, got, want)
		}
	}
	checkF64 := func(name string, want float64) {
		if got := rd.F64(); rd.Err() == nil && got != want {
			rd.Fail("snapshot %s %v, detector has %v", name, got, want)
		}
	}
	checkInt("features", c.Features)
	checkInt("classes", c.Classes)
	checkInt("batch size", c.BatchSize)
	checkF64("hidden fraction", c.HiddenFraction)
	checkInt("hidden override", c.Hidden)
	checkF64("learning rate", c.LearningRate)
	checkInt("gibbs steps", c.GibbsSteps)
	checkF64("alpha", c.Alpha)
	checkInt("trend window", c.TrendWindow)
	if got := rd.Bool(); rd.Err() == nil && got != c.AdaptiveWindow {
		rd.Fail("snapshot adaptive-window %v, detector has %v", got, c.AdaptiveWindow)
	}
	checkInt("granger lags", c.GrangerLags)
	checkInt("warmup batches", c.WarmupBatches)
	if got := rd.I64(); rd.Err() == nil && got != c.Seed {
		rd.Fail("snapshot seed %d, detector has %d", got, c.Seed)
	}
	checkF64("momentum", c.Momentum)
	checkF64("beta", c.Beta)
	checkF64("count decay", c.CountDecay)
	if rd.Err() != nil {
		return nil, rd.Err()
	}

	st := &detectorStaged{}
	if st.rbm = d.rbm.decodeState(rd); rd.Err() != nil {
		return nil, rd.Err()
	}
	st.scaler = stream.NewScaler(stream.Schema{Features: c.Features, Classes: c.Classes})
	if err := st.scaler.DecodeState(rd); err != nil {
		return nil, err
	}

	st.batchN = rd.Int()
	if rd.Err() == nil && (st.batchN < 0 || st.batchN >= c.BatchSize) {
		rd.Fail("partial batch holds %d rows, batch size is %d", st.batchN, c.BatchSize)
	}
	if rd.Err() != nil {
		return nil, rd.Err()
	}
	st.batchBuf = rd.F64sLen(st.batchN * c.Features)
	st.batchY = rd.Ints()
	if rd.Err() == nil && len(st.batchY) != st.batchN {
		rd.Fail("partial batch has %d labels for %d rows", len(st.batchY), st.batchN)
	}
	st.batches = rd.Int()
	if rd.Err() == nil && st.batches < 0 {
		rd.Fail("negative batch counter %d", st.batches)
	}
	st.drifted = rd.Ints()
	for _, k := range st.drifted {
		if rd.Err() == nil && (k < 0 || k >= c.Classes) {
			rd.Fail("drifted class %d out of range", k)
		}
	}
	if rd.Err() != nil {
		return nil, rd.Err()
	}

	st.monitor = make([]*classMonitor, c.Classes)
	for k := range st.monitor {
		m := &classMonitor{
			trend: stats.NewSlidingTrend(c.TrendWindow),
			adwin: stats.NewADWIN(0.002),
		}
		if err := m.trend.DecodeState(rd); err != nil {
			return nil, err
		}
		if w := m.trend.Window(); w > 4*c.TrendWindow {
			rd.Fail("class %d trend window %d exceeds the %d clamp", k, w, 4*c.TrendWindow)
			return nil, rd.Err()
		}
		if err := m.adwin.DecodeState(rd); err != nil {
			return nil, err
		}
		hist := rd.F64s()
		if rd.Err() == nil && len(hist) > d.historyCap {
			rd.Fail("class %d history has %d entries, cap is %d", k, len(hist), d.historyCap)
		}
		m.batches = rd.Int()
		m.lastErr = rd.F64()
		m.accSum = rd.F64()
		m.accCount = rd.Int()
		m.pending = rd.Bool()
		if rd.Err() != nil {
			return nil, rd.Err()
		}
		if m.batches < 0 || m.accCount < 0 {
			rd.Fail("class %d monitor counters negative", k)
			return nil, rd.Err()
		}
		// Fixed-capacity history: the shift-and-append in processBatch relies
		// on the backing array never growing past historyCap.
		m.history = make([]float64, len(hist), d.historyCap)
		copy(m.history, hist)
		st.monitor[k] = m
	}
	if err := rd.Done(); err != nil {
		return nil, err
	}
	return st, nil
}

// applyState installs a staged detector snapshot.
func (d *Detector) applyState(st *detectorStaged) {
	d.rbm.applyState(st.rbm)
	d.scaler = st.scaler
	copy(d.batchBuf, st.batchBuf)
	copy(d.batchY, st.batchY)
	d.batchN = st.batchN
	d.batches = st.batches
	d.drifted = st.drifted
	d.monitor = st.monitor
}

// AppendState appends one complete checkpoint frame (header, payload, CRC —
// see internal/codec) for the detector to dst and returns the extended
// slice. The payload scratch is struct-owned, so steady-state snapshots
// allocate nothing beyond dst's own growth. It fails once the detector's
// RNG position passes the replay ceiling LoadState enforces — failing at
// save time surfaces the problem on the first unusable snapshot instead of
// at a much later restore.
func (d *Detector) AppendState(dst []byte) ([]byte, error) {
	if calls := d.rbm.src.calls; calls > maxRNGReplay {
		return dst, fmt.Errorf("core: RNG position %d exceeds the %d-draw replay ceiling; this detector's state can no longer be checkpointed (see DESIGN.md)", calls, uint64(maxRNGReplay))
	}
	w := codec.NewBuffer(d.stateScratch)
	d.encodeState(w)
	d.stateScratch = w.Bytes()
	return codec.AppendFrame(dst, codec.KindRBMIM, w.Bytes()), nil
}

// SaveState writes one checkpoint frame for the detector to w; it implements
// detectors.StatefulDetector. Steady-state calls reuse struct-owned scratch,
// so periodic snapshots stay allocation-free.
func (d *Detector) SaveState(w io.Writer) error {
	frame, err := d.AppendState(d.frameScratch[:0])
	if err != nil {
		return err
	}
	d.frameScratch = frame
	if _, err := w.Write(d.frameScratch); err != nil {
		return fmt.Errorf("core: writing detector state: %w", err)
	}
	return nil
}

// LoadStateBytes restores the detector from one checkpoint frame. The
// receiver must have been constructed with the identical configuration
// (including Seed) as the saved detector; after a successful load, continued
// training is bit-identical to the saved detector having never stopped.
// Corrupt, truncated, or mismatched input returns an error wrapping
// codec.ErrInvalid and leaves the receiver completely unchanged.
func (d *Detector) LoadStateBytes(data []byte) error {
	payload, err := codec.ExpectFrame(data, codec.KindRBMIM)
	if err != nil {
		return err
	}
	st, err := d.decodeState(codec.NewReader(payload))
	if err != nil {
		return err
	}
	d.applyState(st)
	return nil
}

// LoadState reads one checkpoint frame from r and restores the detector; it
// implements detectors.StatefulDetector. See LoadStateBytes for the
// contract.
func (d *Detector) LoadState(r io.Reader) error {
	kind, payload, err := codec.ReadFrame(r)
	if err != nil {
		return err
	}
	if kind != codec.KindRBMIM {
		return fmt.Errorf("%w: frame kind %d is not an RBM-IM snapshot", codec.ErrInvalid, kind)
	}
	st, err := d.decodeState(codec.NewReader(payload))
	if err != nil {
		return err
	}
	d.applyState(st)
	return nil
}

var _ detectors.StatefulDetector = (*Detector)(nil)
