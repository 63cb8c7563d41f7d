// Package core implements RBM-IM, the paper's contribution: a trainable
// concept drift detector for multi-class imbalanced data streams realized as
// a three-layer Restricted Boltzmann Machine (visible v, hidden h, class z —
// Eq. 6-12) trained by mini-batch Contrastive Divergence with a
// class-balanced, skew-insensitive loss (Eq. 13-21, using the effective
// number of samples of Cui et al. 2019). The detector tracks the
// reconstruction error of every class independently (Eq. 22-27), fits
// incremental linear trends of that error inside a self-adaptive sliding
// window (Eq. 28-37, window length chosen by ADWIN), and signals per-class
// drift when a Granger causality test on first differences rejects the
// hypothesis that the previous trend forecasts the current one.
package core

import (
	"fmt"
	"math"
	"math/rand"

	"rbmim/internal/kernels"
)

// RBMConfig parameterizes the skew-insensitive RBM (Table II row "RBM-IM").
type RBMConfig struct {
	// Visible is the number of visible neurons V (= feature count).
	Visible int
	// Hidden is the number of hidden neurons H (Table II: {0.25V..V}).
	Hidden int
	// Classes is the number of class neurons Z.
	Classes int
	// LearningRate is eta in Eq. 17-21 (Table II: {0.01..0.07}).
	LearningRate float64
	// GibbsSteps is k of CD-k (Table II: {1..4}).
	GibbsSteps int
	// Momentum accelerates CD updates. Zero selects the default 0.5; pass a
	// negative value to disable momentum entirely.
	Momentum float64
	// Beta is the effective-number-of-samples parameter of the
	// class-balanced loss (Eq. 13); default 0.99.
	Beta float64
	// CountDecay exponentially decays per-class counts so evolving class
	// roles re-weight quickly; default 0.999.
	CountDecay float64
	// Seed drives weight initialization and Gibbs sampling.
	Seed int64
}

// Validate checks the configuration, filling defaults for zero values.
func (c *RBMConfig) Validate() error {
	if c.Visible < 1 {
		return fmt.Errorf("core: RBM needs at least 1 visible neuron, got %d", c.Visible)
	}
	if c.Classes < 2 {
		return fmt.Errorf("core: RBM needs at least 2 class neurons, got %d", c.Classes)
	}
	if c.Hidden <= 0 {
		c.Hidden = (c.Visible + 1) / 2
	}
	if c.LearningRate <= 0 {
		c.LearningRate = 0.05
	}
	if c.GibbsSteps <= 0 {
		c.GibbsSteps = 1
	}
	switch {
	case c.Momentum == 0 || c.Momentum >= 1:
		c.Momentum = 0.5
	case c.Momentum < 0:
		c.Momentum = 0
	}
	if c.Beta <= 0 || c.Beta >= 1 {
		c.Beta = 0.99
	}
	if c.CountDecay <= 0 || c.CountDecay >= 1 {
		c.CountDecay = 0.999
	}
	return nil
}

// countRescaleFloor triggers the periodic re-materialization of the
// lazily-decayed class counts: when the global decay multiplier shrinks past
// it, the scaled counts are folded down and the multiplier resets to 1.
// 1e-12 keeps both the multiplier and its cached inverse far from the
// float64 range limits while making the O(Z) fold-down amortize over
// ~27k observations at the default decay.
const countRescaleFloor = 1e-12

// RBM is the three-layer network of Eq. 6-12: visible layer v (features),
// hidden layer h, and class layer z with softmax activation. Weights W
// connect v-h and U connects h-z.
//
// Both weight matrices are stored flat in row-major order — w[i*H+j] is
// W_ij, u[j*Z+k] is U_jk — and training is batch-major: TrainBatch packs the
// mini-batch into struct-owned [B×V]/[B×H]/[B×Z] matrices and runs every
// Gibbs layer pass as one blocked product over the whole batch
// (internal/kernels), instead of B per-instance matvecs. The kernels
// preserve each output element's exact accumulation order and CD-k
// randomness is pre-drawn in instance order, so the resulting weights are
// bit-identical to the per-instance loop (pinned at CD-1 and CD-4 by the
// regression tests in seqref_test.go). All scratch lives on the struct:
// steady-state training and scoring perform zero heap allocations.
type RBM struct {
	cfg RBMConfig
	rng *rand.Rand
	// src is the counted source behind rng: it passes every value through
	// unchanged (so all pinned randomness is untouched) while tracking how
	// many raw draws have been consumed since the seed. That count is the
	// RBM's entire RNG state for checkpointing — a restore re-seeds and
	// replays the source forward (see state.go).
	src *countedSource

	w []float64 // flat [Visible][Hidden], row-major
	u []float64 // flat [Hidden][Classes], row-major
	a []float64 // visible biases
	b []float64 // hidden biases
	c []float64 // class biases

	// Per-batch transposes of w and u (wT is [Hidden][Visible], uT is
	// [Classes][Hidden]), so every h→v and z→h pass, in training and in
	// scoring, runs as the same zero-skipping MatMul as the forward passes:
	// the chain's hidden input is always a sampled {0,1} state and its
	// class input starts one-hot, so the skip halves the chain's h→v work
	// and reduces the z→h pass to one row-add per instance. The transpose
	// costs O(VH + HZ) once per mini-batch.
	wT []float64
	uT []float64
	// wuStale marks wT/uT as out of date (set by the weight update, cleared
	// by ensureTransposed).
	wuStale bool

	// Momentum buffers (same layouts as w / u).
	dw []float64
	du []float64
	da []float64
	db []float64
	dc []float64

	// Class-balanced loss state (Eq. 13): lazily-decayed per-class counts.
	// The true count of class k is classCounts[k] * countScale; observeClass
	// multiplies countScale by the decay once (O(1)) instead of walking all
	// Z counts, and adds countGain (= 1/countScale, maintained incrementally)
	// for the observed class. countScale is folded back into the counts
	// whenever it passes countRescaleFloor.
	classCounts []float64
	countScale  float64
	countGain   float64

	// Per-batch class-weight table: wTab[k] is the normalized Eq. 13 weight
	// shared by every instance of class k in the current mini-batch, wVec its
	// per-instance expansion.
	wTab []float64
	wVec []float64

	// Single-instance scoring scratch (ReconstructionError, ClassScores).
	hProb  []float64
	vProb  []float64
	zProb  []float64
	zLabel []float64 // class-input scratch (one-hot / uniform)

	// TrainBatch gradient scratch (same layouts as the parameters).
	gw, gu     []float64
	ga, gb, gc []float64

	// Batch-major matrices, grown once to the largest mini-batch seen. The
	// inputs, one-hot labels and pre-drawn CD-k uniforms hold the whole
	// batch (B rows); the Gibbs-chain activations only ever hold one
	// trainTile-row tile — the chain runs tile by tile so its working set
	// stays cache-resident at large B (tiling is invisible to the results:
	// instances never interact inside a pass, and the gradient tiles
	// accumulate in ascending instance order).
	batchCap   int
	xMat       []float64 // [B×V]
	z0Mat      []float64 // [B×Z]
	hPos       []float64 // [tile×H] P(h | v=x, z=1_y)
	hSt        []float64 // [tile×H] sampled positive states
	hRec       []float64 // [tile×H] chain hidden layer
	vRec       []float64 // [tile×V] chain visible layer
	zRec       []float64 // [tile×Z] chain class layer
	uRand      []float64 // [B×GibbsSteps×H] pre-drawn uniforms
	trainSteps int       // GibbsSteps snapshot backing uRand's layout
}

// NewRBM builds the network with small random weights.
func NewRBM(cfg RBMConfig) (*RBM, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	src := newCountedSource(cfg.Seed)
	r := &RBM{cfg: cfg, src: src, rng: rand.New(src)}
	V, H, Z := cfg.Visible, cfg.Hidden, cfg.Classes
	r.w = gaussianSlice(r.rng, V*H, 0.1)
	r.u = gaussianSlice(r.rng, H*Z, 0.1)
	r.wT = make([]float64, V*H)
	r.uT = make([]float64, H*Z)
	r.wuStale = true
	r.a = make([]float64, V)
	r.b = make([]float64, H)
	r.c = make([]float64, Z)
	r.dw = make([]float64, V*H)
	r.du = make([]float64, H*Z)
	r.da = make([]float64, V)
	r.db = make([]float64, H)
	r.dc = make([]float64, Z)
	r.classCounts = make([]float64, Z)
	r.countScale = 1
	r.countGain = 1
	r.wTab = make([]float64, Z)
	r.hProb = make([]float64, H)
	r.vProb = make([]float64, V)
	r.zProb = make([]float64, Z)
	r.zLabel = make([]float64, Z)
	r.gw = make([]float64, V*H)
	r.gu = make([]float64, H*Z)
	r.ga = make([]float64, V)
	r.gb = make([]float64, H)
	r.gc = make([]float64, Z)
	r.trainSteps = cfg.GibbsSteps
	return r, nil
}

// Config returns the active configuration (with defaults resolved).
func (r *RBM) Config() RBMConfig { return r.cfg }

func gaussianSlice(rng *rand.Rand, n int, sd float64) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = rng.NormFloat64() * sd
	}
	return s
}

// trainTile is the number of instances the Gibbs chain and the gradient
// pass move through the kernels at once. 64 keeps every activation tile
// (tile×H plus tile×V rows) within a few hundred kilobytes for the paper's
// stream widths, so each layer pass re-reads cache-resident tiles instead
// of streaming whole-batch matrices from L2/L3 at large block sizes.
const trainTile = 64

// ensureBatch grows the batch-major matrices to hold bn rows. Growth happens
// at most a handful of times (callers reuse a fixed mini-batch size), after
// which training is allocation-free.
func (r *RBM) ensureBatch(bn int) {
	if bn <= r.batchCap {
		return
	}
	V, H, Z := r.cfg.Visible, r.cfg.Hidden, r.cfg.Classes
	tile := bn
	if tile > trainTile {
		tile = trainTile
	}
	r.xMat = make([]float64, bn*V)
	r.z0Mat = make([]float64, bn*Z)
	r.hPos = make([]float64, tile*H)
	r.hSt = make([]float64, tile*H)
	r.hRec = make([]float64, tile*H)
	r.vRec = make([]float64, tile*V)
	r.zRec = make([]float64, tile*Z)
	r.uRand = make([]float64, bn*r.trainSteps*H)
	r.wVec = make([]float64, bn)
	r.batchCap = bn
}

// ensureTransposed refreshes wT and uT from the current w and u when a
// weight update left them stale — at most once per trainBatch or ScoreBatch
// call (the weights only change in trainBatch's final update step).
func (r *RBM) ensureTransposed() {
	if !r.wuStale {
		return
	}
	r.wuStale = false
	V, H, Z := r.cfg.Visible, r.cfg.Hidden, r.cfg.Classes
	for i := 0; i < V; i++ {
		row := r.w[i*H : i*H+H]
		for j, wij := range row {
			r.wT[j*V+i] = wij
		}
	}
	for j := 0; j < H; j++ {
		row := r.u[j*Z : j*Z+Z]
		for k, ujk := range row {
			r.uT[k*H+j] = ujk
		}
	}
}

// packBatch copies the mini-batch into the struct-owned input and one-hot
// label matrices. Out-of-range labels produce an all-zero class row, exactly
// like the one-hot scratch of the per-instance path.
func (r *RBM) packBatch(xs [][]float64, ys []int) (xMat, z0 []float64) {
	V, Z := r.cfg.Visible, r.cfg.Classes
	B := len(xs)
	r.ensureBatch(B)
	xMat = r.xMat[:B*V]
	z0 = r.z0Mat[:B*Z]
	for n, x := range xs {
		if len(x) != V {
			panic(fmt.Sprintf("core: instance has %d features, RBM configured for %d", len(x), V))
		}
		copy(xMat[n*V:n*V+V], x)
	}
	clear(z0)
	for n, y := range ys[:B] {
		if y >= 0 && y < Z {
			z0[n*Z+y] = 1
		}
	}
	return xMat, z0
}

// hiddenProbs computes P(h_j | v, z) of Eq. 10 into dst. The v-h pass
// accumulates row-by-row over w so memory access stays sequential; the z-h
// pass dots each contiguous u row against z. (Single-instance path, used by
// the scoring helpers; training runs the same passes batch-major through
// internal/kernels.)
func (r *RBM) hiddenProbs(v []float64, z []float64, dst []float64) {
	H, Z := r.cfg.Hidden, r.cfg.Classes
	copy(dst, r.b)
	for i := 0; i < r.cfg.Visible; i++ {
		vi := v[i]
		if vi == 0 {
			continue
		}
		row := r.w[i*H : i*H+H]
		for j, wij := range row {
			dst[j] += vi * wij
		}
	}
	for j := 0; j < H; j++ {
		s := dst[j]
		row := r.u[j*Z : j*Z+Z]
		for k, ujk := range row {
			s += z[k] * ujk
		}
		dst[j] = sigmoid(s)
	}
}

// visibleProbs computes P(v_i | h) of Eq. 11 into dst.
func (r *RBM) visibleProbs(h []float64, dst []float64) {
	H := r.cfg.Hidden
	for i := 0; i < r.cfg.Visible; i++ {
		s := r.a[i]
		row := r.w[i*H : i*H+H]
		for j, wij := range row {
			s += h[j] * wij
		}
		dst[i] = sigmoid(s)
	}
}

// classProbs computes the softmax P(z = 1_k | h) of Eq. 12 into dst,
// accumulating over the contiguous rows of u.
func (r *RBM) classProbs(h []float64, dst []float64) {
	Z := r.cfg.Classes
	copy(dst, r.c)
	for j := 0; j < r.cfg.Hidden; j++ {
		hj := h[j]
		if hj == 0 {
			continue
		}
		row := r.u[j*Z : j*Z+Z]
		for k, ujk := range row {
			dst[k] += hj * ujk
		}
	}
	kernels.Softmax(dst)
}

// sampleBinary draws Bernoulli states from probabilities, consuming one
// uniform per element from the RBM's generator. (Kept for the sequential
// reference path in tests; trainBatch pre-draws the identical uniforms via
// sampleBinaryPre.)
func (r *RBM) sampleBinary(p []float64, dst []float64) {
	for i, pi := range p {
		if r.rng.Float64() < pi {
			dst[i] = 1
		} else {
			dst[i] = 0
		}
	}
}

// sampleBinaryPre draws Bernoulli states from probabilities using pre-drawn
// uniforms: dst[i] = 1 iff u[i] < p[i], the exact comparison sampleBinary
// performs against a fresh draw. The comparison is computed branchlessly
// from the sign of u-p (for finite operands u < p iff u-p is strictly
// negative: IEEE gradual underflow keeps u-p nonzero whenever u != p, and
// u == p yields +0.0) — the data-dependent branch would mispredict half the
// time on well-trained probabilities.
func sampleBinaryPre(u, p, dst []float64) {
	u = u[:len(p)]
	dst = dst[:len(p)]
	for i, pi := range p {
		dst[i] = float64(math.Float64bits(u[i]-pi) >> 63)
	}
}

// count returns the decayed observation count of class k (Eq. 13's n_k),
// materializing the lazy global decay multiplier.
func (r *RBM) count(k int) float64 { return r.classCounts[k] * r.countScale }

// classWeight returns the class-balanced loss weight of Eq. 13 for class m:
// (1 - beta) / (1 - beta^{n_m}), normalized so the average weight over
// observed classes is 1. TrainBatch computes the same table once per batch
// (computeBatchWeights); this per-class form serves diagnostics and tests.
func (r *RBM) classWeight(m int) float64 {
	n := r.count(m)
	if n < 1 {
		n = 1
	}
	w := (1 - r.cfg.Beta) / (1 - math.Pow(r.cfg.Beta, n))
	// Normalize by the mean weight across seen classes so the global
	// learning-rate scale is imbalance-invariant.
	sum, cnt := 0.0, 0
	for k := range r.classCounts {
		nk := r.count(k)
		if nk < 1 {
			continue
		}
		sum += (1 - r.cfg.Beta) / (1 - math.Pow(r.cfg.Beta, nk))
		cnt++
	}
	if cnt == 0 || sum == 0 {
		return 1
	}
	return w / (sum / float64(cnt))
}

// observeClass updates the decayed class counts feeding the balanced loss in
// O(1): the decay of all Z counts is a single multiply on the global scale,
// and the increment is pre-scaled by the cached inverse. The scale is folded
// back into the counts before it can underflow (or its inverse overflow).
func (r *RBM) observeClass(y int) {
	d := r.cfg.CountDecay
	r.countScale *= d
	r.countGain /= d
	if r.countScale < countRescaleFloor {
		for k := range r.classCounts {
			r.classCounts[k] *= r.countScale
		}
		r.countScale = 1
		r.countGain = 1
	}
	if y >= 0 && y < r.cfg.Classes {
		r.classCounts[y] += r.countGain
	}
}

// computeBatchWeights observes every label of the mini-batch and rebuilds
// the per-batch class-weight table (Eq. 13, normalized to mean 1 over seen
// classes — the same arithmetic as classWeight, factored so the O(Z·pow)
// normalization runs once per batch instead of once per instance). Every
// instance of class k in the batch shares wTab[k]; out-of-range labels get
// the neutral weight 1. See DESIGN.md for the exactness argument versus the
// per-instance weighting this replaces.
func (r *RBM) computeBatchWeights(ys []int) {
	for _, y := range ys {
		r.observeClass(y)
	}
	beta := r.cfg.Beta
	sum, cnt := 0.0, 0
	for k := range r.wTab {
		n := r.count(k)
		seen := n >= 1
		if n < 1 {
			n = 1
		}
		wk := (1 - beta) / (1 - math.Pow(beta, n))
		r.wTab[k] = wk
		if seen {
			sum += wk
			cnt++
		}
	}
	if cnt == 0 || sum == 0 {
		for k := range r.wTab {
			r.wTab[k] = 1
		}
	} else {
		mean := sum / float64(cnt)
		for k := range r.wTab {
			r.wTab[k] /= mean
		}
	}
	if len(r.wVec) < len(ys) {
		r.wVec = make([]float64, len(ys))
	}
	wVec := r.wVec[:len(ys)]
	for i, y := range ys {
		if y >= 0 && y < len(r.wTab) {
			wVec[i] = r.wTab[y]
		} else {
			wVec[i] = 1
		}
	}
}

// TrainBatch performs one CD-k update (Eq. 15-21) over the mini-batch of
// scaled feature vectors xs with labels ys, applying the class-balanced
// gradient weighting. Inputs must be scaled to [0,1]. Returns the mean
// reconstruction error of the batch against the pre-update weights.
// Steady-state calls perform no heap allocations: all matrices and gradient
// scratch are struct-owned.
func (r *RBM) TrainBatch(xs [][]float64, ys []int) float64 {
	return r.trainBatch(xs, ys, true)
}

// TrainBatchUnscored performs the identical CD-k update without computing
// the per-instance reconstruction errors behind TrainBatch's return value.
// The detector's batched path scores every instance against the *updated*
// weights afterwards (Eq. 27 is evaluated post-update), so TrainBatch's
// pre-update errors would be discarded; skipping them removes the three
// scoring layer passes. The scoring passes draw no randomness, so the
// resulting weights are bit-identical to TrainBatch's.
func (r *RBM) TrainBatchUnscored(xs [][]float64, ys []int) {
	r.trainBatch(xs, ys, false)
}

// trainBatch is the batch-major CD-k core: it packs the mini-batch into
// [B×V]/[B×H]/[B×Z] matrices and runs every Gibbs layer pass as one blocked
// kernel over the whole batch. The kernels preserve each element's exact
// accumulation order and the Bernoulli uniforms are pre-drawn in instance
// order (positive phase first, then each chain step, per instance — the
// order a per-instance loop consumes them), so the updated weights are
// bit-identical to sequential per-instance training; only the class-weight
// table (computed once per batch, see computeBatchWeights) deviates from the
// original per-instance weighting, within the tolerance documented in
// DESIGN.md.
func (r *RBM) trainBatch(xs [][]float64, ys []int, score bool) float64 {
	B := len(xs)
	if B == 0 {
		return 0
	}
	V, H, Z := r.cfg.Visible, r.cfg.Hidden, r.cfg.Classes
	xMat, z0 := r.packBatch(xs, ys)
	r.computeBatchWeights(ys[:B])
	r.ensureTransposed()

	// Pre-draw all CD-k randomness in the per-instance consumption order:
	// instance n's positive-phase draws occupy uRand[n*kH : n*kH+H], its
	// chain-step s draws the following H-wide windows.
	steps := r.cfg.GibbsSteps
	kH := steps * H
	ur := r.uRand[:B*kH]
	for i := range ur {
		ur[i] = r.rng.Float64()
	}

	// Gradient accumulators, filled tile by tile below.
	gw, gu := r.gw, r.gu
	ga, gb, gc := r.ga, r.gb, r.gc
	clear(gw)
	clear(gu)
	clear(ga)
	clear(gb)
	clear(gc)
	wVec := r.wVec[:B]
	totalErr := 0.0

	// The positive phase, Gibbs chain, gradient accumulation and optional
	// scoring run over trainTile-instance tiles: instances never interact
	// inside a layer pass and the gradient tiles land in ascending instance
	// order, so tiling leaves every result bit-identical while the
	// activation tiles stay cache-resident at large B.
	for t0 := 0; t0 < B; t0 += trainTile {
		t1 := t0 + trainTile
		if t1 > B {
			t1 = B
		}
		tb := t1 - t0
		xT := xMat[t0*V : t1*V]
		z0T := z0[t0*Z : t1*Z]
		wTile := wVec[t0:t1]

		// Positive phase: h ~ P(h | v = x, z = 1_y) (Eq. 25). The one-hot
		// class rows go through the transposed MatMul, whose zero-skip
		// reduces the z→h pass to one uT row-add per instance. The skip is
		// exact here (and in every chain and scoring pass below) because
		// MatMul's accumulators are seeded from the biases, which
		// round-to-nearest addition can never drive to -0.0 — so the
		// skipped `s += ±0.0` terms of the unskipped per-instance loops are
		// no-ops (see the MatMul docs; the bit-identity regression tests
		// pin this end to end).
		hPos := r.hPos[:tb*H]
		kernels.Broadcast(hPos, r.b, tb)
		kernels.MatMul(hPos, xT, r.w, tb, V, H)
		kernels.MatMul(hPos, z0T, r.uT, tb, Z, H)
		kernels.Sigmoid(hPos)
		hSt := r.hSt[:tb*H]
		for n := 0; n < tb; n++ {
			off := (t0 + n) * kH
			sampleBinaryPre(ur[off:off+H], hPos[n*H:n*H+H], hSt[n*H:n*H+H])
		}

		// Gibbs chain (CD-k): alternate reconstruction of (v, z) and h, one
		// blocked layer pass per step over the tile. hCur is always a
		// sampled {0,1} state, so the transposed h→v pass skips roughly
		// half its rows.
		vRec := r.vRec[:tb*V]
		zRec := r.zRec[:tb*Z]
		hRec := r.hRec[:tb*H]
		hCur := hSt
		for step := 0; step < steps; step++ {
			kernels.Broadcast(vRec, r.a, tb)
			kernels.MatMul(vRec, hCur, r.wT, tb, H, V)
			kernels.Sigmoid(vRec)
			kernels.Broadcast(zRec, r.c, tb)
			kernels.MatMul(zRec, hCur, r.u, tb, H, Z)
			for n := 0; n < tb; n++ {
				kernels.Softmax(zRec[n*Z : n*Z+Z])
			}
			kernels.Broadcast(hRec, r.b, tb)
			kernels.MatMul(hRec, vRec, r.w, tb, V, H)
			kernels.MatMul(hRec, zRec, r.uT, tb, Z, H)
			kernels.Sigmoid(hRec)
			if step < steps-1 {
				for n := 0; n < tb; n++ {
					off := (t0+n)*kH + (step+1)*H
					sampleBinaryPre(ur[off:off+H], hRec[n*H:n*H+H], hRec[n*H:n*H+H])
				}
			}
			hCur = hRec
		}

		// Accumulate weighted gradients, E_data[..] - E_recon[..]: the bias
		// gradients instance by instance, the two weight matrices as
		// blocked rank-tb updates.
		for n := 0; n < tb; n++ {
			wn := wTile[n]
			kernels.AxpyDiff(wn, xT[n*V:n*V+V], vRec[n*V:n*V+V], ga)
			kernels.AxpyDiff(wn, hPos[n*H:n*H+H], hRec[n*H:n*H+H], gb)
			kernels.AxpyDiff(wn, z0T[n*Z:n*Z+Z], zRec[n*Z:n*Z+Z], gc)
		}
		kernels.AccumRankK(gw, wTile, xT, vRec, hPos, hRec, tb, V, H)
		kernels.AccumRankK(gu, wTile, hPos, hRec, z0T, zRec, tb, H, Z)

		// Optional pre-update scoring (Eq. 26), before the updates are
		// applied: hPos already holds hiddenProbs(x, z0), so only the
		// visible and class reconstructions remain; vRec/zRec are dead
		// after the gradient pass and are reused. hPos is dense (a sigmoid
		// is exactly 0 only below about -745), so the h→v pass through wT
		// rarely skips a term, and a skip is exact as above.
		if score {
			kernels.Broadcast(vRec, r.a, tb)
			kernels.MatMul(vRec, hPos, r.wT, tb, H, V)
			kernels.Sigmoid(vRec)
			kernels.Broadcast(zRec, r.c, tb)
			kernels.MatMul(zRec, hPos, r.u, tb, H, Z)
			for n := 0; n < tb; n++ {
				kernels.Softmax(zRec[n*Z : n*Z+Z])
			}
			for n := 0; n < tb; n++ {
				totalErr += reconErrorRow(xT[n*V:n*V+V], vRec[n*V:n*V+V], z0T[n*Z:n*Z+Z], zRec[n*Z:n*Z+Z], V, Z)
			}
		}
	}

	// Apply momentum-smoothed updates (Eq. 17-21).
	inv := 1 / float64(B)
	scale := r.cfg.LearningRate * inv
	mom := r.cfg.Momentum
	kernels.AddScaled(r.da, mom, r.da, scale, ga)
	kernels.Axpy(1, r.da, r.a)
	kernels.AddScaled(r.dw, mom, r.dw, scale, gw)
	kernels.Axpy(1, r.dw, r.w)
	kernels.AddScaled(r.db, mom, r.db, scale, gb)
	kernels.Axpy(1, r.db, r.b)
	kernels.AddScaled(r.du, mom, r.du, scale, gu)
	kernels.Axpy(1, r.du, r.u)
	kernels.AddScaled(r.dc, mom, r.dc, scale, gc)
	kernels.Axpy(1, r.dc, r.c)
	r.wuStale = true
	return totalErr * inv
}

// ScoreBatch computes R(S) of Eq. 26 for every instance of the mini-batch
// into errs (len(errs) >= len(xs)), running the three scoring layer passes
// as blocked kernels over the whole batch. Each error is bit-identical to
// ReconstructionError(xs[i], ys[i]) — the kernels preserve the
// single-instance accumulation order — at roughly a third of the
// per-instance cost on detector-sized batches. Allocation-free in steady
// state; shares the training matrices, so do not interleave with a
// concurrent TrainBatch on the same RBM (the type is single-goroutine like
// the rest of the detector).
func (r *RBM) ScoreBatch(xs [][]float64, ys []int, errs []float64) {
	B := len(xs)
	if B == 0 {
		return
	}
	V, H, Z := r.cfg.Visible, r.cfg.Hidden, r.cfg.Classes
	xMat, z0 := r.packBatch(xs, ys)
	r.ensureTransposed()
	for t0 := 0; t0 < B; t0 += trainTile {
		t1 := t0 + trainTile
		if t1 > B {
			t1 = B
		}
		tb := t1 - t0
		xT := xMat[t0*V : t1*V]
		z0T := z0[t0*Z : t1*Z]
		hPos := r.hPos[:tb*H]
		kernels.Broadcast(hPos, r.b, tb)
		kernels.MatMul(hPos, xT, r.w, tb, V, H)
		kernels.MatMul(hPos, z0T, r.uT, tb, Z, H)
		kernels.Sigmoid(hPos)
		vRec := r.vRec[:tb*V]
		kernels.Broadcast(vRec, r.a, tb)
		kernels.MatMul(vRec, hPos, r.wT, tb, H, V)
		kernels.Sigmoid(vRec)
		zRec := r.zRec[:tb*Z]
		kernels.Broadcast(zRec, r.c, tb)
		kernels.MatMul(zRec, hPos, r.u, tb, H, Z)
		for n := 0; n < tb; n++ {
			kernels.Softmax(zRec[n*Z : n*Z+Z])
		}
		for n := 0; n < tb; n++ {
			errs[t0+n] = reconErrorRow(xT[n*V:n*V+V], vRec[n*V:n*V+V], z0T[n*Z:n*Z+Z], zRec[n*Z:n*Z+Z], V, Z)
		}
	}
}

// reconErrorRow sums one instance's squared feature and class reconstruction
// gaps (Eq. 26) in the exact order of the single-instance scorer: features
// first, then the V/Z-weighted class block.
func reconErrorRow(x, vp, z, zp []float64, V, Z int) float64 {
	sum := 0.0
	vp = vp[:len(x)]
	for i := range x {
		d := x[i] - vp[i]
		sum += d * d
	}
	classWeight := float64(V) / float64(Z)
	zp = zp[:len(z)]
	for k := range z {
		d := z[k] - zp[k]
		sum += classWeight * d * d
	}
	return math.Sqrt(sum)
}

// reconErrorFrom computes R(S) of Eq. 26 for a single already-scaled
// instance: the root of the summed squared feature and class reconstruction
// gaps, using a deterministic (mean-field) hidden pass. The class block is
// weighted by V/Z so that it carries the same total weight as the feature
// block regardless of dimensionality — under Eq. 26's literal unweighted sum
// a label-association change (exactly what a local drift is) contributes
// only Z of V+Z terms and becomes invisible on wide streams (V = 80,
// Z = 5 would dilute it 16:1).
func (r *RBM) reconErrorFrom(x []float64, z []float64) float64 {
	r.hiddenProbs(x, z, r.hProb)
	r.visibleProbs(r.hProb, r.vProb)
	r.classProbs(r.hProb, r.zProb)
	return reconErrorRow(x, r.vProb, z, r.zProb, r.cfg.Visible, r.cfg.Classes)
}

// ReconstructionError computes R(S_n) of Eq. 26 for a scaled instance with
// label y. Allocation-free: the one-hot class input is struct scratch.
func (r *RBM) ReconstructionError(x []float64, y int) float64 {
	z := r.zLabel
	for k := range z {
		z[k] = 0
	}
	if y >= 0 && y < r.cfg.Classes {
		z[y] = 1
	}
	return r.reconErrorFrom(x, z)
}

// ClassScoresInto computes the class-layer softmax for a scaled instance
// using a neutral class input — the RBM's own class posterior — into dst
// (len(dst) must be Classes). Allocation-free: the hidden pass and the
// neutral class input use struct scratch.
func (r *RBM) ClassScoresInto(x []float64, dst []float64) {
	if len(dst) != r.cfg.Classes {
		panic(fmt.Sprintf("core: ClassScoresInto dst has %d entries, RBM has %d classes", len(dst), r.cfg.Classes))
	}
	z := r.zLabel
	for k := range z {
		z[k] = 1.0 / float64(r.cfg.Classes)
	}
	r.hiddenProbs(x, z, r.hProb)
	r.classProbs(r.hProb, dst)
}

// ClassScores is the allocating convenience wrapper around ClassScoresInto;
// usable as a generative classifier and in tests.
func (r *RBM) ClassScores(x []float64) []float64 {
	out := make([]float64, r.cfg.Classes)
	r.ClassScoresInto(x, out)
	return out
}

// ClassCounts exposes the decayed class counts (diagnostics and tests),
// materializing the lazy decay multiplier.
func (r *RBM) ClassCounts() []float64 {
	out := make([]float64, len(r.classCounts))
	for k := range out {
		out[k] = r.count(k)
	}
	return out
}

// Energy computes E(v, h, z) of Eq. 8 for explicit layer states: the
// negated bias terms plus the two interaction blocks, each a dot of a layer
// state with a contiguous weight row.
func (r *RBM) Energy(v, h, z []float64) float64 {
	H, Z := r.cfg.Hidden, r.cfg.Classes
	e := -kernels.Dot(v, r.a) - kernels.Dot(h, r.b) - kernels.Dot(z, r.c)
	for i := range v {
		if v[i] == 0 {
			continue
		}
		e -= v[i] * kernels.Dot(h, r.w[i*H:i*H+H])
	}
	for j := range h {
		if h[j] == 0 {
			continue
		}
		e -= h[j] * kernels.Dot(z, r.u[j*Z:j*Z+Z])
	}
	return e
}

func sigmoid(x float64) float64 {
	return 1 / (1 + math.Exp(-x))
}
