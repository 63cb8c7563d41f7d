package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// seqTrainBatch is the frozen pre-kernel implementation of one CD-k update:
// a per-instance loop of seven matvec layer passes using the production
// single-instance helpers (hiddenProbs / visibleProbs / classProbs /
// sampleBinary) and verbatim copies of the old gradient and momentum loops.
// It is the reference the batch-major trainBatch must match bit for bit.
//
// legacyWeights selects the pre-PR per-instance class weighting (observe one
// label, then an O(Z·pow) classWeight scan, per instance); with it false the
// reference shares the production per-batch weight table, isolating the
// kernel restructuring — that is the configuration the bit-identity tests
// pin, since the weight-table semantics are an intended (tolerance-tested)
// deviation. With score it returns the mean reconstruction error like
// TrainBatch; without, it mirrors TrainBatchUnscored (the detector's pre-PR
// hot path, which the benchmarks compare against).
func seqTrainBatch(r *RBM, xs [][]float64, ys []int, legacyWeights, score bool) float64 {
	if len(xs) == 0 {
		return 0
	}
	V, H, Z := r.cfg.Visible, r.cfg.Hidden, r.cfg.Classes
	gw := make([]float64, V*H)
	gu := make([]float64, H*Z)
	ga := make([]float64, V)
	gb := make([]float64, H)
	gc := make([]float64, Z)
	z0 := make([]float64, Z)
	hProb := make([]float64, H)
	hState := make([]float64, H)
	hRecon := make([]float64, H)
	vRecon := make([]float64, V)
	zRecon := make([]float64, Z)
	if !legacyWeights {
		r.computeBatchWeights(ys[:len(xs)])
	}
	totalErr := 0.0

	for n := range xs {
		x, y := xs[n], ys[n]
		var weight float64
		if legacyWeights {
			r.observeClass(y)
			weight = r.classWeight(y)
		} else {
			weight = r.wVec[n]
		}
		for k := range z0 {
			z0[k] = 0
		}
		if y >= 0 && y < Z {
			z0[y] = 1
		}
		// Positive phase: h ~ P(h | v = x, z = 1_y) (Eq. 25).
		r.hiddenProbs(x, z0, hProb)
		r.sampleBinary(hProb, hState)

		// Gibbs chain (CD-k): alternate reconstruction of (v, z) and h.
		hCur := hState
		for step := 0; step < r.cfg.GibbsSteps; step++ {
			r.visibleProbs(hCur, vRecon)
			r.classProbs(hCur, zRecon)
			r.hiddenProbs(vRecon, zRecon, hRecon)
			if step < r.cfg.GibbsSteps-1 {
				r.sampleBinary(hRecon, hRecon)
			}
			hCur = hRecon
		}

		// Accumulate weighted gradients: E_data[..] - E_recon[..].
		for i := 0; i < V; i++ {
			xi, vi := x[i], vRecon[i]
			ga[i] += weight * (xi - vi)
			wxi, wvi := weight*xi, weight*vi
			grow := gw[i*H : i*H+H]
			for j := range grow {
				grow[j] += wxi*hProb[j] - wvi*hRecon[j]
			}
		}
		for j := 0; j < H; j++ {
			hp, hr := hProb[j], hRecon[j]
			gb[j] += weight * (hp - hr)
			whp, whr := weight*hp, weight*hr
			grow := gu[j*Z : j*Z+Z]
			for k := range grow {
				grow[k] += whp*z0[k] - whr*zRecon[k]
			}
		}
		for k := 0; k < Z; k++ {
			gc[k] += weight * (z0[k] - zRecon[k])
		}
		if score {
			totalErr += r.reconErrorFrom(x, z0)
		}
	}

	// Apply momentum-smoothed updates (Eq. 17-21).
	inv := 1 / float64(len(xs))
	eta, mom := r.cfg.LearningRate, r.cfg.Momentum
	scale := eta * inv
	for i := 0; i < V; i++ {
		r.da[i] = mom*r.da[i] + scale*ga[i]
		r.a[i] += r.da[i]
	}
	for p := range r.w {
		r.dw[p] = mom*r.dw[p] + scale*gw[p]
		r.w[p] += r.dw[p]
	}
	for j := 0; j < H; j++ {
		r.db[j] = mom*r.db[j] + scale*gb[j]
		r.b[j] += r.db[j]
	}
	for p := range r.u {
		r.du[p] = mom*r.du[p] + scale*gu[p]
		r.u[p] += r.du[p]
	}
	for k := 0; k < Z; k++ {
		r.dc[k] = mom*r.dc[k] + scale*gc[k]
		r.c[k] += r.dc[k]
	}
	return totalErr * inv
}

// seqBatchStream draws reproducible mini-batches with exact zeros mixed in
// (the scaler emits exact zeros at feature minima, which exercises the
// zero-skip branches of the kernels).
func seqBatchStream(seed int64, V, Z int) func(bn int) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	return func(bn int) ([][]float64, []int) {
		xs := make([][]float64, bn)
		ys := make([]int, bn)
		for i := range xs {
			x := make([]float64, V)
			for j := range x {
				if rng.Intn(8) == 0 {
					continue // exact zero
				}
				x[j] = rng.Float64()
			}
			xs[i] = x
			ys[i] = rng.Intn(Z)
		}
		return xs, ys
	}
}

func paramsEqualBits(t *testing.T, label string, a, b *RBM) {
	t.Helper()
	check := func(name string, x, y []float64) {
		t.Helper()
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				t.Fatalf("%s: %s[%d] = %x batch-major vs %x sequential",
					label, name, i, math.Float64bits(x[i]), math.Float64bits(y[i]))
			}
		}
	}
	check("w", a.w, b.w)
	check("u", a.u, b.u)
	check("a", a.a, b.a)
	check("b", a.b, b.b)
	check("c", a.c, b.c)
	check("dw", a.dw, b.dw)
	check("du", a.du, b.du)
}

// rbmShape is one (Visible, Hidden, Classes) configuration of the
// bit-identity tests.
type rbmShape struct{ V, H, Z int }

// bitIdentityShapes are the RBM shapes the batch-major and batched-scoring
// paths are pinned at: two with odd sizes (4-wide unroll tails everywhere),
// the detector shapes the repository benchmark runs (V=20/H=40/Z=5 on
// detect-replay and wire-batch, V=4/H=8/Z=3 on wire-single), and H=60, whose
// hidden rows span two 48-column groups of the AVX MatMul body.
var bitIdentityShapes = []rbmShape{{9, 13, 5}, {11, 7, 3}, {20, 40, 5}, {4, 8, 3}, {30, 60, 4}}

// TestTrainBatchBitIdenticalToSequential is the tentpole contract: the
// batch-major kernel path must produce bit-identical weights to the
// per-instance sequential loop at CD-1 and CD-4, across batch sizes
// including 1, for every shape in bitIdentityShapes. The RNG is only
// consumed in sampling, in the same per-instance order on both paths, so
// every Bernoulli draw — and therefore every weight — must agree exactly.
func TestTrainBatchBitIdenticalToSequential(t *testing.T) {
	for _, sh := range bitIdentityShapes {
		V, H, Z := sh.V, sh.H, sh.Z
		for _, steps := range []int{1, 4} {
			for _, bn := range []int{1, 3, 50} {
				cfg := RBMConfig{
					Visible: V, Hidden: H, Classes: Z,
					LearningRate: 0.5, Momentum: 0.9, GibbsSteps: steps, Seed: 11,
				}
				bm, err := NewRBM(cfg)
				if err != nil {
					t.Fatal(err)
				}
				seq, err := NewRBM(cfg)
				if err != nil {
					t.Fatal(err)
				}
				draw := seqBatchStream(int64(100*steps+bn), V, Z)
				for batch := 0; batch < 25; batch++ {
					xs, ys := draw(bn)
					gotErr := bm.TrainBatch(xs, ys)
					wantErr := seqTrainBatch(seq, xs, ys, false, true)
					label := fmt.Sprintf("%s: %v CD-%d", t.Name(), sh, steps)
					paramsEqualBits(t, label, bm, seq)
					if math.Float64bits(gotErr) != math.Float64bits(wantErr) {
						t.Fatalf("shape=%v steps=%d bn=%d batch=%d: scored error %v batch-major vs %v sequential",
							sh, steps, bn, batch, gotErr, wantErr)
					}
				}
			}
		}
	}
}

// TestScoreBatchMatchesReconstructionError pins the batched scorer: every
// entry must be bit-identical to the single-instance ReconstructionError,
// for every shape in bitIdentityShapes. Hidden unit 1's bias is set to -800,
// so its hPos is exactly 0: the h→v pass through wT skips that unit's terms,
// which the unskipped visibleProbs reference adds as ±0 onto an accumulator
// that is never -0 (DESIGN.md, "Kernel layer").
func TestScoreBatchMatchesReconstructionError(t *testing.T) {
	for _, sh := range bitIdentityShapes {
		V, H, Z := sh.V, sh.H, sh.Z
		r, err := NewRBM(RBMConfig{Visible: V, Hidden: H, Classes: Z, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		draw := seqBatchStream(9, V, Z)
		xs, ys := draw(33)
		r.TrainBatchUnscored(xs, ys)
		r.b[1] = -800
		ys[7] = -1 // out-of-range label: all-zero class row on both paths
		errs := make([]float64, len(xs))
		r.ScoreBatch(xs, ys, errs)
		for i := range xs {
			want := r.ReconstructionError(xs[i], ys[i])
			if math.Float64bits(errs[i]) != math.Float64bits(want) {
				t.Fatalf("shape=%v instance %d: ScoreBatch %v vs ReconstructionError %v", sh, i, errs[i], want)
			}
		}
		h := make([]float64, H)
		z0 := make([]float64, Z)
		z0[ys[0]] = 1
		r.hiddenProbs(xs[0], z0, h)
		if math.Float64bits(h[1]) != 0 {
			t.Fatalf("shape=%v: hidden unit 1 has probability %v, want exactly +0", sh, h[1])
		}
	}
}

// TestBatchWeightTableMatchesEndOfBatchWeights pins the exactness half of
// the weight-table argument: after observing the batch, the table entry of
// every seen class equals classWeight bit for bit (same arithmetic, hoisted
// out of the instance loop).
func TestBatchWeightTableMatchesEndOfBatchWeights(t *testing.T) {
	r, err := NewRBM(RBMConfig{Visible: 4, Hidden: 6, Classes: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	ys := make([]int, 50)
	for round := 0; round < 30; round++ {
		for i := range ys {
			ys[i] = rng.Intn(4)
		}
		r.computeBatchWeights(ys)
		for k := 0; k < 4; k++ {
			want := r.classWeight(k)
			if math.Float64bits(r.wTab[k]) != math.Float64bits(want) {
				t.Fatalf("round %d class %d: table %v vs classWeight %v", round, k, r.wTab[k], want)
			}
		}
	}
}

// TestBatchWeightTableNearPerInstanceWeights pins the tolerance half: on
// warmed-up counts, the per-batch table deviates from the pre-PR
// per-instance weights by no more than the within-batch count drift — a few
// percent at the default decay for batches up to 256 (the cold-start case,
// where a class's very first instances carried weight ~1 before its batch
// count accumulated, is the documented exception).
func TestBatchWeightTableNearPerInstanceWeights(t *testing.T) {
	const Z = 5
	const decay = 0.999
	const beta = 0.99
	r, err := NewRBM(RBMConfig{Visible: 4, Hidden: 6, Classes: Z, Seed: 5, Beta: beta, CountDecay: decay})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	drawLabel := func() int {
		// Imbalanced but warm: class 0 dominates, the rest share the tail.
		if rng.Float64() < 0.6 {
			return 0
		}
		return 1 + rng.Intn(Z-1)
	}
	for i := 0; i < 4000; i++ {
		r.observeClass(drawLabel())
	}

	// Replay the pre-PR per-instance scheme on a snapshot of the counts.
	counts := r.ClassCounts()
	legacyWeight := func(m int) float64 {
		n := counts[m]
		if n < 1 {
			n = 1
		}
		w := (1 - beta) / (1 - math.Pow(beta, n))
		sum, cnt := 0.0, 0
		for k := range counts {
			nk := counts[k]
			if nk < 1 {
				continue
			}
			sum += (1 - beta) / (1 - math.Pow(beta, nk))
			cnt++
		}
		if cnt == 0 || sum == 0 {
			return 1
		}
		return w / (sum / float64(cnt))
	}

	for _, bn := range []int{50, 256} {
		ys := make([]int, bn)
		for i := range ys {
			ys[i] = drawLabel()
		}
		perInstance := make([]float64, bn)
		for i, y := range ys {
			for k := range counts {
				counts[k] *= decay
			}
			counts[y]++
			perInstance[i] = legacyWeight(y)
		}
		r.computeBatchWeights(ys)
		worst := 0.0
		for i := range ys {
			rel := math.Abs(r.wVec[i]-perInstance[i]) / perInstance[i]
			if rel > worst {
				worst = rel
			}
		}
		if worst > 0.05 {
			t.Fatalf("batch %d: worst relative weight deviation %.4f exceeds 5%%", bn, worst)
		}
		// Keep the replayed counts in sync with the RBM's (it observed ys in
		// computeBatchWeights) before the next batch size.
		counts = r.ClassCounts()
	}
}

// TestTrainAndScorePathsAllocationFree pins the zero-allocation property of
// the batch-major hot paths after the matrices have grown once.
func TestTrainAndScorePathsAllocationFree(t *testing.T) {
	const V, H, Z = 12, 24, 5
	r, err := NewRBM(RBMConfig{Visible: V, Hidden: H, Classes: Z, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	draw := seqBatchStream(4, V, Z)
	xs, ys := draw(50)
	errs := make([]float64, len(xs))
	r.TrainBatchUnscored(xs, ys) // grow the matrices once
	if allocs := testing.AllocsPerRun(20, func() { r.TrainBatchUnscored(xs, ys) }); allocs != 0 {
		t.Fatalf("TrainBatchUnscored allocates %.1f per call", allocs)
	}
	if allocs := testing.AllocsPerRun(20, func() { r.TrainBatch(xs, ys) }); allocs != 0 {
		t.Fatalf("TrainBatch allocates %.1f per call", allocs)
	}
	if allocs := testing.AllocsPerRun(20, func() { r.ScoreBatch(xs, ys, errs) }); allocs != 0 {
		t.Fatalf("ScoreBatch allocates %.1f per call", allocs)
	}
}
