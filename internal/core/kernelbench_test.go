package core

import (
	"fmt"
	"math"
	"testing"
	"time"
)

// BenchmarkTrainBatchKernels measures one CD-1 update per observation for
// the two training paths at the shapes the kernel refactor targets
// (V ∈ {20, 80}, H = 2V, Z = 5, batch ∈ {32, 256}):
//
//   - "batch": the production batch-major path (blocked kernels, per-batch
//     weight table).
//   - "seq": the frozen pre-kernel reference — per-instance matvec layer
//     passes with the pre-PR per-instance class weighting.
//
// ns/op is per mini-batch; the ns/obs metric is comparable across paths and
// sizes. TestBatchPathsBeatSeqReference holds each batch path to its speedup
// floor over "seq" in the same run.
func BenchmarkTrainBatchKernels(b *testing.B) {
	const Z = 5
	for _, V := range []int{20, 80} {
		for _, bn := range []int{32, 256} {
			draw := seqBatchStream(int64(V*1000+bn), V, Z)
			xs, ys := draw(bn)
			newRBM := func(b *testing.B) *RBM {
				r, err := NewRBM(RBMConfig{
					Visible: V, Hidden: 2 * V, Classes: Z,
					LearningRate: 0.5, Momentum: 0.9, Seed: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				return r
			}
			perObs := func(b *testing.B) {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(bn), "ns/obs")
			}
			b.Run(fmt.Sprintf("V%d/B%d/batch", V, bn), func(b *testing.B) {
				r := newRBM(b)
				r.TrainBatchUnscored(xs, ys) // grow the matrices outside the timing
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					r.TrainBatchUnscored(xs, ys)
				}
				perObs(b)
			})
			b.Run(fmt.Sprintf("V%d/B%d/seq", V, bn), func(b *testing.B) {
				r := newRBM(b)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					seqTrainBatch(r, xs, ys, true, false)
				}
				perObs(b)
			})
		}
	}
}

// BenchmarkScoreBatch measures the batched Eq. 26 scorer against the
// per-instance ReconstructionError loop it replaced in the detector; the
// "seq" reference pairs with "batch" as in BenchmarkTrainBatchKernels.
func BenchmarkScoreBatch(b *testing.B) {
	const V, H, Z, bn = 20, 40, 5, 50
	draw := seqBatchStream(6, V, Z)
	xs, ys := draw(bn)
	errs := make([]float64, bn)
	newRBM := func(b *testing.B) *RBM {
		r, err := NewRBM(RBMConfig{Visible: V, Hidden: H, Classes: Z, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		r.TrainBatchUnscored(xs, ys)
		return r
	}
	perObs := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(bn), "ns/obs")
	}
	b.Run("batch", func(b *testing.B) {
		r := newRBM(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.ScoreBatch(xs, ys, errs)
		}
		perObs(b)
	})
	b.Run("seq", func(b *testing.B) {
		r := newRBM(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for n := range xs {
				errs[n] = r.ReconstructionError(xs[n], ys[n])
			}
		}
		perObs(b)
	})
}

// TestBatchPathsBeatSeqReference is the kernel speedup floor: every batch path
// of BenchmarkTrainBatchKernels and BenchmarkScoreBatch must run at least 1.5x
// as fast as its frozen sequential reference. Both sides are timed in the
// same run, in alternating rounds of fixed iteration counts, and each keeps
// its fastest round, so the ratio holds on a slow or busy machine.
func TestBatchPathsBeatSeqReference(t *testing.T) {
	const Z, rounds, floor = 5, 15, 1.5
	type pair struct {
		name       string
		iters      int
		batch, seq func()
	}
	var pairs []pair
	for _, V := range []int{20, 80} {
		for _, bn := range []int{32, 256} {
			xs, ys := seqBatchStream(int64(V*1000+bn), V, Z)(bn)
			var rbms [2]*RBM
			for i := range rbms {
				r, err := NewRBM(RBMConfig{
					Visible: V, Hidden: 2 * V, Classes: Z,
					LearningRate: 0.5, Momentum: 0.9, Seed: 1,
				})
				if err != nil {
					t.Fatal(err)
				}
				r.TrainBatchUnscored(xs, ys) // grow the matrices before timing
				rbms[i] = r
			}
			pairs = append(pairs, pair{
				name:  fmt.Sprintf("train V%d/B%d", V, bn),
				iters: max(1, 1<<20/(bn*V*V)),
				batch: func() { rbms[0].TrainBatchUnscored(xs, ys) },
				seq:   func() { seqTrainBatch(rbms[1], xs, ys, true, false) },
			})
		}
	}
	const V, bn = 20, 50
	xs, ys := seqBatchStream(6, V, Z)(bn)
	errs := make([]float64, bn)
	r, err := NewRBM(RBMConfig{Visible: V, Hidden: 2 * V, Classes: Z, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r.TrainBatchUnscored(xs, ys)
	pairs = append(pairs, pair{
		name:  "score V20/B50",
		iters: 1 << 20 / (bn * V * V),
		batch: func() { r.ScoreBatch(xs, ys, errs) },
		seq: func() {
			for n := range xs {
				errs[n] = r.ReconstructionError(xs[n], ys[n])
			}
		},
	})
	for _, p := range pairs {
		best := [2]time.Duration{math.MaxInt64, math.MaxInt64}
		for round := 0; round < rounds; round++ {
			for k := 0; k < 2; k++ {
				side := k ^ round%2
				f := p.batch
				if side == 1 {
					f = p.seq
				}
				start := time.Now()
				for i := 0; i < p.iters; i++ {
					f()
				}
				best[side] = min(best[side], time.Since(start))
			}
		}
		ratio := float64(best[1]) / float64(best[0])
		t.Logf("%s: batch %v, seq %v per %d iterations, %.2fx", p.name, best[0], best[1], p.iters, ratio)
		if ratio < floor {
			t.Errorf("%s: batch path is %.2fx as fast as the seq reference, below the %.1fx floor", p.name, ratio, floor)
		}
	}
}
