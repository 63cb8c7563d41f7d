package metrics

import (
	"math"
	"sort"
)

// windowEntry is one buffered outcome inside the evaluation window.
type windowEntry struct {
	trueClass int
	predicted int
	scores    []float64
}

// Prequential computes windowed multi-class metrics over a stream of
// prediction outcomes, in the test-then-train fashion: each outcome enters
// exactly one window; when a window fills, its pmAUC/pmGM/accuracy/kappa
// values are folded into running prequential means. The paper uses window
// size W = 1000.
type Prequential struct {
	classes int
	window  int
	buf     []windowEntry

	nWindows  float64
	sumAUC    float64
	sumGM     float64
	sumAcc    float64
	sumKappa  float64
	seriesAUC []float64
}

// NewPrequential builds an evaluator with the given class count and window
// size (<= 0 selects the paper's 1000).
func NewPrequential(classes, window int) *Prequential {
	if window <= 0 {
		window = 1000
	}
	return &Prequential{classes: classes, window: window}
}

// Add records one prequential outcome. scores may be nil; pmAUC then treats
// the prediction as a degenerate one-hot score vector.
func (p *Prequential) Add(trueClass, predicted int, scores []float64) {
	var sc []float64
	if scores != nil {
		sc = append([]float64(nil), scores...)
	}
	p.buf = append(p.buf, windowEntry{trueClass: trueClass, predicted: predicted, scores: sc})
	if len(p.buf) >= p.window {
		p.flush()
	}
}

// flush folds the current window into the running means.
func (p *Prequential) flush() {
	if len(p.buf) == 0 {
		return
	}
	auc := windowAUC(p.buf, p.classes)
	gm := windowGMean(p.buf, p.classes)
	cm := NewConfusionMatrix(p.classes)
	for _, e := range p.buf {
		cm.Add(e.trueClass, e.predicted)
	}
	p.nWindows++
	p.sumAUC += auc
	p.sumGM += gm
	p.sumAcc += cm.Accuracy()
	p.sumKappa += cm.Kappa()
	p.seriesAUC = append(p.seriesAUC, auc)
	p.buf = p.buf[:0]
}

// Finish folds any partial window (call once at end of stream).
func (p *Prequential) Finish() {
	if len(p.buf) >= p.window/10 && len(p.buf) > 1 {
		p.flush()
	} else {
		p.buf = p.buf[:0]
	}
}

// PMAUC returns the prequential multi-class AUC in [0, 100].
func (p *Prequential) PMAUC() float64 {
	if p.nWindows == 0 {
		return 0
	}
	return 100 * p.sumAUC / p.nWindows
}

// PMGM returns the prequential multi-class G-mean in [0, 100].
func (p *Prequential) PMGM() float64 {
	if p.nWindows == 0 {
		return 0
	}
	return 100 * p.sumGM / p.nWindows
}

// Accuracy returns the prequential accuracy in [0, 100].
func (p *Prequential) Accuracy() float64 {
	if p.nWindows == 0 {
		return 0
	}
	return 100 * p.sumAcc / p.nWindows
}

// Kappa returns the prequential Cohen's kappa in [-100, 100].
func (p *Prequential) Kappa() float64 {
	if p.nWindows == 0 {
		return 0
	}
	return 100 * p.sumKappa / p.nWindows
}

// SeriesAUC returns the per-window pmAUC series (fractions in [0,1]).
func (p *Prequential) SeriesAUC() []float64 { return p.seriesAUC }

// windowAUC computes the Hand & Till M-measure over one window: the mean of
// pairwise AUCs A(i,j) over all unordered class pairs present in the window,
// where A(i,j) uses class-i scores to separate class i from class j.
func windowAUC(buf []windowEntry, classes int) float64 {
	// Group indices per class.
	byClass := make([][]int, classes)
	for idx, e := range buf {
		if e.trueClass >= 0 && e.trueClass < classes {
			byClass[e.trueClass] = append(byClass[e.trueClass], idx)
		}
	}
	score := func(e windowEntry, k int) float64 {
		if e.scores != nil && k < len(e.scores) {
			return e.scores[k]
		}
		if e.predicted == k {
			return 1
		}
		return 0
	}
	sum, pairs := 0.0, 0
	for i := 0; i < classes; i++ {
		if len(byClass[i]) == 0 {
			continue
		}
		for j := i + 1; j < classes; j++ {
			if len(byClass[j]) == 0 {
				continue
			}
			aij := pairAUC(buf, byClass[i], byClass[j], func(e windowEntry) float64 { return score(e, i) })
			aji := pairAUC(buf, byClass[j], byClass[i], func(e windowEntry) float64 { return score(e, j) })
			sum += (aij + aji) / 2
			pairs++
		}
	}
	if pairs == 0 {
		return 0
	}
	return sum / float64(pairs)
}

// pairAUC is the Mann-Whitney AUC of positives vs negatives under the given
// scoring function, with ties counted half.
func pairAUC(buf []windowEntry, pos, neg []int, score func(windowEntry) float64) float64 {
	type sv struct {
		s   float64
		pos bool
	}
	all := make([]sv, 0, len(pos)+len(neg))
	for _, i := range pos {
		all = append(all, sv{score(buf[i]), true})
	}
	for _, i := range neg {
		all = append(all, sv{score(buf[i]), false})
	}
	sort.Slice(all, func(a, b int) bool { return all[a].s < all[b].s })
	// Rank-sum with mid-ranks for ties.
	var rankSum float64
	for i := 0; i < len(all); {
		j := i
		for j < len(all) && all[j].s == all[i].s {
			j++
		}
		mid := float64(i+j+1) / 2
		for k := i; k < j; k++ {
			if all[k].pos {
				rankSum += mid
			}
		}
		i = j
	}
	np, nn := float64(len(pos)), float64(len(neg))
	if np == 0 || nn == 0 {
		return 0.5
	}
	u := rankSum - np*(np+1)/2
	return u / (np * nn)
}

// windowGMean computes the geometric mean of per-class recalls over the
// window, considering only classes that appear in it.
func windowGMean(buf []windowEntry, classes int) float64 {
	hits := make([]float64, classes)
	totals := make([]float64, classes)
	for _, e := range buf {
		if e.trueClass < 0 || e.trueClass >= classes {
			continue
		}
		totals[e.trueClass]++
		if e.trueClass == e.predicted {
			hits[e.trueClass]++
		}
	}
	logSum, n := 0.0, 0
	for k := 0; k < classes; k++ {
		if totals[k] == 0 {
			continue
		}
		r := hits[k] / totals[k]
		n++
		if r <= 0 {
			// One fully-missed class zeroes the geometric mean; floor it
			// slightly so streams remain comparable (standard practice).
			r = 1.0 / (totals[k] + 1)
		}
		logSum += math.Log(r)
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}
