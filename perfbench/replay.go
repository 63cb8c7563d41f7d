package main

import (
	"slices"
	"sort"
	"sync"

	"rbmim/internal/core"
	"rbmim/internal/detectors"
)

// miniBatch is RBM-IM's default mini-batch length. The replay feeds blocks
// of exactly this size, so every UpdateBatch call completes one mini-batch
// and DriftClasses names that mini-batch's classes alone: attribution is
// fixed by the benchmark, not by a scheduler.
const miniBatch = 50

// event is one drift: stream index, the stream's observation count at
// detection, and the attributed classes (sorted).
type event struct {
	stream  int
	seq     uint64
	classes []int
}

func sortEvents(evs []event) {
	sort.Slice(evs, func(a, b int) bool {
		if evs[a].stream != evs[b].stream {
			return evs[a].stream < evs[b].stream
		}
		return evs[a].seq < evs[b].seq
	})
}

// replayer feeds streams straight into one RBM-IM per stream, seeded as the
// monitor seeds them. It is the detect-replay workload and, for the wire
// workloads, the reference the served events must equal.
type replayer struct {
	dets   []*core.Detector
	seqs   []uint64
	states [][]detectors.State // per worker
	shadow *shadow             // trace runs only
}

func newReplayer(sh shape, srcs []*source) (*replayer, error) {
	r := &replayer{seqs: make([]uint64, len(srcs))}
	for _, src := range srcs {
		cfg := sh.detectorConfig()
		cfg.Seed = src.detSeed
		d, err := core.NewDetector(cfg)
		if err != nil {
			return nil, err
		}
		r.dets = append(r.dets, d)
	}
	return r, nil
}

// feed runs one block of stream i through its detector in one UpdateBatch
// call and returns the drift event it produced, if any.
func (r *replayer) feed(i int, obs []detectors.Observation, states []detectors.State) (event, bool) {
	d := r.dets[i]
	d.UpdateBatch(obs, states[:len(obs)])
	base := r.seqs[i]
	r.seqs[i] += uint64(len(obs))
	for k, st := range states[:len(obs)] {
		if st == detectors.Drift {
			cl := slices.Clone(d.DriftClasses())
			slices.Sort(cl)
			return event{stream: i, seq: base + uint64(k) + 1, classes: cl}, true
		}
	}
	return event{}, false
}

// replaySegment feeds a whole segment untimed on `workers` goroutines
// (streams split by index) and returns its events in (stream, seq) order.
func (r *replayer) replaySegment(seg *segment, workers int) []event {
	if len(r.states) < workers {
		r.states = make([][]detectors.State, workers)
		for w := range r.states {
			r.states[w] = make([]detectors.State, miniBatch)
		}
	}
	found := make([][]event, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(seg.blocks); i += workers {
				obs := seg.blocks[i].obs
				for off := 0; off < len(obs); off += miniBatch {
					blk := obs[off : off+miniBatch]
					t0 := nanotime()
					ev, ok := r.feed(i, blk, r.states[w])
					if r.shadow != nil {
						r.shadow.observe(i, blk, r.dets[i], nanotime()-t0)
					}
					if ok {
						found[w] = append(found[w], ev)
					}
				}
			}
		}()
	}
	wg.Wait()
	var evs []event
	for _, f := range found {
		evs = append(evs, f...)
	}
	sortEvents(evs)
	return evs
}

// quality is the detection-quality score of a run's events over the scored
// prefix, following the per-class evaluation basis of Wang, Minku & Yao
// (2017): recall of injected global and local drifts, mean detection delay,
// detections outside every drift window per 1k observations, and class
// attribution scored against each generator's TrueDrifts() classes.
type quality struct {
	driftRecall, localRecall, delayObs, falsePer1k, attrPrecision, attrRecall float64
}

// score matches events (any order) to the quality group's injected drifts. A drift
// at position p with width w is detected by the first event in
// [p, p+w+period/2); further events in that window are re-detections and
// add their classes to its attribution; every other event in the prefix is
// a false alarm.
func score(sh shape, srcs []*source, events []event) quality {
	limit := uint64(sh.qualityLen())
	byStream := make([][]event, len(srcs))
	for _, ev := range events {
		if ev.seq <= limit {
			byStream[ev.stream] = append(byStream[ev.stream], ev)
		}
	}
	scored := 0
	var (
		global, globalHit, local, localHit int
		delaySum                           float64
		falseAlarms                        int
		attrHit, attrNamed                 int // event classes that are true / all event classes
		truthHit, truthSize                int // true classes named / true classes of detected drifts
	)
	for i, src := range srcs {
		if !src.scored {
			continue
		}
		scored++
		evs := byStream[i]
		sortEvents(evs)
		matched := make([]bool, len(evs))
		for _, tr := range src.truths {
			lo := uint64(tr.Position)
			hi := uint64(tr.Position + tr.Width + sh.period/2)
			if hi > limit {
				// The window leaves the scored prefix: the drift is not
				// scored, but its detections are no false alarms.
				for k, ev := range evs {
					matched[k] = matched[k] || ev.seq >= lo && ev.seq < hi
				}
				continue
			}
			if tr.IsGlobal() {
				global++
			} else {
				local++
			}
			named := map[int]bool{}
			hit := false
			for k, ev := range evs {
				if ev.seq < lo || ev.seq >= hi {
					continue
				}
				matched[k] = true
				if !hit {
					hit = true
					delaySum += float64(ev.seq - lo)
				}
				for _, c := range ev.classes {
					named[c] = true
					attrNamed++
					if tr.Affects(c) {
						attrHit++
					}
				}
			}
			if !hit {
				continue
			}
			if tr.IsGlobal() {
				globalHit++
			} else {
				localHit++
			}
			size := len(tr.Classes)
			if tr.IsGlobal() {
				size = sh.classes
			}
			truthSize += size
			for c := range named {
				if tr.Affects(c) {
					truthHit++
				}
			}
		}
		for _, m := range matched {
			if !m {
				falseAlarms++
			}
		}
	}
	q := quality{
		driftRecall:   ratio(globalHit, global),
		localRecall:   ratio(localHit, local),
		falsePer1k:    1000 * float64(falseAlarms) / float64(scored*sh.qualityLen()),
		attrPrecision: ratio(attrHit, attrNamed),
		attrRecall:    ratio(truthHit, truthSize),
	}
	if hits := globalHit + localHit; hits > 0 {
		q.delayObs = delaySum / float64(hits)
	}
	return q
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
