package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"time"
)

// The speed meter is a frozen copy of the detector's inner loop: one
// RBM-shaped visible->hidden->visible pass (a 20x40 matvec, a sigmoid, the
// transposed matvec and the squared reconstruction error). It imports no
// package of the repository, so no change to the program can move it. The
// benchmark runs short bursts of it between units of work and reports each
// timed metric at the meter's nominal speed: an interval on a host that is
// 10% slow is scaled back by 10%. Longer readings at every segment barrier
// are printed beside the metrics.
const (
	meterV     = 20
	meterH     = 40
	meterIters = 6000 // passes per goroutine per reading, about 25 ms
	// meterNominalNS is the meter's ns per pass at nominal speed: a typical
	// mean reading on a 2-vCPU x86-64 VM whose single readings range from
	// about 1,700 to 4,100 ns.
	meterNominalNS = 2600.0
)

// meterState is one goroutine's weights and scratch.
type meterState struct {
	w      [meterH * meterV]float64
	bh     [meterH]float64
	bv     [meterV]float64
	x, rec [meterV]float64
	h      [meterH]float64
	sink   float64
}

func newMeterState(seed int) *meterState {
	m := &meterState{}
	// A fixed LCG fill: deterministic, independent of any library RNG.
	s := uint64(seed)*6364136223846793005 + 1442695040888963407
	next := func() float64 {
		s = s*6364136223846793005 + 1442695040888963407
		return float64(s>>11)/float64(1<<53) - 0.5
	}
	for i := range m.w {
		m.w[i] = 0.2 * next()
	}
	for i := range m.bh {
		m.bh[i] = 0.1 * next()
	}
	for i := range m.bv {
		m.bv[i] = 0.1 * next()
	}
	for i := range m.x {
		m.x[i] = next() + 0.5
	}
	return m
}

func meterSigmoid(z float64) float64 { return 1 / (1 + math.Exp(-z)) }

// pass runs one forward/backward reconstruction and returns its error.
func (m *meterState) pass() float64 {
	for j := 0; j < meterH; j++ {
		row := m.w[j*meterV : (j+1)*meterV]
		z := m.bh[j]
		for i, xi := range m.x {
			z += row[i] * xi
		}
		m.h[j] = meterSigmoid(z)
	}
	for i := 0; i < meterV; i++ {
		m.rec[i] = m.bv[i]
	}
	for j := 0; j < meterH; j++ {
		row := m.w[j*meterV : (j+1)*meterV]
		hj := m.h[j]
		for i := range m.rec {
			m.rec[i] += row[i] * hj
		}
	}
	var e float64
	for i := range m.rec {
		d := m.x[i] - meterSigmoid(m.rec[i])
		e += d * d
	}
	// Feed the error back so the passes form a dependent chain the compiler
	// cannot hoist.
	m.x[int(e*1e6)%meterV] += 1e-12
	return e
}

// meter is the host speed meter, run on as many goroutines as the workload
// keeps busy.
type meter struct {
	states   []*meterState
	readings []float64 // ns per pass, one per barrier reading
	inrun    *meterState
	samples  []meterSample
}

// meterSample is one in-run sample: when it started and the host's
// slowness then (ns per pass over the nominal).
type meterSample struct {
	at       int64
	slowness float64
}

func newMeter(goroutines int) *meter {
	mt := &meter{}
	for g := 0; g < goroutines; g++ {
		mt.states = append(mt.states, newMeterState(g+1))
	}
	mt.inrun = newMeterState(0)
	mt.samples = make([]meterSample, 0, 1<<16)
	return mt
}

// read collects garbage, then times meterIters passes on every goroutine
// at once and records the mean ns per pass.
func (mt *meter) read() float64 {
	runtime.GC()
	ns := make([]float64, len(mt.states))
	var wg sync.WaitGroup
	for g, st := range mt.states {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			var acc float64
			for i := 0; i < meterIters; i++ {
				acc += st.pass()
			}
			ns[g] = float64(time.Since(t0).Nanoseconds()) / meterIters
			st.sink += acc
		}()
	}
	wg.Wait()
	var sum float64
	for _, v := range ns {
		sum += v
	}
	r := sum / float64(len(ns))
	mt.readings = append(mt.readings, r)
	return r
}

// meterBurst is the passes of one in-run sample, about 80 us.
const meterBurst = 32

// sample times one short burst on the calling goroutine, between units of
// the workload's own work, and returns the host's slowness.
func (mt *meter) sample() float64 {
	t0 := nanotime()
	var acc float64
	for i := 0; i < meterBurst; i++ {
		acc += mt.inrun.pass()
	}
	s := float64(nanotime()-t0) / meterBurst / meterNominalNS
	mt.inrun.sink += acc
	mt.samples = append(mt.samples, meterSample{at: t0, slowness: s})
	return s
}

// slownessAt is the slowness of the first in-run sample at or after t (the
// last one for later times): a shared VM's speed changes within tens of
// milliseconds, so a latency sample is scaled by the meter sample that
// followed it within a few milliseconds.
func (mt *meter) slownessAt(t int64) float64 {
	i := sort.Search(len(mt.samples), func(i int) bool { return mt.samples[i].at >= t })
	if i == len(mt.samples) {
		i--
	}
	return mt.samples[i].slowness
}

// slowness is how much slower than nominal the host ran over the run: the
// mean of the in-run samples.
func (mt *meter) slowness() float64 {
	var sum float64
	for _, v := range mt.samples {
		sum += v.slowness
	}
	return sum / float64(len(mt.samples))
}

// median returns the median of vs (0 for none); vs is not modified.
func median(vs []float64) float64 { return quantile(vs, 0.5) }

// quantile returns the q-quantile of vs by linear interpolation between
// order statistics (0 for none); vs is not modified.
func quantile(vs []float64, q float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return sortedQuantile(s, q)
}

// sortedQuantile is quantile for sorted s.
func sortedQuantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// orderStats sorts vs in place and returns it if it holds at most keep
// values, else keep quantiles of it evenly spaced from the minimum to the
// maximum.
func orderStats(vs []float64, keep int) []float64 {
	sort.Float64s(vs)
	if len(vs) <= keep {
		return vs
	}
	out := make([]float64, keep)
	for i := range out {
		out[i] = sortedQuantile(vs, float64(i)/float64(keep-1))
	}
	return out
}
