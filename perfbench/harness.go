package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"syscall"
)

// runConfig is one invocation's arguments.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

// segStat is one segment's timed measurements.
type segStat struct {
	traced     bool
	obs        int64
	wallNS     int64
	nominalNS  float64 // wall time scaled interval by interval to nominal speed
	cpuNS      int64
	allocBytes uint64
	mallocs    uint64
	wchar      int64
	barrierNS  int64
	meterNS    int64 // in-run meter samples inside the timed region
	// acks and lags are the raw latency samples of the open segment;
	// closeSegment turns them into ackMS and lagMS at nominal speed.
	acks, lags   []latency
	ackMS, lagMS []float64
}

// latency is one raw latency sample and when it ended.
type latency struct {
	at, ns int64
}

// harness runs the timed segment loop shared by every workload: each
// segment is measured, then the meter is read at its closing barrier.
type harness struct {
	cfg       runConfig
	mt        *meter
	segs      []*segStat
	tr        tracer
	attempted int64
	failed    int64
	elapsedNS int64
	// sampleEvery is the operations between in-run meter samples;
	// meterIsIdle marks workloads whose only goroutine the samples stall, so
	// their time is taken out of the segment's wall time.
	sampleEvery int
	meterIsIdle bool
	ops         int
	mark        int64   // end of the latest sample (or segment start)
	markSlow    float64 // slowness of the latest sample
	// untimedNS is wall time spent outside the timed region, by activity.
	untimedNS map[string]int64
	ackBuf    []latency
}

// untimed charges the wall time since t0 to an untimed activity.
func (h *harness) untimed(activity string, t0 int64) {
	if h.untimedNS == nil {
		h.untimedNS = map[string]int64{}
	}
	h.untimedNS[activity] += nanotime() - t0
}

func newHarness(cfg runConfig, meterGoroutines, sampleEvery int) *harness {
	h := &harness{cfg: cfg, mt: newMeter(meterGoroutines), sampleEvery: sampleEvery, meterIsIdle: meterGoroutines == 1}
	h.tr.on = cfg.trace
	h.mt.read()
	h.markSlow = h.mt.sample()
	return h
}

// tick counts one operation and takes an in-run meter sample every
// sampleEvery operations.
// The wall time since the previous sample is scaled by this sample's
// slowness.
func (h *harness) tick(st *segStat) {
	h.ops++
	if h.ops%h.sampleEvery != 0 {
		return
	}
	t0 := nanotime()
	s := h.mt.sample()
	t1 := nanotime()
	st.meterNS += t1 - t0
	end := t0
	if !h.meterIsIdle {
		end = t1 // the other goroutines kept working during the sample
	}
	st.nominalNS += float64(end-h.mark) / s
	h.mark, h.markSlow = t1, s
}

// check counts one output check; a failed one fails the run.
func (h *harness) check(ok bool, format string, args ...any) {
	h.attempted++
	if !ok {
		h.failed++
		fmt.Fprintf(os.Stderr, "check failed: "+format+"\n", args...)
	}
}

// failOp counts a failed operation that was already counted as attempted.
func (h *harness) failOp(format string, args ...any) {
	h.failed++
	fmt.Fprintf(os.Stderr, "failed: "+format+"\n", args...)
}

// measure runs one segment's timed step, which returns the observations it
// processed.
func (h *harness) measure(st *segStat, step func() (int64, error)) error {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0, w0 := cpuNS(), wcharBytes()
	t0 := nanotime()
	h.mark = t0
	obs, err := step()
	t1 := nanotime()
	st.nominalNS += float64(t1-h.mark) / h.markSlow
	c1, w1 := cpuNS(), wcharBytes()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return err
	}
	st.obs, st.wallNS, st.cpuNS = obs, t1-t0, c1-c0-st.meterNS
	if h.meterIsIdle {
		st.wallNS -= st.meterNS
	}
	st.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	st.mallocs = m1.Mallocs - m0.Mallocs
	st.wchar = w1 - w0
	h.elapsedNS += st.wallNS
	return nil
}

// newSegStat starts a segment's measurements with room for acks ack
// samples, reusing the previous segment's buffer, so that the timed region
// allocates none.
func (h *harness) newSegStat(traced bool, acks int) *segStat {
	if cap(h.ackBuf) < acks {
		h.ackBuf = make([]latency, 0, acks)
	}
	return &segStat{traced: traced, acks: h.ackBuf[:0], lags: make([]latency, 0, 64)}
}

// ackKeep is how many order statistics of a segment's ack latencies are kept
// once the segment closes. A wire-single segment has 128,000 acks; keeping
// them all would grow the heap by megabytes per segment, and rss_mb would
// measure the benchmark's sample buffers rather than the system.
const ackKeep = 1024

// closeSegment scales the segment's latency samples to nominal speed, keeps
// ackKeep order statistics of its acks, reads the meter and files the
// segment. Segments of a run carry nearly equal ack counts, so the pooled
// order statistics stand for the pooled samples.
func (h *harness) closeSegment(st *segStat) {
	t0 := nanotime()
	acks := make([]float64, len(st.acks))
	for i, a := range st.acks {
		acks[i] = float64(a.ns) / h.mt.slownessAt(a.at) / 1e6
	}
	st.ackMS = orderStats(acks, ackKeep)
	for _, l := range st.lags {
		st.lagMS = append(st.lagMS, float64(l.ns)/h.mt.slownessAt(l.at)/1e6)
	}
	st.acks, st.lags = nil, nil
	h.untimed("latency_samples", t0)
	t0 = nanotime()
	h.mt.read()
	h.untimed("meter", t0)
	h.segs = append(h.segs, st)
}

// done reports whether the run has measured long enough and scored its
// quality prefix.
func (h *harness) done(minSegs int) bool {
	return float64(h.elapsedNS)/1e9 >= h.cfg.seconds && len(h.segs) >= minSegs
}

// segments selects the traced or the untraced segments.
func (h *harness) segments(traced bool) []*segStat {
	var out []*segStat
	for _, s := range h.segs {
		if s.traced == traced {
			out = append(out, s)
		}
	}
	return out
}

// summary is the nominal-speed timing summary of a set of segments.
type summary struct {
	obsPerS, rawObsPerS                     float64
	ackP50, ackP99, lagP50, lagP90          float64 // ms
	cpuUSPerObs, allocPerObs, mallocsPerObs float64
	wcharPerObs, barrierMS                  float64
	obs                                     int64
}

func summarize(segs []*segStat, mt *meter) summary {
	var s summary
	var barriers, acks, lags []float64
	var alloc, mallocs uint64
	var wchar, wall, cpu int64
	var nominal float64
	f := mt.slowness()
	for _, st := range segs {
		barriers = append(barriers, float64(st.barrierNS)/f/1e6)
		acks = append(acks, st.ackMS...)
		lags = append(lags, st.lagMS...)
		nominal += st.nominalNS
		alloc += st.allocBytes
		mallocs += st.mallocs
		wchar += st.wchar
		wall += st.wallNS
		s.obs += st.obs
		cpu += st.cpuNS
	}
	s.barrierMS = median(barriers)
	s.ackP50, s.ackP99 = quantile(acks, 0.5), quantile(acks, 0.99)
	s.lagP50, s.lagP90 = quantile(lags, 0.5), quantile(lags, 0.9)
	if s.obs > 0 {
		s.rawObsPerS = float64(s.obs) / (float64(wall) / 1e9)
		s.obsPerS = float64(s.obs) / (nominal / 1e9)
		s.cpuUSPerObs = float64(cpu) / f / float64(s.obs) / 1e3
		s.allocPerObs = float64(alloc) / float64(s.obs)
		s.mallocsPerObs = float64(mallocs) / float64(s.obs)
		s.wcharPerObs = float64(wchar) / float64(s.obs)
	}
	return s
}

// cpuNS is the process's user+system CPU time.
func cpuNS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// rssMB is the process's resident set after a collection that returns
// freed memory to the OS: the memory the loaded system keeps, without the
// garbage-collector timing that makes the peak wander from run to run. The
// idle server goroutines can still free memory after a collection, so it
// takes the least of three readings.
func rssMB() float64 {
	var least int64
	for range 3 {
		debug.FreeOSMemory()
		data, err := os.ReadFile("/proc/self/statm")
		if err != nil {
			return 0
		}
		f := bytes.Fields(data)
		if len(f) < 2 {
			return 0
		}
		pages, _ := strconv.ParseInt(string(f[1]), 10, 64)
		if least == 0 || pages < least {
			least = pages
		}
	}
	return float64(least*int64(os.Getpagesize())) / (1 << 20)
}

// wcharBytes is the bytes the process has passed to write(2)-family calls,
// socket writes included (0 where /proc/self/io is unavailable).
func wcharBytes() int64 {
	data, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if v, ok := bytes.CutPrefix(line, []byte("wchar: ")); ok {
			n, _ := strconv.ParseInt(string(v), 10, 64)
			return n
		}
	}
	return 0
}
