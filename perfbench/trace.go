package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"rbmim/internal/core"
	"rbmim/internal/detectors"
	"rbmim/internal/stats"
	"rbmim/internal/stream"
)

// epoch anchors nanotime, the benchmark's monotonic clock.
var epoch = time.Now()

func nanotime() int64 { return int64(time.Since(epoch)) }

// spanName names a layer boundary the benchmark records a span around.
type spanName uint8

const (
	spanBlock      spanName = iota // replay: one 50-observation block (root)
	spanUpdate                     // core: Detector.UpdateBatch
	spanFrame                      // wire: one request frame, submit to ack observed (root)
	spanSubmit                     // client: IngestAsync / IngestBatchAsync
	spanWindowWait                 // client: Pending.Wait for the window
	spanBarrier                    // monitor: FlushCheckpoints barrier (root)
	numSpanNames
)

var spanNames = [numSpanNames]string{"replay.block", "core.update", "client.frame", "client.submit", "client.window_wait", "monitor.flush_barrier"}

// span is one recorded interval. Spans of one frame (or block) share frame;
// parent is the id of the span that caused it (0 for a root).
type span struct {
	id, parent, frame uint64
	name              spanName
	start, end        int64
}

// maxSpans bounds the spans kept for the trace file; aggregates cover every
// span regardless.
const maxSpans = 1 << 18

// tracer records spans in memory from the benchmark's own call sites and
// aggregates each name's busy and self time as spans end. A child ends
// before its parent and siblings do not overlap, so a parent's self time is
// its duration minus its children's durations.
type tracer struct {
	on      bool
	nextID  uint64
	kept    []span
	dropped int
	count   [numSpanNames]int64
	busy    [numSpanNames]int64
	self    [numSpanNames]int64
}

// reserve hands out the id of a span that is recorded later (a root whose
// children end first).
func (t *tracer) reserve() uint64 {
	if !t.on {
		return 0
	}
	t.nextID++
	return t.nextID
}

// record ends span id (from reserve) under parent (0 for a root, whose
// parentName is ignored).
func (t *tracer) record(id uint64, name spanName, parent uint64, parentName spanName, frame uint64, start, end int64) {
	if !t.on {
		return
	}
	d := end - start
	t.count[name]++
	t.busy[name] += d
	t.self[name] += d
	if parent != 0 {
		t.self[parentName] -= d
	}
	if len(t.kept) < maxSpans {
		t.kept = append(t.kept, span{id: id, parent: parent, frame: frame, name: name, start: start, end: end})
	} else {
		t.dropped++
	}
}

// write stores the kept spans as CSV under dir.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,parent,frame,name,start_ns,end_ns")
	for _, s := range t.kept {
		fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d\n", s.id, s.parent, s.frame, spanNames[s.name], s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// shadow times the detector's components outside the program: the
// benchmark's own stream.Scaler rebuilds each mini-batch, which goes through
// a same-config core.RBM (TrainBatchUnscored, ScoreBatch), and the replica
// detector's LastErrors() series goes through SlidingTrend, ADWIN and
// GrangerCausality. It runs beside a replica replay, untimed.
type shadow struct {
	per []*shadowStream
}

type shadowStream struct {
	scaler  *stream.Scaler
	rbm     *core.RBM
	rows    [][]float64
	ys      []int
	errs    []float64
	trends  []*stats.SlidingTrend
	adwins  []*stats.ADWIN
	history [][]float64
	last    []float64
	histCap int

	updateNS, trainNS, scoreNS, pointNS, grangerNS int64
	blocks, points, tests                          int64
}

func newShadow(sh shape, dets []*core.Detector) (*shadow, error) {
	s := &shadow{}
	for _, d := range dets {
		rbm, err := core.NewRBM(d.RBM().Config())
		if err != nil {
			return nil, err
		}
		tw := d.Config().TrendWindow
		ss := &shadowStream{
			scaler:  stream.NewScaler(stream.Schema{Features: sh.features, Classes: sh.classes}),
			rbm:     rbm,
			rows:    make([][]float64, miniBatch),
			ys:      make([]int, miniBatch),
			errs:    make([]float64, miniBatch),
			last:    make([]float64, sh.classes),
			histCap: 2 * tw,
		}
		for k := range ss.rows {
			ss.rows[k] = make([]float64, sh.features)
		}
		for k := 0; k < sh.classes; k++ {
			ss.trends = append(ss.trends, stats.NewSlidingTrend(tw))
			ss.adwins = append(ss.adwins, stats.NewADWIN(0.002))
			ss.history = append(ss.history, make([]float64, 0, ss.histCap))
		}
		s.per = append(s.per, ss)
	}
	return s, nil
}

// observe shadows one block of stream i whose replica detector d has just
// consumed it in updateNS nanoseconds.
func (s *shadow) observe(i int, blk []detectors.Observation, d *core.Detector, updateNS int64) {
	ss := s.per[i]
	ss.updateNS += updateNS
	ss.blocks++
	for k := range blk {
		ss.scaler.Observe(blk[k].X)
		ss.scaler.Scale(blk[k].X, ss.rows[k])
		ss.ys[k] = blk[k].TrueClass
	}
	t0 := nanotime()
	ss.rbm.TrainBatchUnscored(ss.rows, ss.ys)
	t1 := nanotime()
	ss.rbm.ScoreBatch(ss.rows, ss.ys, ss.errs)
	t2 := nanotime()
	ss.trainNS += t1 - t0
	ss.scoreNS += t2 - t1
	for k, e := range d.LastErrors() {
		if e == ss.last[k] {
			continue // no new series point for this class
		}
		ss.last[k] = e
		p0 := nanotime()
		ss.adwins[k].Add(e)
		ss.trends[k].Add(e)
		h := ss.history[k]
		if len(h) == ss.histCap {
			copy(h, h[1:])
			h = h[:len(h)-1]
		}
		ss.history[k] = append(h, ss.trends[k].Slope())
		ss.pointNS += nanotime() - p0
		ss.points++
		if h := ss.history[k]; len(h) == ss.histCap {
			half := len(h) / 2
			g0 := nanotime()
			// Timed only: an error means a degenerate series, which the
			// detector treats as a confirmation; the cost is what counts.
			_, _ = stats.GrangerCausality(h[:half], h[half:], 1, 0.05)
			ss.grangerNS += nanotime() - g0
			ss.tests++
		}
	}
}

// totals sums the per-stream accumulators.
func (s *shadow) totals() (t shadowStream) {
	for _, ss := range s.per {
		t.updateNS += ss.updateNS
		t.trainNS += ss.trainNS
		t.scoreNS += ss.scoreNS
		t.pointNS += ss.pointNS
		t.grangerNS += ss.grangerNS
		t.blocks += ss.blocks
		t.points += ss.points
		t.tests += ss.tests
	}
	return t
}
