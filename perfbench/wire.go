package main

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"rbmim"
	"rbmim/internal/detectors"
	"rbmim/internal/telemetry"
)

// wireParams sizes a wire workload's frames, client window and shard rings.
type wireParams struct {
	frame, window, queue int
	sampleEvery          int // frames between in-run meter samples
}

var wireConfigs = map[string]wireParams{
	// 256-observation frames, window 8. The shard ring holds 2 frames, so
	// backpressure bounds the backlog and the ack and alert latencies are
	// those of a saturated server with a bounded queue. With 4 frames a
	// shard's micro-batch holds the core for about 6 ms, the alert lags
	// split into two modes a scheduling quantum apart, and their median
	// wandered by a quarter from run to run.
	"wire-batch": {frame: 256, window: 8, queue: 2, sampleEvery: 4},
	// Single-observation frames, window 16, default ring.
	"wire-single": {frame: 1, window: 16, queue: 1024, sampleEvery: 512},
}

// countingStore is the in-process checkpoint store with byte accounting.
type countingStore struct {
	*rbmim.MemStore
	puts, bytes atomic.Int64
}

func (s *countingStore) Put(id string, data []byte) error {
	s.puts.Add(1)
	s.bytes.Add(int64(len(data)))
	return s.MemStore.Put(id, data)
}

// served is one event as the subscriber received it.
type served struct {
	id      string
	seq     uint64
	classes []int
	at      int64
}

// stack is one in-process driftserver stack: a 2-shard monitor with a
// checkpoint store at the default telemetry level, its server, one pipelined
// ingest connection and one subscriber connection.
type stack struct {
	mon   *rbmim.Monitor
	srv   *rbmim.Server
	cli   *rbmim.Client
	sub   *rbmim.ClientSubscription
	store *countingStore

	mu   sync.Mutex
	got  []served
	done chan struct{}
}

func newStack(sh shape, p wireParams) (*stack, error) {
	s := &stack{store: &countingStore{MemStore: rbmim.NewMemStore()}, done: make(chan struct{})}
	var err error
	s.mon, err = rbmim.NewMonitor(rbmim.MonitorConfig{
		Detector:   sh.detectorConfig(),
		Shards:     2,
		QueueSize:  p.queue,
		Checkpoint: rbmim.CheckpointConfig{Store: s.store},
	})
	if err != nil {
		return nil, err
	}
	if s.srv, err = rbmim.NewServer(rbmim.ServerConfig{Monitor: s.mon}); err != nil {
		s.mon.Close()
		return nil, err
	}
	if s.cli, err = rbmim.DialWindow(s.srv.Addr(), p.window); err != nil {
		s.srv.Close()
		s.mon.Close()
		return nil, err
	}
	if s.sub, err = s.cli.Subscribe(0); err != nil {
		s.cli.Close()
		s.srv.Close()
		s.mon.Close()
		return nil, err
	}
	go s.collect()
	return s, nil
}

// collect receives events until the subscription closes.
func (s *stack) collect() {
	defer close(s.done)
	for ev := range s.sub.Events() {
		at := nanotime()
		s.mu.Lock()
		s.got = append(s.got, served{id: ev.StreamID, seq: ev.Seq, classes: ev.Classes, at: at})
		s.mu.Unlock()
	}
}

// awaitEvents waits until total events have arrived and returns those from
// index from on.
func (s *stack) awaitEvents(from, total int) ([]served, error) {
	deadline := time.Now().Add(10 * time.Second)
	for {
		s.mu.Lock()
		n := len(s.got)
		var out []served
		if n >= total {
			out = slices.Clone(s.got[from:n])
		}
		s.mu.Unlock()
		if out != nil || n >= total {
			return out, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("%d of %d drift events arrived", n, total)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// close tears the stack down and waits for the subscriber goroutine.
func (s *stack) close() {
	s.sub.Close()
	<-s.done
	s.cli.Close()
	s.srv.Close()
	s.mon.Close()
}

// inflight is one submitted frame awaiting its ack.
type inflight struct {
	p      rbmim.ClientPending
	t0     int64
	root   uint64
	frame  uint64
	traced bool
}

// sender is the single producer: it keeps up to window frames in flight and
// waits for the oldest when the window is full. A frame's ack latency runs
// from the start of its submit to the return of its Wait.
type sender struct {
	h      *harness
	cli    *rbmim.Client
	frame  int
	ring   []inflight
	head   int
	n      int
	frames uint64
	busy   int
	st     *segStat
	// submitAt[i][f] is the submit time of stream i's frame f of the
	// current segment, for alert lags.
	submitAt [][]int64
}

func (s *sender) send(i, f int, id string, obs []detectors.Observation, traced bool) {
	if s.n == len(s.ring) {
		s.waitOldest()
	}
	s.frames++
	s.h.attempted++
	var root uint64
	if traced {
		root = s.h.tr.reserve()
	}
	t0 := nanotime()
	var (
		p   rbmim.ClientPending
		err error
	)
	if s.frame == 1 {
		p, err = s.cli.IngestAsync(id, obs[0])
	} else {
		p, err = s.cli.IngestBatchAsync(id, obs)
	}
	t1 := nanotime()
	s.submitAt[i][f] = t0
	if err != nil {
		s.h.failOp("submit %s: %v", id, err)
		return
	}
	if traced {
		s.h.tr.record(s.h.tr.reserve(), spanSubmit, root, spanFrame, s.frames, t0, t1)
	}
	s.ring[(s.head+s.n)%len(s.ring)] = inflight{p: p, t0: t0, root: root, frame: s.frames, traced: traced}
	s.n++
}

func (s *sender) waitOldest() {
	f := s.ring[s.head]
	s.ring[s.head] = inflight{}
	s.head = (s.head + 1) % len(s.ring)
	s.n--
	w0 := nanotime()
	err := f.p.Wait()
	w1 := nanotime()
	if err != nil {
		if errors.Is(err, rbmim.ErrBusy) {
			s.busy++
		}
		s.h.failOp("ack: %v", err)
		return
	}
	s.st.acks = append(s.st.acks, latency{w1, w1 - f.t0})
	if f.traced {
		s.h.tr.record(s.h.tr.reserve(), spanWindowWait, f.root, spanFrame, f.frame, w0, w1)
		s.h.tr.record(f.root, spanFrame, 0, 0, f.frame, f.t0, w1)
	}
}

func (s *sender) drain() {
	for s.n > 0 {
		s.waitOldest()
	}
}

// runWire runs a wire workload: the stream mix through an in-process
// driftserver stack, one producer goroutine on one pipelined connection and
// a subscriber on a second. Every segment ends at a FlushCheckpoints
// barrier, after which the served events are checked against a direct
// replay of the same segment.
func runWire(cfg runConfig, sh shape) (*result, error) {
	p := wireConfigs[cfg.workload]
	const shards = 2
	srcs, err := buildSources(sh, cfg.seed, shards)
	if err != nil {
		return nil, err
	}
	index := map[string]int{}
	for i, src := range srcs {
		index[src.id] = i
	}
	framesPerSeg := sh.segLen / p.frame
	h := newHarness(cfg, shards, p.sampleEvery)
	seg := newSegment(len(srcs))
	seg.generate(srcs, sh)
	snd := &sender{h: h, frame: p.frame, ring: make([]inflight, p.window), st: &segStat{}}
	for range srcs {
		snd.submitAt = append(snd.submitAt, make([]int64, framesPerSeg))
	}

	// Set-up: stack construction until every stream's first frame has been
	// applied (the barrier returns).
	var stk *stack
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		if stk != nil {
			stk.close()
		}
		t0 := nanotime()
		if stk, err = newStack(sh, p); err != nil {
			return nil, err
		}
		snd.cli = stk.cli
		for i, src := range srcs {
			snd.send(i, 0, src.id, seg.blocks[i].obs[:p.frame], false)
		}
		snd.drain()
		if err := stk.cli.FlushCheckpoints(); err != nil {
			stk.close()
			return nil, err
		}
		d := float64(nanotime()-t0) / 1e9
		setups = append(setups, d/h.mt.sample()) // at the speed of the moment

	}
	defer stk.close()
	h.attempted -= int64((setupReps - 1) * len(srcs)) // frames of discarded stacks

	ref, err := newReplayer(sh, srcs)
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		if ref.shadow, err = newShadow(sh, ref.dets); err != nil {
			return nil, err
		}
	}
	sn0, err := stk.cli.Snapshot()
	if err != nil {
		return nil, err
	}
	sent := uint64(len(srcs) * p.frame)
	h.check(sn0.Ingested == sent && sn0.Queued == 0, "set-up: ingested %d of %d, queued %d", sn0.Ingested, sent, sn0.Queued)

	var (
		all                  []event
		matched, mismatched  int
		evictAt              = -1
		evicted              int
		queueHW              uint64
		seen                 int
		framesBeforeTimed    = snd.frames
		coalescedBeforeTimed = sn0.RepliesCoalesced
	)
	for k := 0; ; k++ {
		if k > 0 {
			t0 := nanotime()
			seg.generate(srcs, sh)
			h.untimed("generate", t0)
		}
		st := h.newSegStat(cfg.trace && k%2 == 0, len(srcs)*framesPerSeg)
		snd.st = st
		first := 0
		if k == 0 {
			first = 1 // sent during set-up
		}
		err := h.measure(st, func() (int64, error) {
			var n int64
			for f := first; f < framesPerSeg; f++ {
				for i, src := range srcs {
					snd.send(i, f, src.id, seg.blocks[i].obs[f*p.frame:(f+1)*p.frame], st.traced)
					n += int64(p.frame)
					h.tick(st)
				}
			}
			snd.drain()
			if st.traced {
				// The ring high-water mark resets at every barrier; read it
				// just before.
				sn, err := stk.cli.Snapshot()
				if err != nil {
					return n, err
				}
				queueHW = max(queueHW, sn.QueueHighWater)
			}
			b0 := nanotime()
			if err := stk.cli.FlushCheckpoints(); err != nil {
				return n, err
			}
			b1 := nanotime()
			st.barrierNS = b1 - b0
			if st.traced {
				h.tr.record(h.tr.reserve(), spanBarrier, 0, 0, 0, b0, b1)
			}
			return n, nil
		})
		if err != nil {
			return nil, err
		}
		sent += uint64(st.obs)

		// Conservation at the barrier.
		sn, err := stk.cli.Snapshot()
		if err != nil {
			return nil, err
		}
		h.check(sn.Ingested == sent && sn.Queued == 0, "segment %d: ingested %d of %d sent, queued %d", k, sn.Ingested, sent, sn.Queued)

		// Served drift positions must equal a direct replay's.
		t0 := nanotime()
		got, err := stk.awaitEvents(seen, int(sn.Drifts))
		h.untimed("await_events", t0)
		if err != nil {
			return nil, err
		}
		seen += len(got)
		t0 = nanotime()
		want := ref.replaySegment(seg, shards)
		h.untimed("reference_replay", t0)
		evs := make([]event, 0, len(got))
		for _, g := range got {
			i := index[g.id]
			cl := slices.Clone(g.classes)
			slices.Sort(cl)
			evs = append(evs, event{stream: i, seq: g.seq, classes: cl})
			if f := int((g.seq-1)/uint64(p.frame)) - k*framesPerSeg; f >= 0 && f < framesPerSeg {
				st.lags = append(st.lags, latency{g.at, g.at - snd.submitAt[i][f]})
			}
		}
		sortEvents(evs)
		ok := sameEvents(evs, want, false)
		h.check(ok, "segment %d: served drift (stream, seq) set differs from the replay reference (%d served, %d reference)", k, len(evs), len(want))
		if ok {
			for j := range evs {
				matched++
				if !slices.Equal(evs[j].classes, want[j].classes) {
					mismatched++
				}
			}
		}
		all = append(all, evs...)

		// Mid-run: evict every 8th stream; each rehydrates on its next frame.
		if evictAt < 0 && float64(h.elapsedNS)/1e9 >= cfg.seconds/2 {
			for i := 7; i < len(srcs); i += 8 {
				h.attempted++
				if err := stk.cli.Evict(srcs[i].id); err != nil {
					h.failOp("evict %s: %v", srcs[i].id, err)
					continue
				}
				evicted++
			}
			if err := stk.cli.FlushCheckpoints(); err != nil {
				return nil, err
			}
			evictAt = k
		}
		h.closeSegment(st)
		if h.done(sh.qualitySegs) && evictAt >= 0 && k > evictAt {
			break
		}
	}
	snEnd, err := stk.cli.Snapshot()
	if err != nil {
		return nil, err
	}
	h.check(snEnd.Rehydrated == uint64(evicted), "rehydrated %d of %d evicted streams", snEnd.Rehydrated, evicted)
	h.check(snd.busy == 0 && snEnd.Shedded == 0, "%d Busy replies, %d shed", snd.busy, snEnd.Shedded)
	h.check(snEnd.SubscriberDropped == 0, "subscriber dropped %d events", snEnd.SubscriberDropped)
	h.check(snEnd.CheckpointErrors == 0, "%d checkpoint errors", snEnd.CheckpointErrors)

	q := score(sh, srcs, all)
	res := newResult(h)
	if !cfg.trace {
		s := summarize(h.segs, h.mt)
		res.setEndToEnd(s, median(setups), q)
		res.noteRun(h, s)
		return res, nil
	}

	traced, untraced := summarize(h.segments(true), h.mt), summarize(h.segments(false), h.mt)
	lm := layerMetrics{}
	lm.fromShadow(ref.shadow)
	stage := func(name string) telemetry.Stage { return stageDelta(sn0.Latency, snEnd.Latency, name) }
	timedObs := float64(sent) - float64(len(srcs)*p.frame)
	det, qw := stage("detector_update"), stage("queue_wait")
	save, put := stage("checkpoint_save"), stage("checkpoint_put")
	serve := stage("serve_ingest_batch")
	if p.frame == 1 {
		serve = stage("serve_ingest")
	}
	lm.set("core.update_ns_per_obs", float64(det.SumNS)/timedObs)
	lm.set("monitor.queue_wait_p50_us", float64(qw.P50NS)/1e3)
	lm.set("monitor.queue_wait_p95_us", float64(qw.P95NS)/1e3)
	lm.set("monitor.detector_update_p50_us", float64(det.P50NS)/1e3)
	lm.set("monitor.queue_high_water", float64(queueHW))
	lm.set("monitor.shard_skew", skew(snEnd.ShardIngested))
	lm.set("monitor.flush_barrier_ms", traced.barrierMS)
	lm.set("monitor.attribution_mismatch_ratio", ratio(mismatched, matched))
	lm.set("checkpoint.writes", float64(snEnd.Checkpoints-sn0.Checkpoints))
	if save.Count > 0 {
		lm.set("checkpoint.save_us_per_stream", float64(save.SumNS)/float64(save.Count)/1e3)
	}
	if n := stk.store.puts.Load(); n > 0 {
		lm.set("checkpoint.bytes_per_stream", float64(stk.store.bytes.Load())/float64(n))
	}
	lm.set("checkpoint.rehydrated", float64(snEnd.Rehydrated))
	lm.set("server.serve_ingest_p50_us", float64(stage("serve_ingest").P50NS)/1e3)
	lm.set("server.serve_ingest_batch_p50_us", float64(stage("serve_ingest_batch").P50NS)/1e3)
	lm.set("server.replies_coalesced_ratio", float64(snEnd.RepliesCoalesced-coalescedBeforeTimed)/float64(snd.frames-framesBeforeTimed))
	lm.set("server.inflight_high_water", float64(snEnd.InFlightHighWater))
	lm.set("codec.wire_bytes_per_obs", traced.wcharPerObs)
	tr := &h.tr
	tobs := float64(traced.obs)
	if c := tr.count[spanSubmit]; c > 0 {
		lm.set("client.submit_us", float64(tr.busy[spanSubmit])/float64(c)/1e3)
	}
	if c := tr.count[spanWindowWait]; c > 0 {
		lm.set("client.window_wait_us", float64(tr.busy[spanWindowWait])/float64(c)/1e3)
	}
	rtt := "rtt_ingest_batch"
	if p.frame == 1 {
		rtt = "rtt_ingest"
	}
	lm.set("client.rtt_p50_us", float64(stageDelta(nil, stk.cli.Latency(), rtt).P50NS)/1e3)
	lm.set("client.allocs_per_obs", traced.mallocsPerObs)
	client := float64(tr.busy[spanSubmit]) / tobs
	// A serve_* span includes the time a request blocks on a full shard
	// ring, which is waiting, not work: the server's self time is the median
	// service time times the request count.
	server := float64(serve.P50NS) * float64(serve.Count) / timedObs
	core := float64(det.SumNS) / timedObs
	ckpt := float64(save.SumNS+put.SumNS) / timedObs
	lm.set("self.client_ns_per_obs", client)
	lm.set("self.server_ns_per_obs", server)
	lm.set("self.core_ns_per_obs", core)
	lm.set("self.checkpoint_ns_per_obs", ckpt)
	// The residual is the core time of the traced segments (wall time on
	// both cores) per observation that no layer covers: idle cores, socket
	// reads and writes outside serve_*, ring hand-offs, the subscriber, GC.
	lm.set("trace.residual_ns_per_obs", shards*1e9/traced.rawObsPerS-client-server-core-ckpt)
	lm.host(h, traced, untraced)
	res.setLayers(lm)
	res.noteRun(h, traced)
	res.note("evicted %d streams at segment %d; %d of %d served events carry other classes than the replay", evicted, evictAt, mismatched, matched)
	path, err := h.tr.write(".bench_build/trace", fmt.Sprintf("%s-%d.csv", cfg.workload, cfg.seed))
	if err != nil {
		return nil, err
	}
	res.note("spans: %s (%d kept, %d dropped)", path, len(h.tr.kept), h.tr.dropped)
	return res, nil
}

// stageDelta is stage name's histogram accumulated between two snapshots,
// with quantiles recomputed from the bucket differences.
func stageDelta(before, after []telemetry.Stage, name string) telemetry.Stage {
	var a, b telemetry.Stage
	for _, s := range before {
		if s.Stage == name {
			a = s
		}
	}
	for _, s := range after {
		if s.Stage == name {
			b = s
		}
	}
	d := telemetry.Stage{Stage: name, Count: b.Count - a.Count, SumNS: b.SumNS - a.SumNS, Buckets: slices.Clone(b.Buckets)}
	for i := range d.Buckets {
		if i < len(a.Buckets) {
			d.Buckets[i] -= a.Buckets[i]
		}
	}
	d.P50NS = telemetry.Quantile(d.Buckets, 0.50)
	d.P95NS = telemetry.Quantile(d.Buckets, 0.95)
	d.P99NS = telemetry.Quantile(d.Buckets, 0.99)
	return d
}

// skew is the busiest shard's observations over the idlest's.
func skew(perShard []uint64) float64 {
	if len(perShard) == 0 {
		return 0
	}
	lo, hi := perShard[0], perShard[0]
	for _, v := range perShard {
		lo, hi = min(lo, v), max(hi, v)
	}
	if lo == 0 {
		return 0
	}
	return float64(hi) / float64(lo)
}
