package main

import (
	"fmt"
	"slices"

	"rbmim/internal/detectors"
)

// runReplay is the detect-replay workload: a single-threaded baseline of the
// serving job. Every stream is fed straight into its own RBM-IM with
// UpdateBatch, one 50-observation block at a time, round-robin over the
// streams; the wire and the monitor are bypassed.
func runReplay(cfg runConfig, sh shape) (*result, error) {
	// IDs are placed for two shards, as in wire-batch, so both workloads
	// give every stream the same ID and detector seed.
	srcs, err := buildSources(sh, cfg.seed, 2)
	if err != nil {
		return nil, err
	}
	h := newHarness(cfg, 1, 8)
	seg := newSegment(len(srcs))
	seg.generate(srcs, sh)
	states := make([]detectors.State, miniBatch)

	// Set-up: construct every detector and apply each stream's first block.
	var rp *replayer
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		t0 := nanotime()
		if rp, err = newReplayer(sh, srcs); err != nil {
			return nil, err
		}
		for i := range srcs {
			rp.feed(i, seg.blocks[i].obs[:miniBatch], states)
		}
		d := float64(nanotime()-t0) / 1e9
		setups = append(setups, d/h.mt.sample()) // at the speed of the moment
	}

	var replica *replayer
	if cfg.trace {
		if replica, err = newReplayer(sh, srcs); err != nil {
			return nil, err
		}
		if replica.shadow, err = newShadow(sh, replica.dets); err != nil {
			return nil, err
		}
	}

	var events []event
	blocksPerSeg := len(srcs) * sh.segLen / miniBatch
	var frame uint64
	for k := 0; ; k++ {
		if k > 0 {
			t0 := nanotime()
			seg.generate(srcs, sh)
			h.untimed("generate", t0)
		}
		first := 0
		if k == 0 {
			first = miniBatch // applied during set-up
		}
		st := h.newSegStat(cfg.trace && k%2 == 0, blocksPerSeg)
		err := h.measure(st, func() (int64, error) {
			var n int64
			for off := first; off < sh.segLen; off += miniBatch {
				for i := range srcs {
					blk := seg.blocks[i].obs[off : off+miniBatch]
					t0 := nanotime()
					ev, drifted := rp.feed(i, blk, states)
					t1 := nanotime()
					st.acks = append(st.acks, latency{t1, t1 - t0})
					if drifted {
						st.lags = append(st.lags, latency{t1, t1 - t0})
						events = append(events, ev)
					}
					n += miniBatch
					if st.traced {
						frame++
						root := h.tr.reserve()
						h.tr.record(h.tr.reserve(), spanUpdate, root, spanBlock, frame, t0, t1)
						h.tr.record(root, spanBlock, 0, 0, frame, t0, nanotime())
					}
					h.tick(st)
				}
			}
			return n, nil
		})
		if err != nil {
			return nil, err
		}
		if replica != nil {
			// The replica replays the same segment untimed; its events must
			// equal the timed replay's, class lists included.
			t0 := nanotime()
			got := replica.replaySegment(seg, 2)
			h.untimed("replica_replay", t0)
			want := eventsOfSegment(events, sh, k)
			h.check(sameEvents(got, want, true), "segment %d: replica replay events differ from the timed replay", k)
		}
		h.closeSegment(st)
		if h.done(sh.qualitySegs) {
			break
		}
	}
	for _, ev := range events {
		ok := ev.seq%miniBatch == 0 && len(ev.classes) > 0 && ev.classes[0] >= 0 && ev.classes[len(ev.classes)-1] < sh.classes
		h.check(ok, "event stream %d seq %d classes %v is not a mini-batch drift", ev.stream, ev.seq, ev.classes)
	}
	h.check(len(events) > 0, "no drift detected")

	q := score(sh, srcs, events)
	res := newResult(h)
	res.Attempted += int64(len(h.segs)) // one replay pass per segment
	if !cfg.trace {
		s := summarize(h.segs, h.mt)
		res.setEndToEnd(s, median(setups), q)
		res.noteRun(h, s)
		return res, nil
	}
	traced, untraced := summarize(h.segments(true), h.mt), summarize(h.segments(false), h.mt)
	lm := layerMetrics{}
	lm.fromShadow(replica.shadow)
	obs := float64(traced.obs)
	lm.set("core.update_ns_per_obs", float64(h.tr.busy[spanUpdate])/obs)
	lm.set("self.core_ns_per_obs", float64(h.tr.self[spanUpdate])/obs)
	lm.set("self.bench_ns_per_obs", float64(h.tr.self[spanBlock])/obs)
	// The residual is the wall time per observation outside every block.
	lm.set("trace.residual_ns_per_obs", 1e9/traced.rawObsPerS-float64(h.tr.busy[spanBlock])/obs)
	lm.host(h, traced, untraced)
	res.setLayers(lm)
	res.noteRun(h, traced)
	path, err := h.tr.write(".bench_build/trace", fmt.Sprintf("%s-%d.csv", cfg.workload, cfg.seed))
	if err != nil {
		return nil, err
	}
	res.note("spans: %s (%d kept, %d dropped)", path, len(h.tr.kept), h.tr.dropped)
	return res, nil
}

// eventsOfSegment selects the events whose seq falls in segment k.
func eventsOfSegment(evs []event, sh shape, k int) []event {
	lo, hi := uint64(k*sh.segLen), uint64((k+1)*sh.segLen)
	var out []event
	for _, ev := range evs {
		if ev.seq > lo && ev.seq <= hi {
			out = append(out, ev)
		}
	}
	sortEvents(out)
	return out
}

// sameEvents compares two (stream, seq)-sorted event lists, with or without
// their class lists.
func sameEvents(a, b []event, classes bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].stream != b[i].stream || a[i].seq != b[i].seq {
			return false
		}
		if classes && !slices.Equal(a[i].classes, b[i].classes) {
			return false
		}
	}
	return true
}
