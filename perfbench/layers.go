package main

// layerNames lists every per-layer metric with its unit; a traced run prints
// all of them, 0 where the workload does not cross the layer. The names
// reuse the live telemetry's stage names (queue_wait, detector_update,
// checkpoint_save, serve_*, rtt_*), so a number here can be checked against
// /metrics.
var layerNames = []struct {
	name, unit string
	timed      bool
}{
	{"core.update_ns_per_obs", "ns", true},
	{"core.rbm_train_us_per_batch", "us", true},
	{"core.rbm_score_us_per_batch", "us", true},
	{"stats.trend_adwin_ns_per_point", "ns", true},
	{"stats.granger_us_per_test", "us", true},
	{"core.residual_share", "ratio", false},
	{"monitor.queue_wait_p50_us", "us", true},
	{"monitor.queue_wait_p95_us", "us", true},
	{"monitor.detector_update_p50_us", "us", true},
	{"monitor.queue_high_water", "count", false},
	{"monitor.shard_skew", "ratio", false},
	{"monitor.flush_barrier_ms", "ms", false},
	{"monitor.attribution_mismatch_ratio", "ratio", false},
	{"checkpoint.writes", "count", false},
	{"checkpoint.save_us_per_stream", "us", true},
	{"checkpoint.bytes_per_stream", "B", false},
	{"checkpoint.rehydrated", "count", false},
	{"server.serve_ingest_p50_us", "us", true},
	{"server.serve_ingest_batch_p50_us", "us", true},
	{"server.replies_coalesced_ratio", "ratio", false},
	{"server.inflight_high_water", "count", false},
	{"codec.wire_bytes_per_obs", "B", false},
	{"client.submit_us", "us", true},
	{"client.window_wait_us", "us", true},
	{"client.rtt_p50_us", "us", true},
	{"client.allocs_per_obs", "count", false},
	{"self.bench_ns_per_obs", "ns", true},
	{"self.client_ns_per_obs", "ns", true},
	{"self.server_ns_per_obs", "ns", true},
	{"self.core_ns_per_obs", "ns", true},
	{"self.checkpoint_ns_per_obs", "ns", true},
	{"trace.residual_ns_per_obs", "ns", true},
	{"trace.overhead", "ratio", false},
	{"host.meter_ns", "ns", false},
	{"host.raw_obs_per_s", "1/s", false},
}

// layerMetrics collects a traced run's per-layer values.
type layerMetrics struct {
	vals   map[string]float64
	factor float64 // the run's host slowness
}

func (lm *layerMetrics) set(name string, v float64) {
	if lm.vals == nil {
		lm.vals = map[string]float64{}
	}
	lm.vals[name] = v
}

// fromShadow fills the core and stats component costs of the shadow replay.
// The residual share is the part of the replica's UpdateBatch time that
// training, scoring and the trend/ADWIN points do not cover (trend-interval
// tests, Granger on candidates, bookkeeping).
func (lm *layerMetrics) fromShadow(s *shadow) {
	t := s.totals()
	if t.blocks > 0 {
		lm.set("core.rbm_train_us_per_batch", float64(t.trainNS)/float64(t.blocks)/1e3)
		lm.set("core.rbm_score_us_per_batch", float64(t.scoreNS)/float64(t.blocks)/1e3)
	}
	if t.points > 0 {
		lm.set("stats.trend_adwin_ns_per_point", float64(t.pointNS)/float64(t.points))
	}
	if t.tests > 0 {
		lm.set("stats.granger_us_per_test", float64(t.grangerNS)/float64(t.tests)/1e3)
	}
	if t.updateNS > 0 {
		lm.set("core.residual_share", float64(t.updateNS-t.trainNS-t.scoreNS-t.pointNS)/float64(t.updateNS))
	}
}

// host records the normalisation inputs and the tracing overhead: untraced
// over traced nominal obs_per_s of the same run's alternating segments.
func (lm *layerMetrics) host(h *harness, traced, untraced summary) {
	lm.set("host.meter_ns", median(h.mt.readings))
	lm.set("host.raw_obs_per_s", untraced.rawObsPerS)
	if traced.obsPerS > 0 {
		lm.set("trace.overhead", untraced.obsPerS/traced.obsPerS)
	}
	lm.factor = h.mt.slowness()
}

// setLayers writes every per-layer metric into the result.
func (r *result) setLayers(lm layerMetrics) {
	for _, l := range layerNames {
		v := lm.vals[l.name]
		if l.timed && lm.factor > 0 {
			v /= lm.factor
		}
		r.set(l.name, v, l.unit)
	}
}
