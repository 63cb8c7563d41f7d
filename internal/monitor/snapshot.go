package monitor

import (
	"fmt"
	"io"
	"strconv"

	"rbmim/internal/telemetry"
)

// Snapshot has two canonical text encodings, shared by every consumer
// (the server's Snapshot reply and /metrics endpoint, monitorbench -json,
// driftserver's shutdown report) instead of each printing its own:
//
//   - AppendJSON / MarshalJSON: one JSON object whose keys are the Go field
//     names in declaration order, so the encoding is byte-stable for a given
//     snapshot and round-trips through encoding/json.Unmarshal;
//   - WritePrometheus: the Prometheus text exposition format under the
//     rbmim_ metric prefix, with per-class and per-shard breakdowns as
//     labelled series.

// AppendJSON appends the canonical JSON encoding of the snapshot to b and
// returns the extended slice. Field order is the struct declaration order;
// Uptime is encoded as integer nanoseconds (time.Duration's underlying
// representation, which stdlib Unmarshal accepts).
func (s Snapshot) AppendJSON(b []byte) []byte {
	field := func(name string) {
		if b[len(b)-1] != '{' {
			b = append(b, ',')
		}
		b = append(b, '"')
		b = append(b, name...)
		b = append(b, '"', ':')
	}
	num := func(name string, v int64) {
		field(name)
		b = strconv.AppendInt(b, v, 10)
	}
	unum := func(name string, v uint64) {
		field(name)
		b = strconv.AppendUint(b, v, 10)
	}
	unums := func(name string, vs []uint64) {
		field(name)
		if vs == nil {
			b = append(b, "null"...)
			return
		}
		b = append(b, '[')
		for i, v := range vs {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendUint(b, v, 10)
		}
		b = append(b, ']')
	}

	b = append(b, '{')
	num("Shards", int64(s.Shards))
	num("Streams", int64(s.Streams))
	unum("Ingested", s.Ingested)
	unum("Drifts", s.Drifts)
	unum("Warnings", s.Warnings)
	unums("DriftsByClass", s.DriftsByClass)
	unum("Dropped", s.Dropped)
	unum("IdleEvicted", s.IdleEvicted)
	unum("StreamErrors", s.StreamErrors)
	unum("Received", s.Received)
	unum("Rejected", s.Rejected)
	unum("Queued", s.Queued)
	num("QueueCap", int64(s.QueueCap))
	unum("QueueHighWater", s.QueueHighWater)
	unum("Checkpoints", s.Checkpoints)
	unum("CheckpointErrors", s.CheckpointErrors)
	unum("Rehydrated", s.Rehydrated)
	num("Subscribers", int64(s.Subscribers))
	unum("SubscriberDropped", s.SubscriberDropped)
	unum("SubscribersEvicted", s.SubscribersEvicted)
	unum("InFlightHighWater", s.InFlightHighWater)
	unum("RepliesCoalesced", s.RepliesCoalesced)
	unum("Shedded", s.Shedded)
	unum("DedupHits", s.DedupHits)
	field("ShardStreams")
	if s.ShardStreams == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, v := range s.ShardStreams {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(v), 10)
		}
		b = append(b, ']')
	}
	unums("ShardIngested", s.ShardIngested)
	num("Uptime", int64(s.Uptime))
	field("InstancesPerSec")
	b = strconv.AppendFloat(b, s.InstancesPerSec, 'g', -1, 64)
	field("Latency")
	if s.Latency == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range s.Latency {
			if i > 0 {
				b = append(b, ',')
			}
			st := &s.Latency[i]
			b = append(b, `{"Stage":`...)
			b = strconv.AppendQuote(b, st.Stage)
			b = append(b, `,"Count":`...)
			b = strconv.AppendUint(b, st.Count, 10)
			b = append(b, `,"SumNS":`...)
			b = strconv.AppendInt(b, st.SumNS, 10)
			b = append(b, `,"P50NS":`...)
			b = strconv.AppendInt(b, st.P50NS, 10)
			b = append(b, `,"P95NS":`...)
			b = strconv.AppendInt(b, st.P95NS, 10)
			b = append(b, `,"P99NS":`...)
			b = strconv.AppendInt(b, st.P99NS, 10)
			b = append(b, `,"Buckets":`...)
			if st.Buckets == nil {
				b = append(b, "null"...)
			} else {
				b = append(b, '[')
				for j, v := range st.Buckets {
					if j > 0 {
						b = append(b, ',')
					}
					b = strconv.AppendUint(b, v, 10)
				}
				b = append(b, ']')
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	b = append(b, '}')
	return b
}

// MarshalJSON implements json.Marshaler with the canonical stable-field-order
// encoding (see AppendJSON).
func (s Snapshot) MarshalJSON() ([]byte, error) {
	return s.AppendJSON(nil), nil
}

// WritePrometheus writes the snapshot in the Prometheus text exposition
// format (version 0.0.4) under the rbmim_ prefix — the payload of the
// server's /metrics endpoint.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	var err error
	emit := func(name, help, typ string, value float64) {
		if err != nil {
			return
		}
		_, err = fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %g\n", name, help, name, typ, name, value)
	}
	emit("rbmim_shards", "Worker shard count.", "gauge", float64(s.Shards))
	emit("rbmim_streams", "Live streams across all shards.", "gauge", float64(s.Streams))
	emit("rbmim_ingested_total", "Observations processed since start.", "counter", float64(s.Ingested))
	emit("rbmim_drifts_total", "Drift detections since start.", "counter", float64(s.Drifts))
	emit("rbmim_warnings_total", "Warning signals since start.", "counter", float64(s.Warnings))
	if len(s.DriftsByClass) > 0 && err == nil {
		_, err = fmt.Fprintf(w, "# HELP rbmim_drifts_by_class_total Drifts attributed to each class.\n# TYPE rbmim_drifts_by_class_total counter\n")
		for k, v := range s.DriftsByClass {
			if err != nil {
				break
			}
			_, err = fmt.Fprintf(w, "rbmim_drifts_by_class_total{class=\"%d\"} %d\n", k, v)
		}
	}
	emit("rbmim_dropped_total", "Observations dropped by TryIngest on full shard queues.", "counter", float64(s.Dropped))
	emit("rbmim_received_total", "Observations accepted into shard ring queues.", "counter", float64(s.Received))
	emit("rbmim_rejected_total", "Received observations refused at processing time (factory failures, stream caps).", "counter", float64(s.Rejected))
	emit("rbmim_queued", "Observations received but not yet processed, sampled across shard rings.", "gauge", float64(s.Queued))
	emit("rbmim_queue_capacity", "Per-shard ring capacity in envelopes.", "gauge", float64(s.QueueCap))
	emit("rbmim_queue_high_water", "Largest per-shard ring occupancy observed since the last checkpoint-flush barrier, in envelopes.", "gauge", float64(s.QueueHighWater))
	emit("rbmim_idle_evicted_total", "Streams evicted by idle GC.", "counter", float64(s.IdleEvicted))
	emit("rbmim_stream_errors_total", "Observations rejected by factory failures, stream caps, and evicts of non-resident streams.", "counter", float64(s.StreamErrors))
	emit("rbmim_checkpoints_total", "Detector snapshots written to the checkpoint store.", "counter", float64(s.Checkpoints))
	emit("rbmim_checkpoint_errors_total", "Checkpoint serialization, store, and rehydration failures.", "counter", float64(s.CheckpointErrors))
	emit("rbmim_rehydrated_total", "Streams restored from the checkpoint store.", "counter", float64(s.Rehydrated))
	emit("rbmim_subscribers", "Live event-fanout subscriptions.", "gauge", float64(s.Subscribers))
	emit("rbmim_subscriber_dropped_total", "Events dropped on full per-subscriber queues.", "counter", float64(s.SubscriberDropped))
	emit("rbmim_subscribers_evicted_total", "Subscriptions closed by the monitor for exceeding the drop eviction limit.", "counter", float64(s.SubscribersEvicted))
	emit("rbmim_inflight_high_water", "Largest pipelined in-flight request count observed on any server connection.", "gauge", float64(s.InFlightHighWater))
	emit("rbmim_replies_coalesced_total", "Reply frames coalesced into a preceding frame's socket write.", "counter", float64(s.RepliesCoalesced))
	emit("rbmim_shedded_total", "Blocking ingests refused with Busy by overload shedding.", "counter", float64(s.Shedded))
	emit("rbmim_dedup_hits_total", "Retried ingests acknowledged without re-ingesting (exactly-once dedup window).", "counter", float64(s.DedupHits))
	if len(s.ShardStreams) > 0 && err == nil {
		_, err = fmt.Fprintf(w, "# HELP rbmim_shard_streams Live streams per shard.\n# TYPE rbmim_shard_streams gauge\n")
		for i, v := range s.ShardStreams {
			if err != nil {
				break
			}
			_, err = fmt.Fprintf(w, "rbmim_shard_streams{shard=\"%d\"} %d\n", i, v)
		}
	}
	if len(s.ShardIngested) > 0 && err == nil {
		_, err = fmt.Fprintf(w, "# HELP rbmim_shard_ingested_total Observations processed per shard.\n# TYPE rbmim_shard_ingested_total counter\n")
		for i, v := range s.ShardIngested {
			if err != nil {
				break
			}
			_, err = fmt.Fprintf(w, "rbmim_shard_ingested_total{shard=\"%d\"} %d\n", i, v)
		}
	}
	emit("rbmim_uptime_seconds", "Seconds since the monitor started.", "gauge", s.Uptime.Seconds())
	emit("rbmim_instances_per_second", "Ingested / uptime.", "gauge", s.InstancesPerSec)
	if err == nil && len(s.Latency) > 0 {
		// One histogram family, one series set per stage. Latency is sorted
		// by stage name (Monitor.Snapshot assembles it sorted; MergeSnapshots
		// re-sorts), so consecutive scrapes are byte-identical.
		err = telemetry.WriteStages(w, "rbmim_stage_seconds",
			"Per-stage latency (log2 buckets): queue_wait, detector_update, checkpoint_save/put, serve_<kind>.", s.Latency)
	}
	return err
}

// MergeSnapshots folds the snapshots of several monitors (typically one per
// cluster member) into a single fleet-wide view. Counters and population
// gauges sum; DriftsByClass sums element-wise (sized to the widest member);
// ShardStreams and ShardIngested concatenate in argument order, so per-shard
// balance stays inspectable across the fleet; QueueCap, QueueHighWater,
// InFlightHighWater, and Uptime take the worst (largest) member, because a
// fleet is as saturated as its hottest node and as old as its oldest; and
// InstancesPerSec is recomputed as total Ingested over that Uptime. The
// conservation identity (Received == Ingested + Rejected + Queued at
// quiescence) survives merging because every term is a sum.
func MergeSnapshots(sns ...Snapshot) Snapshot {
	var out Snapshot
	var latencies [][]telemetry.Stage
	for _, s := range sns {
		out.Shards += s.Shards
		out.Streams += s.Streams
		out.Ingested += s.Ingested
		out.Drifts += s.Drifts
		out.Warnings += s.Warnings
		for k, v := range s.DriftsByClass {
			for len(out.DriftsByClass) <= k {
				out.DriftsByClass = append(out.DriftsByClass, 0)
			}
			out.DriftsByClass[k] += v
		}
		out.Dropped += s.Dropped
		out.IdleEvicted += s.IdleEvicted
		out.StreamErrors += s.StreamErrors
		out.Received += s.Received
		out.Rejected += s.Rejected
		out.Queued += s.Queued
		if s.QueueCap > out.QueueCap {
			out.QueueCap = s.QueueCap
		}
		if s.QueueHighWater > out.QueueHighWater {
			out.QueueHighWater = s.QueueHighWater
		}
		out.Checkpoints += s.Checkpoints
		out.CheckpointErrors += s.CheckpointErrors
		out.Rehydrated += s.Rehydrated
		out.Subscribers += s.Subscribers
		out.SubscriberDropped += s.SubscriberDropped
		out.SubscribersEvicted += s.SubscribersEvicted
		if s.InFlightHighWater > out.InFlightHighWater {
			out.InFlightHighWater = s.InFlightHighWater
		}
		out.RepliesCoalesced += s.RepliesCoalesced
		out.Shedded += s.Shedded
		out.DedupHits += s.DedupHits
		out.ShardStreams = append(out.ShardStreams, s.ShardStreams...)
		out.ShardIngested = append(out.ShardIngested, s.ShardIngested...)
		if s.Uptime > out.Uptime {
			out.Uptime = s.Uptime
		}
		if s.Latency != nil {
			latencies = append(latencies, s.Latency)
		}
	}
	if len(latencies) > 0 {
		// Same-named stages merge bucket-wise (quantiles recomputed from the
		// summed buckets), so the fleet view reports true cluster-wide
		// percentiles rather than an average of per-member percentiles.
		out.Latency = telemetry.MergeStages(latencies...)
	}
	if secs := out.Uptime.Seconds(); secs > 0 {
		out.InstancesPerSec = float64(out.Ingested) / secs
	}
	return out
}
