package monitor

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"rbmim/internal/telemetry"
	"rbmim/internal/telemetry/telemetrytest"
)

func testSnapshot() Snapshot {
	return Snapshot{
		Shards:             4,
		Streams:            17,
		Ingested:           123456,
		Drifts:             42,
		Warnings:           7,
		DriftsByClass:      []uint64{3, 0, 39},
		Dropped:            5,
		IdleEvicted:        1,
		StreamErrors:       9,
		Received:           123465,
		Rejected:           9,
		Queued:             0,
		QueueCap:           1024,
		QueueHighWater:     512,
		Checkpoints:        88,
		CheckpointErrors:   1,
		Rehydrated:         6,
		Subscribers:        3,
		SubscriberDropped:  11,
		SubscribersEvicted: 1,
		InFlightHighWater:  16,
		RepliesCoalesced:   2048,
		Shedded:            13,
		DedupHits:          21,
		ShardStreams:       []int{5, 4, 4, 4},
		ShardIngested:      []uint64{31000, 30000, 31456, 31000},
		Uptime:             90 * time.Second,
		InstancesPerSec:    1371.7333333333333,
		Latency:            testStages(),
	}
}

// testStages builds latency stages through real histograms so the stored
// quantiles are consistent with the bucket vectors.
func testStages() []telemetry.Stage {
	var qw, det telemetry.Histogram
	for i := int64(1); i <= 1<<20; i *= 2 {
		qw.Observe(i)
		det.Observe(i * 3)
	}
	return []telemetry.Stage{det.Load("detector_update"), qw.Load("queue_wait")}
}

// TestSnapshotJSONRoundTrip: the canonical encoding must round-trip through
// stdlib Unmarshal field-for-field (the server's Snapshot reply decodes this
// way) and be byte-stable across calls.
func TestSnapshotJSONRoundTrip(t *testing.T) {
	sn := testSnapshot()
	data, err := json.Marshal(sn)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sn, back) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", back, sn)
	}
	if again, _ := json.Marshal(sn); !bytes.Equal(data, again) {
		t.Fatal("encoding is not byte-stable across calls")
	}
	// Nil slices must survive too (a custom-factory monitor has nil
	// DriftsByClass).
	sn.DriftsByClass = nil
	data, err = json.Marshal(sn)
	if err != nil {
		t.Fatal(err)
	}
	back = Snapshot{}
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.DriftsByClass != nil {
		t.Fatalf("nil DriftsByClass decoded as %v", back.DriftsByClass)
	}
}

// TestSnapshotJSONStableFieldOrder pins the declaration order of the keys —
// the property ad-hoc struct printing (and map-based encoders) cannot give.
func TestSnapshotJSONStableFieldOrder(t *testing.T) {
	data := string(testSnapshot().AppendJSON(nil))
	order := []string{
		"Shards", "Streams", "Ingested", "Drifts", "Warnings",
		"DriftsByClass", "Dropped", "IdleEvicted",
		"StreamErrors", "Received", "Rejected", "Queued", "QueueCap",
		"QueueHighWater", "Checkpoints", "CheckpointErrors", "Rehydrated",
		"Subscribers", "SubscriberDropped", "SubscribersEvicted",
		"InFlightHighWater", "RepliesCoalesced", "Shedded", "DedupHits",
		"ShardStreams", "ShardIngested", "Uptime", "InstancesPerSec",
		"Latency",
	}
	pos := -1
	for _, key := range order {
		i := strings.Index(data, `"`+key+`"`)
		if i < 0 {
			t.Fatalf("key %q missing from %s", key, data)
		}
		if i < pos {
			t.Fatalf("key %q out of declaration order in %s", key, data)
		}
		pos = i
	}
	// The field set must not silently diverge from the struct.
	if n := reflect.TypeOf(Snapshot{}).NumField(); n != len(order) {
		t.Fatalf("Snapshot has %d fields but the canonical encoding emits %d — update AppendJSON and this test", n, len(order))
	}
}

// TestSnapshotPrometheus spot-checks the exposition format: metric lines,
// HELP/TYPE headers, and the labelled per-class / per-shard series.
func TestSnapshotPrometheus(t *testing.T) {
	var buf bytes.Buffer
	if err := testSnapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE rbmim_ingested_total counter",
		"rbmim_ingested_total 123456",
		"rbmim_streams 17",
		"rbmim_drifts_total 42",
		`rbmim_drifts_by_class_total{class="2"} 39`,
		`rbmim_shard_ingested_total{shard="3"} 31000`,
		"rbmim_subscribers 3",
		"rbmim_subscriber_dropped_total 11",
		"rbmim_subscribers_evicted_total 1",
		"rbmim_inflight_high_water 16",
		"rbmim_replies_coalesced_total 2048",
		"rbmim_shedded_total 13",
		"rbmim_dedup_hits_total 21",
		"rbmim_uptime_seconds 90",
		"rbmim_checkpoints_total 88",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, out)
		}
	}
	// Every non-comment line must be "name[{labels}] value".
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if parts := strings.Fields(line); len(parts) != 2 {
			t.Fatalf("malformed metric line %q", line)
		}
	}
}

// TestSnapshotPrometheusHistograms checks the latency family against the
// exposition invariants (cumulative buckets, le="+Inf" == _count) and that
// repeated scrapes of the same snapshot are byte-identical.
func TestSnapshotPrometheusHistograms(t *testing.T) {
	sn := testSnapshot()
	var a, b bytes.Buffer
	if err := sn.WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := sn.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := a.String()
	if out != b.String() {
		t.Fatal("two scrapes of the same snapshot differ")
	}
	if !strings.Contains(out, "# TYPE rbmim_stage_seconds histogram") {
		t.Fatalf("missing histogram TYPE header:\n%s", out)
	}
	for _, stage := range []string{"detector_update", "queue_wait"} {
		if !strings.Contains(out, `rbmim_stage_seconds_bucket{stage="`+stage+`"`) {
			t.Fatalf("missing bucket series for stage %q", stage)
		}
	}
	telemetrytest.CheckHistogramExposition(t, out, "rbmim_stage_seconds")
}

// TestMergeSnapshotsLatency: cluster merging sums latency histograms
// bucket-wise — a split fleet's merged stages equal one combined histogram.
func TestMergeSnapshotsLatency(t *testing.T) {
	var whole, a, b telemetry.Histogram
	for i := int64(1); i < 4096; i += 7 {
		whole.Observe(i)
		if i%2 == 1 {
			a.Observe(i)
		} else {
			b.Observe(i)
		}
	}
	m1 := Snapshot{Latency: []telemetry.Stage{a.Load("queue_wait")}}
	m2 := Snapshot{Latency: []telemetry.Stage{b.Load("queue_wait"), b.Load("detector_update")}}
	m3 := Snapshot{} // a telemetry-off member contributes nothing
	merged := MergeSnapshots(m1, m2, m3)
	var got *telemetry.Stage
	for i := range merged.Latency {
		if merged.Latency[i].Stage == "queue_wait" {
			got = &merged.Latency[i]
		}
	}
	if got == nil {
		t.Fatalf("merged snapshot lost queue_wait: %+v", merged.Latency)
	}
	want := whole.Load("queue_wait")
	if got.Count != want.Count || got.SumNS != want.SumNS {
		t.Fatalf("merged Count=%d SumNS=%d, want %d/%d", got.Count, got.SumNS, want.Count, want.SumNS)
	}
	for i := range want.Buckets {
		if got.Buckets[i] != want.Buckets[i] {
			t.Fatalf("bucket %d: merged %d, want %d", i, got.Buckets[i], want.Buckets[i])
		}
	}
}
