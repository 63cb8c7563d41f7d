package monitor

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"rbmim/internal/core"
	"rbmim/internal/detectors"
	"rbmim/internal/stream"
	"rbmim/internal/synth"
	"rbmim/internal/telemetry"
)

// driftTrace runs one real-detector sudden-drift workload at the given
// telemetry level and returns the ordered (seq, classes) drift trace plus
// the final snapshot. Everything that feeds a detection decision is seeded,
// so two runs differing only in level must trace identically.
func driftTrace(t *testing.T, level telemetry.Level) ([]string, Snapshot) {
	t.Helper()
	m, err := New(Config{
		Detector: core.Config{
			Features: 8, Classes: 3, Seed: 11,
			BatchSize: 25, WarmupBatches: 10, AdaptiveWindow: true,
		},
		Shards:    2,
		Telemetry: level,
	})
	if err != nil {
		t.Fatal(err)
	}
	sub := subscribe(t, m, 12000)
	base := synth.Config{Features: 8, Classes: 3, Seed: 3}
	before, err := synth.NewRBF(base, 3, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	afterCfg := base
	afterCfg.Seed = 99
	after, err := synth.NewRBF(afterCfg, 3, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	src := stream.NewDriftStream(before, after, stream.Sudden, 6000, 0, 1)
	for i := 0; i < 12000; i++ {
		in := src.Next()
		if err := m.Ingest("feed", detectors.Observation{X: in.X, TrueClass: in.Y, Predicted: in.Y}); err != nil {
			t.Fatal(err)
		}
	}
	m.Close()
	var trace []string
	for _, ev := range drainEvents(t, sub) {
		trace = append(trace, fmt.Sprintf("%s/%d%v", ev.StreamID, ev.Seq, ev.Classes))
	}
	return trace, m.Snapshot()
}

// TestTelemetryBitIdentity is the acceptance property of the telemetry
// layer: drift decisions with full stage timing are bit-identical to drift
// decisions with timing off. The histograms observe; they never perturb.
func TestTelemetryBitIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("real-detector drift run is slow")
	}
	full, fullSn := driftTrace(t, telemetry.Full)
	off, offSn := driftTrace(t, telemetry.Off)
	if len(full) == 0 {
		t.Fatal("no drift events despite a sudden concept change")
	}
	if !reflect.DeepEqual(full, off) {
		t.Fatalf("drift traces diverge by telemetry level:\nfull: %v\noff:  %v", full, off)
	}
	if fullSn.Drifts != offSn.Drifts || fullSn.Ingested != offSn.Ingested {
		t.Fatalf("counters diverge: full drifts=%d ingested=%d, off drifts=%d ingested=%d",
			fullSn.Drifts, fullSn.Ingested, offSn.Drifts, offSn.Ingested)
	}

	// The level difference shows up only where it should: the stage list.
	stages := make(map[string]uint64)
	for _, st := range fullSn.Latency {
		stages[st.Stage] = st.Count
	}
	for _, want := range []string{"queue_wait", "detector_update"} {
		if stages[want] == 0 {
			t.Fatalf("full telemetry snapshot lacks stage %q (have %v)", want, fullSn.Latency)
		}
	}
	if len(offSn.Latency) != 0 {
		t.Fatalf("telemetry-off snapshot has latency stages %v, want none", offSn.Latency)
	}
}

// TestDetectorUpdateSamplePerFlush pins the drain clock: detector_update
// keeps one sample per flush (each flush starts where the previous one
// ended), queue_wait one per ingest envelope, and every stream's Event.At —
// the drain's one wall reading advanced by the flush's own clock reading —
// is non-decreasing and inside the run's wall-clock span.
func TestDetectorUpdateSamplePerFlush(t *testing.T) {
	m, err := New(Config{
		NewDetector: func(string) (detectors.Detector, error) { return alwaysDrift{}, nil },
		Shards:      2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	const rounds, perEnvelope = 40, 3
	streams := []string{"a", "b", "c"}
	sub := subscribe(t, m, rounds*len(streams)*perEnvelope+1)
	obs := make([]detectors.Observation, perEnvelope)
	for i := range obs {
		obs[i] = detectors.Observation{X: make([]float64, 8), TrueClass: i % 3, Predicted: i % 3}
	}
	begin := time.Now()
	// One envelope per stream per round, then a barrier: each envelope is
	// exactly one flush, however the shards' drains split the round.
	for r := 0; r < rounds; r++ {
		for _, id := range streams {
			if err := m.IngestBatch(id, obs); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.FlushCheckpoints(); err != nil {
			t.Fatal(err)
		}
	}
	end := time.Now()
	stages := make(map[string]uint64)
	for _, st := range m.Snapshot().Latency {
		stages[st.Stage] = st.Count
	}
	flushes := uint64(rounds * len(streams))
	if got := stages["detector_update"]; got != flushes {
		t.Fatalf("detector_update count = %d, want one per flush (%d)", got, flushes)
	}
	if got := stages["queue_wait"]; got != flushes {
		t.Fatalf("queue_wait count = %d, want one per envelope (%d)", got, flushes)
	}
	events := drainEvents(t, sub)
	if want := rounds * len(streams) * perEnvelope; len(events) != want {
		t.Fatalf("%d events, want %d", len(events), want)
	}
	last := make(map[string]time.Time)
	for _, ev := range events {
		if ev.At.Before(begin) || ev.At.After(end) {
			t.Fatalf("event %s/%d At %v outside the run [%v, %v]", ev.StreamID, ev.Seq, ev.At, begin, end)
		}
		if prev, ok := last[ev.StreamID]; ok && ev.At.Before(prev) {
			t.Fatalf("stream %s: event %d At %v precedes the previous event's %v", ev.StreamID, ev.Seq, ev.At, prev)
		}
		last[ev.StreamID] = ev.At
	}
}
