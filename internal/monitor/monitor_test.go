package monitor

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"rbmim/internal/core"
	"rbmim/internal/detectors"
	"rbmim/internal/stream"
	"rbmim/internal/synth"
)

// testConfig returns a small, fast monitor configuration.
func testConfig(shards int) Config {
	return Config{
		Detector: core.Config{Features: 8, Classes: 3, Seed: 7},
		Shards:   shards,
	}
}

// subscribe registers a drift-event subscription on m. Tests size buffer
// above the event count they can possibly produce, so drainEvents sees
// every event.
func subscribe(t testing.TB, m *Monitor, buffer int) *Subscription {
	t.Helper()
	sub, err := m.Subscribe(buffer)
	if err != nil {
		t.Fatal(err)
	}
	return sub
}

// drainEvents returns every event already queued on sub without blocking.
// After a FlushCheckpoints barrier (or Close) every event published before
// it is in the channel; drainEvents fails the test if sub dropped any.
func drainEvents(t testing.TB, sub *Subscription) []Event {
	t.Helper()
	var out []Event
	for {
		select {
		case ev, ok := <-sub.Events():
			if ok {
				out = append(out, ev)
				continue
			}
		default:
		}
		break
	}
	if d := sub.Dropped(); d != 0 {
		t.Fatalf("subscription dropped %d events", d)
	}
	return out
}

// seqsOf returns the events' sequence numbers in delivery order.
func seqsOf(evs []Event) []uint64 {
	seqs := make([]uint64, len(evs))
	for i, ev := range evs {
		seqs[i] = ev.Seq
	}
	return seqs
}

func TestShardPlacementIsDeterministicAndBalanced(t *testing.T) {
	const shards, streams = 8, 4096
	counts := make([]int, shards)
	for i := 0; i < streams; i++ {
		id := fmt.Sprintf("stream-%d", i)
		s1 := ShardFor(id, shards)
		s2 := ShardFor(id, shards)
		if s1 != s2 {
			t.Fatalf("placement of %q not deterministic: %d vs %d", id, s1, s2)
		}
		counts[s1]++
	}
	want := streams / shards
	for s, c := range counts {
		if c < want/2 || c > want*2 {
			t.Fatalf("shard %d holds %d streams, want within [%d, %d]", s, c, want/2, want*2)
		}
	}
}

func TestJumpHashStability(t *testing.T) {
	// Growing the shard pool must move only a minority of streams — the
	// consistent-hashing property that keeps detector state reusable.
	const streams = 2000
	moved := 0
	for i := 0; i < streams; i++ {
		id := fmt.Sprintf("s%d", i)
		if ShardFor(id, 8) != ShardFor(id, 9) {
			moved++
		}
	}
	// Ideal is streams/9 ≈ 222; allow generous slack.
	if moved > streams/4 {
		t.Fatalf("%d of %d streams moved when growing 8 -> 9 shards; want ~1/9", moved, streams)
	}
}

func TestConcurrentIngestAcrossShards(t *testing.T) {
	m, err := New(testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	const (
		producers = 8
		perStream = 400
	)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			gen, err := synth.NewRBF(synth.Config{Features: 8, Classes: 3, Seed: int64(p)}, 3, 0.08)
			if err != nil {
				t.Error(err)
				return
			}
			id := fmt.Sprintf("producer-%d", p)
			for i := 0; i < perStream; i++ {
				in := gen.Next()
				if err := m.Ingest(id, detectors.Observation{X: in.X, TrueClass: in.Y, Predicted: in.Y}); err != nil {
					t.Errorf("ingest: %v", err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	m.Close()
	sn := m.Snapshot()
	if got, want := sn.Ingested, uint64(producers*perStream); got != want {
		t.Fatalf("ingested %d observations, want %d", got, want)
	}
	if sn.Streams != producers {
		t.Fatalf("monitor tracks %d streams, want %d", sn.Streams, producers)
	}
	if sn.Shards != 4 {
		t.Fatalf("snapshot reports %d shards, want 4", sn.Shards)
	}
	total := 0
	for _, c := range sn.ShardStreams {
		total += c
	}
	if total != producers {
		t.Fatalf("per-shard stream counts sum to %d, want %d", total, producers)
	}
}

func TestIngestCopiesFeatureVector(t *testing.T) {
	m, err := New(testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	x := make([]float64, 8)
	for i := 0; i < 100; i++ {
		for j := range x {
			x[j] = float64(i + j)
		}
		if err := m.Ingest("reused-buffer", detectors.Observation{X: x, TrueClass: i % 3, Predicted: i % 3}); err != nil {
			t.Fatal(err)
		}
		// Immediately clobber the caller-owned buffer: the monitor must have
		// taken its own copy.
		for j := range x {
			x[j] = -1
		}
	}
}

// driftEveryN is a deterministic detector stub: it signals Drift every n-th
// observation and records how many updates it received.
type driftEveryN struct {
	n       int
	updates int
	class   int
}

func (d *driftEveryN) Update(detectors.Observation) detectors.State {
	d.updates++
	if d.updates%d.n == 0 {
		return detectors.Drift
	}
	return detectors.None
}
func (d *driftEveryN) Reset()              {}
func (d *driftEveryN) Name() string        { return "driftEveryN" }
func (d *driftEveryN) DriftClasses() []int { return []int{d.class} }

func TestPerStreamIsolationOfDriftSignals(t *testing.T) {
	// Two streams on one monitor: one drifts every 10 observations, the
	// other never. Events must carry only the drifting stream's ID, and the
	// quiet stream's detector must still receive all its observations.
	dets := map[string]*driftEveryN{}
	var mu sync.Mutex
	cfg := Config{
		Shards: 2,
		NewDetector: func(id string) (detectors.Detector, error) {
			n := 1 << 30
			if id == "noisy" {
				n = 10
			}
			d := &driftEveryN{n: n, class: 1}
			mu.Lock()
			dets[id] = d
			mu.Unlock()
			return d, nil
		},
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sub := subscribe(t, m, 200)
	x := []float64{0.5}
	for i := 0; i < 100; i++ {
		for _, id := range []string{"noisy", "quiet"} {
			if err := m.Ingest(id, detectors.Observation{X: x, TrueClass: 0, Predicted: 0}); err != nil {
				t.Fatal(err)
			}
		}
	}
	m.Close()
	events := drainEvents(t, sub)
	if len(events) != 10 {
		t.Fatalf("got %d drift events, want 10", len(events))
	}
	for _, ev := range events {
		if ev.StreamID != "noisy" {
			t.Fatalf("drift event attributed to %q, want only %q", ev.StreamID, "noisy")
		}
		if len(ev.Classes) != 1 || ev.Classes[0] != 1 {
			t.Fatalf("drift event classes = %v, want [1]", ev.Classes)
		}
	}
	if dets["quiet"].updates != 100 {
		t.Fatalf("quiet stream's detector saw %d updates, want 100", dets["quiet"].updates)
	}
	sn := m.Snapshot()
	if sn.Drifts != 10 {
		t.Fatalf("snapshot drifts = %d, want 10", sn.Drifts)
	}
}

func TestIdleStreamEviction(t *testing.T) {
	cfg := testConfig(2)
	cfg.IdleTTL = 50 * time.Millisecond
	cfg.GCInterval = 10 * time.Millisecond
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	x := make([]float64, 8)
	for i := 0; i < 4; i++ {
		if err := m.Ingest(fmt.Sprintf("ephemeral-%d", i), detectors.Observation{X: x}); err != nil {
			t.Fatal(err)
		}
	}
	// Keep one stream warm while the others age out.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if err := m.Ingest("persistent", detectors.Observation{X: x}); err != nil {
			t.Fatal(err)
		}
		if m.Streams() == 1 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := m.Streams(); got != 1 {
		t.Fatalf("after idle GC %d streams remain, want 1 (persistent)", got)
	}
	if sn := m.Snapshot(); sn.IdleEvicted != 4 {
		t.Fatalf("idle-evicted %d streams, want 4", sn.IdleEvicted)
	}
}

func TestExplicitEvictAndRecreate(t *testing.T) {
	var created int
	var mu sync.Mutex
	cfg := Config{
		Shards: 1,
		NewDetector: func(id string) (detectors.Detector, error) {
			mu.Lock()
			created++
			mu.Unlock()
			return &driftEveryN{n: 1 << 30}, nil
		},
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{1}
	obs := detectors.Observation{X: x}
	if err := m.Ingest("s", obs); err != nil {
		t.Fatal(err)
	}
	if err := m.Evict("s"); err != nil {
		t.Fatal(err)
	}
	if err := m.Ingest("s", obs); err != nil {
		t.Fatal(err)
	}
	m.Close()
	if m.Streams() != 1 {
		t.Fatalf("stream count = %d, want 1", m.Streams())
	}
	if created != 2 {
		t.Fatalf("detector factory ran %d times, want 2 (evict forces re-creation)", created)
	}
}

func TestCloseSemantics(t *testing.T) {
	m, err := New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	m.Close()
	m.Close() // idempotent
	if err := m.Ingest("s", detectors.Observation{X: make([]float64, 8)}); err != ErrClosed {
		t.Fatalf("Ingest after Close = %v, want ErrClosed", err)
	}
	if _, err := m.TryIngest("s", detectors.Observation{X: make([]float64, 8)}); err != ErrClosed {
		t.Fatalf("TryIngest after Close = %v, want ErrClosed", err)
	}
	if err := m.Evict("s"); err != ErrClosed {
		t.Fatalf("Evict after Close = %v, want ErrClosed", err)
	}
	if _, err := m.Subscribe(0); err != ErrClosed {
		t.Fatalf("Subscribe after Close = %v, want ErrClosed", err)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New with zero config should fail (no detector template or factory)")
	}
	if _, err := New(Config{Detector: core.Config{Features: 5, Classes: 1}}); err == nil {
		t.Fatal("New should reject Classes < 2")
	}
}

func TestSubscribeDeliversEveryDrift(t *testing.T) {
	cfg := Config{
		Shards: 1,
		NewDetector: func(id string) (detectors.Detector, error) {
			return &driftEveryN{n: 5}, nil
		},
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sub := subscribe(t, m, 25)
	x := []float64{0}
	for i := 0; i < 25; i++ {
		if err := m.Ingest("cb", detectors.Observation{X: x}); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.FlushCheckpoints(); err != nil {
		t.Fatal(err)
	}
	calls := drainEvents(t, sub)
	m.Close()
	if len(calls) != 5 {
		t.Fatalf("subscription delivered %d drifts, want 5", len(calls))
	}
	if calls[0].Seq != 5 {
		t.Fatalf("first drift at seq %d, want 5", calls[0].Seq)
	}
}

// TestEndToEndDriftDetection drives a real sudden drift through the monitor
// with real RBM-IM detectors on several streams and expects the drifted
// streams to emit events.
func TestEndToEndDriftDetection(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end drift run is slow")
	}
	cfg := Config{
		Detector: core.Config{
			Features: 8, Classes: 3, Seed: 11,
			BatchSize: 25, WarmupBatches: 10, AdaptiveWindow: true,
		},
		Shards: 2,
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sub := subscribe(t, m, 36000)
	base := synth.Config{Features: 8, Classes: 3, Seed: 3}
	for s := 0; s < 3; s++ {
		before, err := synth.NewRBF(base, 3, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		afterCfg := base
		afterCfg.Seed = 99 + int64(s)
		after, err := synth.NewRBF(afterCfg, 3, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		src := stream.NewDriftStream(before, after, stream.Sudden, 6000, 0, 1)
		id := fmt.Sprintf("feed-%d", s)
		for i := 0; i < 12000; i++ {
			in := src.Next()
			if err := m.Ingest(id, detectors.Observation{X: in.X, TrueClass: in.Y, Predicted: in.Y}); err != nil {
				t.Fatal(err)
			}
		}
	}
	m.Close()
	drifted := make(map[string]bool)
	for _, ev := range drainEvents(t, sub) {
		drifted[ev.StreamID] = true
	}
	if len(drifted) == 0 {
		t.Fatal("no stream reported drift despite a sudden concept change on every stream")
	}
	sn := m.Snapshot()
	if sn.Drifts == 0 || sn.Ingested != 36000 {
		t.Fatalf("snapshot = %+v, want 36000 ingested and > 0 drifts", sn)
	}
}
