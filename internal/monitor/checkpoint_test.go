package monitor

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"rbmim/internal/core"
	"rbmim/internal/detectors"
)

// ckptDetectorConfig is the small deterministic template the checkpoint
// tests share.
func ckptDetectorConfig() core.Config {
	return core.Config{
		Features: 6, Classes: 3, BatchSize: 10,
		WarmupBatches: 3, TrendWindow: 8, AdaptiveWindow: true, Seed: 5,
	}
}

// ckptObs draws a reproducible observation sequence with a level shift in
// the back half so drifts actually fire after a resume.
func ckptObs(seed int64, n, features, classes int) []detectors.Observation {
	rng := rand.New(rand.NewSource(seed))
	obs := make([]detectors.Observation, n)
	for i := range obs {
		x := make([]float64, features)
		for j := range x {
			x[j] = rng.Float64() * 2
			if i > (3*n)/4 {
				x[j] += 2.5
			}
		}
		y := rng.Intn(classes)
		obs[i] = detectors.Observation{X: x, TrueClass: y, Predicted: y}
	}
	return obs
}

// TestEvictUnknownStreamCountsStreamError pins the satellite semantics:
// evicting a stream the shard does not host is a counted no-op.
func TestEvictUnknownStreamCountsStreamError(t *testing.T) {
	m, err := New(Config{Detector: ckptDetectorConfig(), Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Evict("never-seen"); err != nil {
		t.Fatal(err)
	}
	// A resident stream evicts cleanly, a second evict of it counts again.
	obs := ckptObs(1, 20, 6, 3)
	for _, o := range obs {
		if err := m.Ingest("resident", o); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Evict("resident"); err != nil {
		t.Fatal(err)
	}
	if err := m.Evict("resident"); err != nil {
		t.Fatal(err)
	}
	m.Close()
	if got := m.Snapshot().StreamErrors; got != 2 {
		t.Fatalf("StreamErrors = %d, want 2 (one unknown evict, one double evict)", got)
	}
}

// TestMonitorKillResumeMatchesUninterrupted is the monitor-level half of the
// acceptance criteria: feeding a stream through monitor #1, closing it
// (flush to the store), and feeding the rest through monitor #2 sharing the
// store must produce the identical drift decisions — same count, same
// per-stream sequence positions — as one uninterrupted monitor. The cut
// lands mid-mini-batch so the partial batch travels through the store too.
func TestMonitorKillResumeMatchesUninterrupted(t *testing.T) {
	const n, cut = 2400, 1237
	obs := ckptObs(2, n, 6, 3)

	run := func(store Store, segments ...[]detectors.Observation) ([]uint64, uint64) {
		var seqs []uint64
		var rehydrated uint64
		for _, seg := range segments {
			m, err := New(Config{
				Detector:   ckptDetectorConfig(),
				Shards:     1,
				Checkpoint: CheckpointConfig{Store: store, Interval: time.Hour},
			})
			if err != nil {
				t.Fatal(err)
			}
			sub := subscribe(t, m, len(seg))
			for _, o := range seg {
				if err := m.Ingest("sensor-1", o); err != nil {
					t.Fatal(err)
				}
			}
			m.Close()
			seqs = append(seqs, seqsOf(drainEvents(t, sub))...)
			rehydrated += m.Snapshot().Rehydrated
		}
		return seqs, rehydrated
	}

	controlSeqs, _ := run(NewMemStore(), obs)
	resumedSeqs, rehydrated := run(NewMemStore(), obs[:cut], obs[cut:])
	if rehydrated != 1 {
		t.Fatalf("rehydrated = %d, want 1", rehydrated)
	}
	if len(controlSeqs) == 0 {
		t.Fatal("control run detected no drifts; the test stream is too tame")
	}
	if len(resumedSeqs) != len(controlSeqs) {
		t.Fatalf("drift counts differ: resumed %d vs uninterrupted %d", len(resumedSeqs), len(controlSeqs))
	}
	for i := range controlSeqs {
		if controlSeqs[i] != resumedSeqs[i] {
			t.Fatalf("drift %d at seq %d resumed vs %d uninterrupted", i, resumedSeqs[i], controlSeqs[i])
		}
	}
}

// TestEvictSpillsAndReingestRehydrates pins the spill path: Evict persists
// the detector, and the next ingest restores it (Rehydrated counted, seq
// continued).
func TestEvictSpillsAndReingestRehydrates(t *testing.T) {
	store := NewMemStore()
	m, err := New(Config{
		Detector:   ckptDetectorConfig(),
		Shards:     1,
		Checkpoint: CheckpointConfig{Store: store, Interval: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	obs := ckptObs(3, 2400, 6, 3)
	sub := subscribe(t, m, len(obs))
	for _, o := range obs[:1200] {
		if err := m.Ingest("s", o); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Evict("s"); err != nil {
		t.Fatal(err)
	}
	for _, o := range obs[1200:] {
		if err := m.Ingest("s", o); err != nil {
			t.Fatal(err)
		}
	}
	m.Close()
	seqs := seqsOf(drainEvents(t, sub))
	sn := m.Snapshot()
	if store.Len() != 1 {
		t.Fatalf("store holds %d streams, want 1", store.Len())
	}
	if sn.Rehydrated != 1 {
		t.Fatalf("Rehydrated = %d, want 1", sn.Rehydrated)
	}
	if sn.CheckpointErrors != 0 {
		t.Fatalf("CheckpointErrors = %d", sn.CheckpointErrors)
	}
	// Seq continued across the spill: every drift after the evict carries a
	// sequence above 1200.
	for _, seq := range seqs {
		if seq > 1200 {
			return
		}
	}
	// No post-evict drifts at all would mean the level shift was missed —
	// which the control in TestMonitorKillResumeMatchesUninterrupted rules
	// out — so reaching here is a real failure.
	t.Fatalf("no drift after the evict continued the sequence: %v", seqs)
}

// TestIdleGCSpillsToStore pins that idle GC writes the state out before
// dropping the stream.
func TestIdleGCSpillsToStore(t *testing.T) {
	store := NewMemStore()
	m, err := New(Config{
		Detector:   ckptDetectorConfig(),
		Shards:     1,
		IdleTTL:    30 * time.Millisecond,
		GCInterval: 10 * time.Millisecond,
		Checkpoint: CheckpointConfig{Store: store, Interval: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for _, o := range ckptObs(4, 50, 6, 3) {
		if err := m.Ingest("idle-stream", o); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for m.Streams() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("idle stream never collected")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The spill goes through the async writer; poll for it.
	for store.Len() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("idle GC dropped the stream without spilling")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := m.Snapshot().IdleEvicted; got != 1 {
		t.Fatalf("IdleEvicted = %d, want 1", got)
	}
}

// TestPeriodicSnapshotCadence pins that a live stream is snapshotted on the
// configured interval without any evict.
func TestPeriodicSnapshotCadence(t *testing.T) {
	store := NewMemStore()
	m, err := New(Config{
		Detector:   ckptDetectorConfig(),
		Shards:     1,
		Checkpoint: CheckpointConfig{Store: store, Interval: 10 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	obs := ckptObs(5, 40, 6, 3)
	deadline := time.Now().Add(5 * time.Second)
	for m.Snapshot().Checkpoints == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no periodic snapshot within 5s")
		}
		for _, o := range obs {
			if err := m.Ingest("live", o); err != nil {
				t.Fatal(err)
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	m.Close()
	if store.Len() != 1 {
		t.Fatalf("store holds %d streams, want 1", store.Len())
	}
}

// TestCloseFlushesWithoutCadence pins the Close-time flush: a huge interval
// means no periodic snapshot ever fires, yet Close must persist the state.
func TestCloseFlushesWithoutCadence(t *testing.T) {
	store := NewMemStore()
	m, err := New(Config{
		Detector:   ckptDetectorConfig(),
		Shards:     2,
		Checkpoint: CheckpointConfig{Store: store, Interval: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	obs := ckptObs(6, 35, 6, 3) // 35 obs: ends mid-mini-batch
	for _, id := range []string{"a", "b", "c"} {
		for _, o := range obs {
			if err := m.Ingest(id, o); err != nil {
				t.Fatal(err)
			}
		}
	}
	m.Close()
	if store.Len() != 3 {
		t.Fatalf("store holds %d streams after Close, want 3", store.Len())
	}
	if got := m.Snapshot().Checkpoints; got != 3 {
		t.Fatalf("Checkpoints = %d, want 3", got)
	}
}

// TestCorruptStoreEntryFallsBackToFresh pins rehydration robustness: a
// corrupt checkpoint is counted and the stream starts fresh instead of
// wedging ingest.
func TestCorruptStoreEntryFallsBackToFresh(t *testing.T) {
	store := NewMemStore()
	if err := store.Put("s", []byte("definitely not a frame")); err != nil {
		t.Fatal(err)
	}
	m, err := New(Config{
		Detector:   ckptDetectorConfig(),
		Shards:     1,
		Checkpoint: CheckpointConfig{Store: store, Interval: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range ckptObs(7, 60, 6, 3) {
		if err := m.Ingest("s", o); err != nil {
			t.Fatal(err)
		}
	}
	m.Close()
	sn := m.Snapshot()
	if sn.Ingested != 60 {
		t.Fatalf("Ingested = %d, want 60", sn.Ingested)
	}
	if sn.Rehydrated != 0 || sn.CheckpointErrors == 0 {
		t.Fatalf("Rehydrated=%d CheckpointErrors=%d, want 0 and >0", sn.Rehydrated, sn.CheckpointErrors)
	}
}

// TestNonStatefulDetectorsAreSkipped pins that checkpointing quietly skips
// detectors that cannot serialize (no errors, no store writes).
func TestNonStatefulDetectorsAreSkipped(t *testing.T) {
	store := NewMemStore()
	m, err := New(Config{
		Detector: ckptDetectorConfig(), // sizes per-class stats
		NewDetector: func(string) (detectors.Detector, error) {
			return detectors.NewRDDM(), nil // RDDM is not a StatefulDetector
		},
		Shards:     1,
		Checkpoint: CheckpointConfig{Store: store, Interval: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range ckptObs(8, 40, 6, 3) {
		if err := m.Ingest("s", o); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Evict("s"); err != nil {
		t.Fatal(err)
	}
	m.Close()
	sn := m.Snapshot()
	if store.Len() != 0 || sn.Checkpoints != 0 || sn.CheckpointErrors != 0 {
		t.Fatalf("non-stateful detector produced store activity: len=%d ckpts=%d errs=%d",
			store.Len(), sn.Checkpoints, sn.CheckpointErrors)
	}
}

// TestFSStoreSurvivesRestart pins the filesystem store end to end: monitor
// #1 checkpoints to disk, a brand-new monitor in a simulated new process
// rehydrates from the same directory, including stream IDs that need
// filename escaping.
func TestFSStoreSurvivesRestart(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpts")
	store1, err := NewFSStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	id := "tenant/7:sensör #1" // path separators and non-ASCII must round-trip
	obs := ckptObs(9, 1200, 6, 3)

	m1, err := New(Config{
		Detector:   ckptDetectorConfig(),
		Shards:     1,
		Checkpoint: CheckpointConfig{Store: store1, Interval: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range obs[:700] {
		if err := m1.Ingest(id, o); err != nil {
			t.Fatal(err)
		}
	}
	m1.Close()

	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 1 {
		t.Fatalf("checkpoint dir: %v entries, err %v", len(entries), err)
	}

	store2, err := NewFSStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := New(Config{
		Detector:   ckptDetectorConfig(),
		Shards:     1,
		Checkpoint: CheckpointConfig{Store: store2, Interval: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range obs[700:] {
		if err := m2.Ingest(id, o); err != nil {
			t.Fatal(err)
		}
	}
	m2.Close()
	sn := m2.Snapshot()
	if sn.Rehydrated != 1 || sn.CheckpointErrors != 0 {
		t.Fatalf("Rehydrated=%d CheckpointErrors=%d, want 1 and 0", sn.Rehydrated, sn.CheckpointErrors)
	}
}

// TestFSStoreEscaping pins the ID → filename mapping directly.
func TestFSStoreEscaping(t *testing.T) {
	store, err := NewFSStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{"plain", "a/b", "../escape", "", "ütf8 ☃", "trailing.", "a", "A"}
	for i, id := range ids {
		if err := store.Put(id, []byte{byte(i)}); err != nil {
			t.Fatalf("Put(%q): %v", id, err)
		}
	}
	for i, id := range ids {
		data, ok, err := store.Get(id)
		if err != nil || !ok || len(data) != 1 || data[0] != byte(i) {
			t.Fatalf("Get(%q) = %v %v %v", id, data, ok, err)
		}
	}
	if err := store.Delete("a/b"); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := store.Get("a/b"); ok {
		t.Fatal("deleted entry still present")
	}
	if err := store.Delete("missing"); err != nil {
		t.Fatal("deleting a missing entry errored")
	}
	// Every file the store wrote must live directly inside its dir (the
	// "../escape" ID must not climb out).
	entries, err := os.ReadDir(store.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(ids)-1 {
		t.Fatalf("dir holds %d entries, want %d", len(entries), len(ids)-1)
	}
}

// TestCheckpointEnvelopeRejectsForeignFrames pins that a stream envelope
// containing a detector frame of the wrong type counts as a rehydration
// error and the stream starts fresh.
func TestCheckpointEnvelopeRejectsForeignFrames(t *testing.T) {
	store := NewMemStore()
	// Persist a DDM snapshot wrapped in a stream envelope under the ID an
	// RBM-IM monitor will claim.
	var inner bytes.Buffer
	if err := detectors.NewDDM().SaveState(&inner); err != nil {
		t.Fatal(err)
	}
	env := newEnvelopeFrame(42, inner.Bytes())
	if err := store.Put("s", env); err != nil {
		t.Fatal(err)
	}
	m, err := New(Config{
		Detector:   ckptDetectorConfig(),
		Shards:     1,
		Checkpoint: CheckpointConfig{Store: store, Interval: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range ckptObs(10, 30, 6, 3) {
		if err := m.Ingest("s", o); err != nil {
			t.Fatal(err)
		}
	}
	m.Close()
	sn := m.Snapshot()
	if sn.Rehydrated != 0 || sn.CheckpointErrors == 0 {
		t.Fatalf("Rehydrated=%d CheckpointErrors=%d, want 0 and >0", sn.Rehydrated, sn.CheckpointErrors)
	}
}
