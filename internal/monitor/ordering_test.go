package monitor

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"rbmim/internal/codec"
	"rbmim/internal/core"
	"rbmim/internal/detectors"
	"rbmim/internal/stream"
	"rbmim/internal/synth"
)

// buildOrderingWorkload generates a deterministic multi-stream workload with
// a sudden concept change halfway through each stream, so the equivalence
// check covers real drift decisions, not just quiet streams.
func buildOrderingWorkload(t *testing.T, streams, perStream int) map[string][]detectors.Observation {
	t.Helper()
	base := synth.Config{Features: 8, Classes: 3, Seed: 3}
	work := make(map[string][]detectors.Observation, streams)
	for s := 0; s < streams; s++ {
		before, err := synth.NewRBF(base, 3, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		afterCfg := base
		afterCfg.Seed = 200 + int64(s)
		after, err := synth.NewRBF(afterCfg, 3, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		src := stream.NewDriftStream(before, after, stream.Sudden, perStream/2, 0, 1)
		obs := make([]detectors.Observation, perStream)
		for i := range obs {
			in := src.Next()
			obs[i] = detectors.Observation{X: in.X, TrueClass: in.Y, Predicted: in.Y}
		}
		work[fmt.Sprintf("stream-%d", s)] = obs
	}
	return work
}

// traceEvent is the part of a drift event that must not depend on
// parallelism or grouping: where the drift fired, which classes it names,
// and the mini-batch of its flight record (-1 without one).
type traceEvent struct {
	Seq     uint64
	Classes []int
	Batch   int
}

// stateSum checksums one stream's flushed checkpoint: the raw frame, and the
// learned weights restored from it.
type stateSum struct {
	frame, weights uint64
}

// runOrderingWorkload pushes the workload through a monitor with the given
// parallelism and returns (per-stream drift traces, per-stream checksums of
// the flushed checkpoints). Streams are split across `producers` goroutines
// — each stream is owned by exactly one producer, so per-stream send order
// is preserved while producers race each other on the shard rings.
func runOrderingWorkload(t *testing.T, work map[string][]detectors.Observation, shards, producers, procs int) (map[string][]traceEvent, map[string]stateSum) {
	t.Helper()
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)

	store := NewMemStore()
	m, err := New(Config{
		Detector: core.Config{
			Features: 8, Classes: 3, Seed: 11,
			BatchSize: 25, WarmupBatches: 5, AdaptiveWindow: true,
		},
		Shards:     shards,
		QueueSize:  128,
		Checkpoint: CheckpointConfig{Store: store},
	})
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, 0, len(work))
	total := 0
	for id, obs := range work {
		ids = append(ids, id)
		total += len(obs)
	}
	// Each stream publishes from its one shard goroutine, so per-stream
	// events arrive in sequence order even while shards interleave.
	sub := subscribe(t, m, total)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		mine := make([]string, 0, len(ids)/producers+1)
		for i := p; i < len(ids); i += producers {
			mine = append(mine, ids[i])
		}
		wg.Add(1)
		go func(mine []string) {
			defer wg.Done()
			// Interleave blocks across the producer's streams so shard
			// queues see mixed traffic, not one stream at a time.
			const block = 50
			for off := 0; ; off += block {
				sent := false
				for _, id := range mine {
					obs := work[id]
					if off >= len(obs) {
						continue
					}
					end := off + block
					if end > len(obs) {
						end = len(obs)
					}
					if err := m.IngestBatch(id, obs[off:end]); err != nil {
						t.Errorf("IngestBatch(%s): %v", id, err)
						return
					}
					sent = true
				}
				if !sent {
					return
				}
			}
		}(mine)
	}
	wg.Wait()
	if err := m.FlushCheckpoints(); err != nil {
		t.Fatal(err)
	}
	drifts := make(map[string][]traceEvent)
	for _, ev := range drainEvents(t, sub) {
		te := traceEvent{Seq: ev.Seq, Classes: ev.Classes, Batch: -1}
		if ev.Record != nil {
			te.Batch = ev.Record.Batch
		}
		drifts[ev.StreamID] = append(drifts[ev.StreamID], te)
	}
	sums := make(map[string]stateSum, len(ids))
	for _, id := range ids {
		data, ok, err := store.Get(id)
		if err != nil || !ok {
			t.Fatalf("checkpoint for %s after flush: ok=%v err=%v", id, ok, err)
		}
		// Checksum the raw frame, then restore it into a fresh detector and
		// checksum the learned weights.
		det, err := core.NewDetector(core.Config{
			Features: 8, Classes: 3, Seed: 11 ^ int64(fnv1a(id)),
			BatchSize: 25, WarmupBatches: 5, AdaptiveWindow: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Stored frames are the monitor envelope: seq (8 bytes) + detector
		// frame (see newEnvelopeFrame).
		payload, err := codec.ExpectFrame(data, codec.KindMonitorStream)
		if err != nil {
			t.Fatalf("checkpoint frame for %s: %v", id, err)
		}
		if err := det.LoadStateBytes(payload[8:]); err != nil {
			t.Fatalf("restore %s: %v", id, err)
		}
		sums[id] = stateSum{frame: fnv1a(string(data)), weights: det.RBM().WeightChecksum()}
	}
	sn := m.Snapshot()
	m.Close()
	// Conservation at the flush barrier: everything accepted was processed.
	if sn.Received != sn.Ingested+sn.Rejected || sn.Queued != 0 {
		t.Fatalf("counters not conserved at barrier: %+v", sn)
	}
	return drifts, sums
}

// TestOrderingEquivalenceAcrossParallelism is the tentpole guarantee: the
// same workload run single-threaded (1 shard, 1 producer, GOMAXPROCS=1) and
// fully parallel (8 shards, 8 producers, GOMAXPROCS=8) must yield identical
// per-stream drift traces (sequence number, attributed classes and flight
// record batch of every event) and bit-identical detector state, verified via
// checkpoint checksums after a flush barrier.
func TestOrderingEquivalenceAcrossParallelism(t *testing.T) {
	streams, perStream := 6, 4000
	if testing.Short() {
		streams, perStream = 4, 1500
	}
	work := buildOrderingWorkload(t, streams, perStream)
	serialDrifts, serialSums := runOrderingWorkload(t, work, 1, 1, 1)
	parallelDrifts, parallelSums := runOrderingWorkload(t, work, 8, 8, 8)

	total := 0
	for id := range work {
		s, p := serialDrifts[id], parallelDrifts[id]
		if !reflect.DeepEqual(s, p) {
			t.Fatalf("%s: drift traces diverge\nserial:   %+v\nparallel: %+v", id, s, p)
		}
		total += len(s)
		if serialSums[id] != parallelSums[id] {
			t.Fatalf("%s: checkpoint checksums %+v serial vs %+v parallel — detector state diverged", id, serialSums[id], parallelSums[id])
		}
	}
	if total == 0 {
		t.Fatal("no drift detected on any stream: the equivalence check is vacuous")
	}
}
