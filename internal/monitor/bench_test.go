package monitor

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"rbmim/internal/core"
	"rbmim/internal/detectors"
)

// BenchmarkMonitorParallelIngest measures aggregate ingest throughput with
// the full detector pipeline live: every parallel worker owns one stream and
// pushes IngestBatch blocks through the shard rings while the autotuned
// shard pool (one per GOMAXPROCS) trains real RBM-IM detectors. Run with
// `go test -cpu 1,4,8` for the multi-core scaling series; compare the ns/obs
// metric across parallelism levels of one run, since a regression that
// only appears under contention can hide behind the single-proc number.
// The closing FlushCheckpoints barrier keeps queued work
// inside the timed region — the metric is end-to-end applied observations,
// not enqueue rate.
func BenchmarkMonitorParallelIngest(b *testing.B) {
	const block = 128
	m, err := New(Config{
		Detector:  core.Config{Features: 8, Classes: 3, Seed: 7, BatchSize: 50},
		Shards:    0, // autotune: one shard per schedulable core
		QueueSize: 1024,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	var next atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := fmt.Sprintf("bench-%d", next.Add(1))
		rng := rand.New(rand.NewSource(int64(next.Load())))
		obs := make([]detectors.Observation, block)
		for i := range obs {
			obs[i] = detectors.Observation{
				X:         []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64(), 1, 2, 3, 4},
				TrueClass: i % 3, Predicted: i % 3,
			}
		}
		for pb.Next() {
			if err := m.IngestBatch(id, obs); err != nil {
				b.Error(err)
				return
			}
		}
	})
	if err := m.FlushCheckpoints(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*block), "ns/obs")
}
