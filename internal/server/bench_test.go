package server

import (
	"fmt"
	"testing"

	"rbmim/internal/core"
	"rbmim/internal/monitor"
	"rbmim/internal/synth"

	"rbmim/internal/detectors"
	"rbmim/internal/telemetry"
)

// BenchmarkServerIngestBatch measures the full loopback serving path —
// client encode, TCP, server decode into pooled slabs, monitor enqueue,
// batched RBM-IM detection — at the acceptance batch size (256) and a
// smaller block for comparison. ns/op is per block; the ns/obs metric is
// what scripts/benchguard gates against BENCH_server.json in CI. Steady
// state is 0 allocs/op on the client ingest path (run with -benchmem; the
// residue reported here is the server side's rare event/bookkeeping work
// divided across iterations).
func BenchmarkServerIngestBatch(b *testing.B) {
	const (
		streams  = 64
		features = 20
		classes  = 5
	)
	gen, err := synth.NewRBF(synth.Config{Features: features, Classes: classes, Seed: 17}, 3, 0.08)
	if err != nil {
		b.Fatal(err)
	}
	obs := make([]detectors.Observation, 4096)
	for i := range obs {
		in := gen.Next()
		obs[i] = detectors.Observation{X: in.X, TrueClass: in.Y, Predicted: in.Y}
	}
	ids := make([]string, streams)
	for i := range ids {
		ids[i] = fmt.Sprintf("stream-%02d", i)
	}
	for _, block := range []int{64, 256} {
		block := block
		b.Run(fmt.Sprintf("B%d", block), func(b *testing.B) {
			m, err := monitor.New(monitor.Config{
				Detector:  core.Config{Features: features, Classes: classes, Seed: 7},
				Shards:    4,
				QueueSize: 4096 / block,
			})
			if err != nil {
				b.Fatal(err)
			}
			srv, err := New(Config{Monitor: m})
			if err != nil {
				b.Fatal(err)
			}
			c, err := Dial(ClientConfig{Addrs: []string{srv.Addr()}})
			if err != nil {
				b.Fatal(err)
			}
			// Warm detectors, pools, and scratch on both ends.
			for s := 0; s < streams; s++ {
				if err := c.IngestBatch(ids[s], obs[:block]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				base := (i * block) % len(obs)
				if err := c.IngestBatch(ids[i%streams], obs[base:base+block]); err != nil {
					b.Fatal(err)
				}
			}
			// The monitor drain is part of the measured throughput, exactly
			// like BenchmarkMonitorIngestBatch.
			m.Close()
			b.StopTimer()
			c.Close()
			srv.Close()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(block), "ns/obs")
		})
	}
}

// BenchmarkServerIngest is the per-observation round trip — one frame, one
// reply, one observation — the latency-bound worst case of the protocol.
func BenchmarkServerIngest(b *testing.B) {
	gen, err := synth.NewRBF(synth.Config{Features: 20, Classes: 5, Seed: 17}, 3, 0.08)
	if err != nil {
		b.Fatal(err)
	}
	obs := make([]detectors.Observation, 4096)
	for i := range obs {
		in := gen.Next()
		obs[i] = detectors.Observation{X: in.X, TrueClass: in.Y, Predicted: in.Y}
	}
	m, err := monitor.New(monitor.Config{
		Detector:  core.Config{Features: 20, Classes: 5, Seed: 7},
		Shards:    1,
		QueueSize: 4096,
	})
	if err != nil {
		b.Fatal(err)
	}
	srv, err := New(Config{Monitor: m})
	if err != nil {
		b.Fatal(err)
	}
	c, err := Dial(ClientConfig{Addrs: []string{srv.Addr()}})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 512; i++ {
		if err := c.Ingest("only", obs[i%len(obs)]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Ingest("only", obs[i%len(obs)]); err != nil {
			b.Fatal(err)
		}
	}
	m.Close()
	b.StopTimer()
	c.Close()
	srv.Close()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/obs")
}

// BenchmarkServerPipelined measures the same loopback serving path with the
// in-flight window open: a ring of async requests deep enough that the
// connection never idles a round trip and both sides coalesce — the client
// batches frames into vector writes, the server batches acks into one flush
// per socket drain. Single is the per-observation case that is latency-bound
// serially (compare BenchmarkServerIngest); B256 is the acceptance batch
// size (compare BenchmarkServerIngestBatch/B256 and the in-process
// BenchmarkMonitorIngestBatch).
func BenchmarkServerPipelined(b *testing.B) {
	const (
		streams  = 64
		features = 20
		classes  = 5
	)
	gen, err := synth.NewRBF(synth.Config{Features: features, Classes: classes, Seed: 17}, 3, 0.08)
	if err != nil {
		b.Fatal(err)
	}
	obs := make([]detectors.Observation, 4096)
	for i := range obs {
		in := gen.Next()
		obs[i] = detectors.Observation{X: in.X, TrueClass: in.Y, Predicted: in.Y}
	}
	ids := make([]string, streams)
	for i := range ids {
		ids[i] = fmt.Sprintf("stream-%02d", i)
	}
	run := func(b *testing.B, block, window, shards, queue int, tele telemetry.Level) {
		m, err := monitor.New(monitor.Config{
			Detector:  core.Config{Features: features, Classes: classes, Seed: 7},
			Shards:    shards,
			QueueSize: queue,
			Telemetry: tele,
		})
		if err != nil {
			b.Fatal(err)
		}
		srv, err := New(Config{Monitor: m, Telemetry: tele})
		if err != nil {
			b.Fatal(err)
		}
		c, err := Dial(ClientConfig{Addrs: []string{srv.Addr()}, Window: window})
		if err != nil {
			b.Fatal(err)
		}
		send := func(i int) (Pending, error) {
			if block == 1 {
				return c.IngestAsync(ids[i%streams], obs[i%len(obs)])
			}
			base := (i * block) % len(obs)
			return c.IngestBatchAsync(ids[i%streams], obs[base:base+block])
		}
		// Warm detectors, pools, and scratch on both ends.
		for s := 0; s < streams; s++ {
			if err := c.IngestBatch(ids[s], obs[:block]); err != nil {
				b.Fatal(err)
			}
		}
		// ring bounds outstanding Pendings to the window without ever letting
		// the pipeline drain between iterations.
		ring := make([]Pending, window)
		n := 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if n >= window {
				if err := ring[n%window].Wait(); err != nil {
					b.Fatal(err)
				}
			}
			p, err := send(i)
			if err != nil {
				b.Fatal(err)
			}
			ring[n%window] = p
			n++
		}
		for i := 0; i < n && i < window; i++ {
			if err := ring[i].Wait(); err != nil {
				b.Fatal(err)
			}
		}
		// The monitor drain is part of the measured throughput.
		m.Close()
		b.StopTimer()
		c.Close()
		srv.Close()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(block), "ns/obs")
	}
	// The gated series (Single, B256) runs at the default telemetry level —
	// full stage timing is the production configuration, so that is what
	// benchguard holds against BENCH_server.json. The /off variants exist
	// for the telemetry-overhead table in EXPERIMENTS.md and are not gated.
	b.Run("Single", func(b *testing.B) { run(b, 1, 16, 1, 4096, telemetry.Full) })
	b.Run("B256", func(b *testing.B) { run(b, 256, 8, 4, 16, telemetry.Full) })
	b.Run("Single/off", func(b *testing.B) { run(b, 1, 16, 1, 4096, telemetry.Off) })
	b.Run("B256/off", func(b *testing.B) { run(b, 256, 8, 4, 16, telemetry.Off) })
}
