// Command driftserver serves a sharded multi-stream drift monitor over TCP:
// the wire protocol of internal/server (codec-framed binary requests:
// ingest, batch ingest, subscriptions, snapshots, evict, checkpoint flush,
// last-drift reports) plus an optional HTTP sidecar with /healthz
// (liveness), /readyz (readiness; 503 while draining), and Prometheus
// /metrics including per-stage latency histograms (rbmim_stage_seconds).
// Clients connect with rbmim.Dial; cmd/monitorbench -remote drives a
// running server as a load generator.
//
// Usage:
//
//	driftserver -features 20 -classes 5
//	            [-addr 127.0.0.1:7365] [-http 127.0.0.1:7366] [-pprof]
//	            [-shards N] [-queue 4096] [-seed 7]
//	            [-checkpoint mem|DIR] [-ckptint 30s] [-idlettl 0]
//	            [-subevict 0] [-shed 0.9] [-dedupwindow 1024] [-sessions 1024]
//	            [-telemetry full|basic|off]
//
// -telemetry full (the default) times every hot-path stage — per-kind
// request service, shard queue wait, detector updates, checkpoint writes —
// into log2 latency histograms; basic keeps only the wire-visible serve_*
// stages; off removes all timing. The level never changes drift decisions.
//
// With -checkpoint DIR the per-stream detector states live in a filesystem
// store: a killed server restarted against the same directory rehydrates
// every stream and continues detection exactly where the last flushed
// checkpoint left off (clients can force durability via FlushCheckpoints).
// On SIGINT/SIGTERM the server drains its connections, flushes the store,
// and prints a final canonical-JSON snapshot.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"rbmim"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7365", "TCP listen address (use :0 for a kernel-chosen port)")
	httpAddr := flag.String("http", "", "HTTP sidecar address for /healthz and /metrics (empty disables)")
	pprof := flag.Bool("pprof", false, "expose net/http/pprof handlers on the HTTP sidecar (requires -http)")
	features := flag.Int("features", 0, "features per observation (required)")
	classes := flag.Int("classes", 0, "classes per stream (required)")
	shards := flag.Int("shards", 0, "worker shards (default NumCPU)")
	queue := flag.Int("queue", 0, "per-shard queue capacity (default 1024)")
	seed := flag.Int64("seed", 7, "base detector seed (each stream decorrelates from it)")
	adaptive := flag.Bool("adaptive", false, "enable RBM-IM's self-adaptive window on every stream's detector")
	checkpoint := flag.String("checkpoint", "", `checkpoint store: "mem" or a directory (empty disables)`)
	ckptInt := flag.Duration("ckptint", 30*time.Second, "periodic snapshot cadence when -checkpoint is set")
	idleTTL := flag.Duration("idlettl", 0, "evict streams idle for this long (0 disables; evicted state spills to the store)")
	maxFrame := flag.Int("maxframe", 0, "maximum request frame payload in bytes (default 16 MiB)")
	subEvict := flag.Int("subevict", 0, "evict a subscriber after this many dropped events (0 = drop-only, never evict)")
	shed := flag.Float64("shed", 0, "overload shedding high water as a fraction of shard queue capacity (0 disables; e.g. 0.9)")
	dedupWindow := flag.Int("dedupwindow", 0, "exactly-once dedup window per (session, stream) in sequence numbers (default 1024; negative disables)")
	sessions := flag.Int("sessions", 0, "maximum client sessions tracked for dedup before LRU eviction (default 1024)")
	telemetryLevel := flag.String("telemetry", "full", "latency telemetry granularity: full, basic, or off")
	flag.Parse()

	tele, err := rbmim.ParseTelemetryLevel(*telemetryLevel)
	if err != nil {
		fail(err)
	}

	var ckpt rbmim.CheckpointConfig
	switch *checkpoint {
	case "":
	case "mem":
		ckpt = rbmim.CheckpointConfig{Store: rbmim.NewMemStore(), Interval: *ckptInt}
	default:
		store, err := rbmim.NewFSStore(*checkpoint)
		if err != nil {
			fail(err)
		}
		ckpt = rbmim.CheckpointConfig{Store: store, Interval: *ckptInt}
	}
	m, err := rbmim.NewMonitor(rbmim.MonitorConfig{
		Detector:             rbmim.DetectorConfig{Features: *features, Classes: *classes, Seed: *seed, AdaptiveWindow: *adaptive},
		Shards:               *shards,
		QueueSize:            *queue,
		IdleTTL:              *idleTTL,
		Checkpoint:           ckpt,
		SubscriberEvictDrops: *subEvict,
		Telemetry:            tele,
	})
	if err != nil {
		fail(err)
	}
	srv, err := rbmim.NewServer(rbmim.ServerConfig{
		Monitor:       m,
		Addr:          *addr,
		HTTPAddr:      *httpAddr,
		MaxFrame:      *maxFrame,
		Pprof:         *pprof,
		ShedHighWater: *shed,
		DedupWindow:   *dedupWindow,
		MaxSessions:   *sessions,
		Telemetry:     tele,
	})
	if err != nil {
		fail(err)
	}
	fmt.Printf("driftserver: serving on %s\n", srv.Addr())
	if h := srv.HTTPAddr(); h != "" {
		fmt.Printf("driftserver: metrics on http://%s/metrics\n", h)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	fmt.Printf("driftserver: %s, shutting down\n", s)
	srv.Close() // drain connections, stop accepting
	m.Close()   // drain shards, flush the checkpoint store
	// The canonical stable-field-order snapshot encoding (the same bytes
	// the wire Snapshot reply carries).
	fmt.Printf("driftserver: final snapshot %s\n", m.Snapshot().AppendJSON(nil))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "driftserver:", err)
	os.Exit(1)
}
