package server

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
)

// The cluster benchmarks measure the tentpole claim end to end: real
// driftserver processes (one per fleet member), real TCP, the cluster
// client fanning a pipelined batch workload across the ring. Comparing the
// 1/2/3-node rows gives the horizontal-scaling factor — on a multi-core
// box the fleet rows should beat the single node; on a single-core CI
// machine all processes time-slice one core and the rows mostly measure
// protocol overhead (see EXPERIMENTS.md, "Cluster scaling").

var clusterBin struct {
	once sync.Once
	path string
	err  error
}

// driftserverBin builds cmd/driftserver once per test process.
func driftserverBin(tb testing.TB) string {
	tb.Helper()
	clusterBin.once.Do(func() {
		dir, err := os.MkdirTemp("", "driftserver-bench-")
		if err != nil {
			clusterBin.err = err
			return
		}
		bin := filepath.Join(dir, "driftserver")
		build := exec.Command("go", "build", "-o", bin, "./cmd/driftserver")
		build.Dir = "../.."
		if out, err := build.CombinedOutput(); err != nil {
			clusterBin.err = fmt.Errorf("building driftserver: %v\n%s", err, out)
			return
		}
		clusterBin.path = bin
	})
	if clusterBin.err != nil {
		tb.Fatal(clusterBin.err)
	}
	return clusterBin.path
}

// spawnDriftserver starts one real driftserver process and returns its TCP
// address; cleanup sends SIGTERM and reaps it.
func spawnDriftserver(tb testing.TB, args ...string) string {
	tb.Helper()
	cmd := exec.Command(driftserverBin(tb), args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		tb.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		cmd.Process.Signal(syscall.SIGTERM)
		cmd.Wait()
	})
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if line := sc.Text(); strings.HasPrefix(line, "driftserver: serving on ") {
			addr := strings.TrimPrefix(line, "driftserver: serving on ")
			go func() { // keep draining so the child never blocks on stdout
				for sc.Scan() {
				}
			}()
			return addr
		}
	}
	tb.Fatalf("driftserver never reported its address (scan err: %v)", sc.Err())
	return ""
}

// startClusterNodes spawns an n-member fleet with identical detector
// templates and in-memory checkpoint stores (the configuration migration
// needs).
func startClusterNodes(tb testing.TB, n int) []string {
	tb.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = spawnDriftserver(tb,
			"-addr", "127.0.0.1:0",
			"-features", "8", "-classes", "3", "-shards", "2", "-seed", "7",
			"-checkpoint", "mem", "-ckptint", "1h")
	}
	return addrs
}

// benchCluster drives b.N pipelined 256-observation blocks across a fleet
// of real driftserver processes, round-robin over 64 streams, and reports
// per-observation cost. The closing flush barrier is inside the measured
// window, so acked-but-unprocessed work cannot flatter the number.
func benchCluster(b *testing.B, nodes int) {
	if testing.Short() {
		b.Skip("multi-process benchmark")
	}
	const (
		streams = 64
		block   = 256
		window  = 4
	)
	addrs := startClusterNodes(b, nodes)
	cc, err := Dial(ClientConfig{Addrs: addrs, Window: window})
	if err != nil {
		b.Fatal(err)
	}
	defer cc.Close()

	obs := testObs(8, block)
	ids := make([]string, streams)
	for i := range ids {
		ids[i] = fmt.Sprintf("stream-%04d", i)
	}
	// Warm-up: materialize every stream's detector on its member.
	for _, id := range ids {
		if err := cc.IngestBatch(id, obs); err != nil {
			b.Fatal(err)
		}
	}

	inflight := nodes * window
	ring := make([]Pending, inflight)
	n := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n >= inflight {
			if err := ring[n%inflight].Wait(); err != nil {
				b.Fatal(err)
			}
		}
		pd, err := cc.IngestBatchAsync(ids[i%streams], obs)
		if err != nil {
			b.Fatal(err)
		}
		ring[n%inflight] = pd
		n++
	}
	for i := 0; i < n && i < inflight; i++ {
		if err := ring[i].Wait(); err != nil {
			b.Fatal(err)
		}
	}
	if err := cc.FlushCheckpoints(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(block), "ns/obs")
}

func BenchmarkClusterIngestBatch1(b *testing.B) { benchCluster(b, 1) }
func BenchmarkClusterIngestBatch2(b *testing.B) { benchCluster(b, 2) }
func BenchmarkClusterIngestBatch3(b *testing.B) { benchCluster(b, 3) }

// BenchmarkClusterMigration measures one live stream migration end to end —
// export over the wire, checkpoint-frame handoff, install on the target —
// against streams trained with one warm-up block.
func BenchmarkClusterMigration(b *testing.B) {
	if testing.Short() {
		b.Skip("multi-process benchmark")
	}
	addrs := startClusterNodes(b, 2)
	cc, err := Dial(ClientConfig{Addrs: addrs, Window: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer cc.Close()
	obs := testObs(8, 256)
	if err := cc.IngestBatch("hot-stream", obs); err != nil {
		b.Fatal(err)
	}
	members := cc.Members()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		owner, err := cc.Owner("hot-stream")
		if err != nil {
			b.Fatal(err)
		}
		target := members[0]
		if target == owner {
			target = members[1]
		}
		if err := cc.Migrate("hot-stream", target); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/migration")
}
