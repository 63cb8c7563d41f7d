package server

import (
	"bufio"
	"fmt"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"rbmim/internal/core"
	"rbmim/internal/detectors"
	"rbmim/internal/monitor"
	"rbmim/internal/synth"
)

// TestServerKillResume is the server-level analogue of the monitor's
// kill-resume equivalence test, with a real process boundary: a driftserver
// is driven over loopback, checkpoint-flushed, killed with SIGKILL (no
// graceful shutdown, no close-time flush), and restarted against the same
// FSStore directory. The restarted server must rehydrate every stream and
// produce exactly the drift decisions an uninterrupted in-process run makes
// on the same observation sequence — which it can only do because RBM-IM's
// save -> load -> continue is bit-identical.
func TestServerKillResume(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-process test (builds and spawns driftserver)")
	}
	const (
		streams  = 4
		n        = 3000 // per stream
		cut      = 1500 // SIGKILL after this many observations per stream
		driftAt  = 2000 // concept switch (detected ~2100, well after the cut)
		features = 12
		classes  = 3
		seed     = 7
		batch    = 100
	)

	// Workload: per stream, concept A then a sharply different concept B.
	type wstream struct {
		id  string
		obs []detectors.Observation
	}
	workload := make([]wstream, streams)
	for s := range workload {
		a, err := synth.NewRBF(synth.Config{Features: features, Classes: classes, Seed: int64(100 + s)}, 3, 0.08)
		if err != nil {
			t.Fatal(err)
		}
		b, err := synth.NewRBF(synth.Config{Features: features, Classes: classes, Seed: int64(900 + s)}, 5, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		obs := make([]detectors.Observation, n)
		for i := range obs {
			src := a
			if i >= driftAt {
				src = b
			}
			in := src.Next()
			obs[i] = detectors.Observation{X: in.X, TrueClass: in.Y, Predicted: in.Y}
		}
		workload[s] = wstream{id: fmt.Sprintf("stream-%d", s), obs: obs}
	}

	// Reference: one uninterrupted in-process monitor with the exact
	// configuration driftserver builds from its flags.
	ref, err := monitor.New(monitor.Config{
		Detector: core.Config{Features: features, Classes: classes, Seed: seed, AdaptiveWindow: true},
		Shards:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	refSub := subscribeMonitor(t, ref, streams*n)
	for _, ws := range workload {
		for i := 0; i < n; i += batch {
			if err := ref.IngestBatch(ws.id, ws.obs[i:i+batch]); err != nil {
				t.Fatal(err)
			}
		}
	}
	ref.Close()
	refEvents := seqsByStream(drainEvents(t, refSub))
	wantPost := map[string][]uint64{}
	post := 0
	for id, seqs := range refEvents {
		for _, q := range seqs {
			if q > cut {
				wantPost[id] = append(wantPost[id], q)
				post++
			}
		}
	}
	if post == 0 {
		t.Fatal("reference run produced no post-cut drifts; the equivalence check would be vacuous")
	}

	// Build the real binary once.
	dir := t.TempDir()
	bin := filepath.Join(dir, "driftserver")
	build := exec.Command("go", "build", "-o", bin, "./cmd/driftserver")
	build.Dir = "../.."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building driftserver: %v\n%s", err, out)
	}
	ckptDir := filepath.Join(dir, "ckpt")
	serverArgs := []string{
		"-addr", "127.0.0.1:0",
		"-features", fmt.Sprint(features), "-classes", fmt.Sprint(classes),
		"-seed", fmt.Sprint(seed), "-adaptive", "-shards", "2",
		// A cadence that never fires: durability comes only from the
		// explicit FlushCheckpoints, so the kill point is exact.
		"-checkpoint", ckptDir, "-ckptint", "1h",
	}
	start := func() (*exec.Cmd, string) {
		cmd := exec.Command(bin, serverArgs...)
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		cmd.Stderr = cmd.Stdout
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "driftserver: serving on ") {
				addr := strings.TrimPrefix(line, "driftserver: serving on ")
				go func() { // keep draining so the child never blocks on stdout
					for sc.Scan() {
					}
				}()
				return cmd, addr
			}
		}
		t.Fatalf("driftserver never reported its address (scan err: %v)", sc.Err())
		return nil, ""
	}

	// Phase 1: first half of every stream, explicit durability, SIGKILL.
	cmd1, addr1 := start()
	c1, err := Dial(ClientConfig{Addrs: []string{addr1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, ws := range workload {
		for i := 0; i < cut; i += batch {
			if err := c1.IngestBatch(ws.id, ws.obs[i:i+batch]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := c1.FlushCheckpoints(); err != nil {
		t.Fatal(err)
	}
	c1.Close()
	if err := cmd1.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	cmd1.Wait() // reaps the kill; exit status is expectedly non-zero

	// Phase 2: restart on the same store, subscribe, replay the second half.
	cmd2, addr2 := start()
	defer func() {
		cmd2.Process.Signal(syscall.SIGTERM)
		cmd2.Wait()
	}()
	c2, err := Dial(ClientConfig{Addrs: []string{addr2}})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	sub, err := c2.Subscribe(4096)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	for _, ws := range workload {
		for i := cut; i < n; i += batch {
			if err := c2.IngestBatch(ws.id, ws.obs[i:i+batch]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := c2.FlushCheckpoints(); err != nil {
		t.Fatal(err)
	}
	sn, err := c2.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if sn.Rehydrated != streams {
		t.Fatalf("restarted server rehydrated %d streams, want %d", sn.Rehydrated, streams)
	}
	if sn.Ingested != uint64(streams*(n-cut)) {
		t.Fatalf("restarted server ingested %d, want %d", sn.Ingested, streams*(n-cut))
	}
	if sn.CheckpointErrors != 0 {
		t.Fatalf("restarted server hit %d checkpoint errors", sn.CheckpointErrors)
	}
	// This process's drift counter counts post-restart decisions only; its
	// events are still in flight on the subscription, so collect until the
	// counts agree.
	gotPost := map[string][]uint64{}
	received := 0
	deadline := time.After(10 * time.Second)
	for uint64(received) < sn.Drifts {
		select {
		case ev, ok := <-sub.Events():
			if !ok {
				t.Fatalf("event stream ended after %d of %d events (err: %v)", received, sn.Drifts, sub.Err())
			}
			gotPost[ev.StreamID] = append(gotPost[ev.StreamID], ev.Seq)
			received++
		case <-deadline:
			t.Fatalf("timed out after %d of %d events", received, sn.Drifts)
		}
	}

	// The acceptance criterion: identical post-restart drift decisions.
	for id, want := range wantPost {
		got := gotPost[id]
		if len(got) != len(want) {
			t.Fatalf("stream %s: post-restart drifts at %v, reference %v", id, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("stream %s: post-restart drifts at %v, reference %v", id, got, want)
			}
		}
	}
	for id := range gotPost {
		if _, ok := wantPost[id]; !ok {
			t.Fatalf("stream %s drifted post-restart but not in the reference run", id)
		}
	}
}
