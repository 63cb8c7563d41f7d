package server

import (
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rbmim/internal/codec"
	"rbmim/internal/core"
	"rbmim/internal/detectors"
	"rbmim/internal/monitor"
	"rbmim/internal/stream"
	"rbmim/internal/synth"
)

// testHash is a local FNV-1a so the test owns the per-stream detector seeds
// end to end (the monitor's default factory hash is unexported, and the
// equivalence check below must rebuild the exact detector a stream got).
func testHash(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func orderingDetectorConfig(id string) core.Config {
	return core.Config{
		Features: 8, Classes: 3, Seed: 11 ^ int64(testHash(id)),
		BatchSize: 25, WarmupBatches: 5, AdaptiveWindow: true,
	}
}

// buildWireWorkload generates a deterministic multi-stream workload with a
// sudden concept change halfway through each stream, so the equivalence
// check covers real drift decisions, not just quiet streams.
func buildWireWorkload(t *testing.T, streams, perStream int) map[string][]detectors.Observation {
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

// traceEvent is the part of a drift event that must not depend on the
// transport: where the drift fired, which classes it names, and the
// mini-batch of its flight record (-1 without one).
type traceEvent struct {
	Seq     uint64
	Classes []int
	Batch   int
}

// stateSum checksums one stream's flushed checkpoint: the raw frame,
// and the learned weights restored from it.
type stateSum struct {
	frame, weights uint64
}

// runWireWorkload pushes the workload through a fresh monitor+server over
// loopback — serially (one window-1 client, synchronous calls) or pipelined
// (one client over 2 connections, window 16, 3 racing producers keeping a ring
// of async batches in flight) — and returns per-stream drift traces plus
// per-stream checksums of the flushed checkpoints.
func runWireWorkload(t *testing.T, work map[string][]detectors.Observation, pipelined bool) (map[string][]traceEvent, map[string]stateSum) {
	t.Helper()
	store := monitor.NewMemStore()
	m, err := monitor.New(monitor.Config{
		Detector: core.Config{Classes: 3}, // sizes per-class stats; factory below overrides
		NewDetector: func(id string) (detectors.Detector, error) {
			return core.NewDetector(orderingDetectorConfig(id))
		},
		Shards:     4,
		QueueSize:  128,
		Checkpoint: monitor.CheckpointConfig{Store: store},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	total := 0
	for _, obs := range work {
		total += len(obs)
	}
	sub := subscribeMonitor(t, m, total)
	srv, err := New(Config{Monitor: m})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ids := make([]string, 0, len(work))
	for id := range work {
		ids = append(ids, id)
	}
	const block = 50
	if pipelined {
		pool, err := Dial(ClientConfig{Addrs: []string{srv.Addr()}, Conns: 2, Window: 16})
		if err != nil {
			t.Fatal(err)
		}
		defer pool.Close()
		const producers = 3
		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			mine := make([]string, 0, len(ids)/producers+1)
			for i := p; i < len(ids); i += producers {
				mine = append(mine, ids[i])
			}
			wg.Add(1)
			go func(mine []string) {
				defer wg.Done()
				// Keep a ring of async batches in flight, interleaved across
				// the producer's streams so connections carry mixed traffic.
				var ring [8]Pending
				n := 0
				send := func(id string, obs []detectors.Observation) bool {
					if n >= len(ring) {
						if err := ring[n%len(ring)].Wait(); err != nil {
							t.Errorf("Wait: %v", err)
							return false
						}
					}
					p, err := pool.IngestBatchAsync(id, obs)
					if err != nil {
						t.Errorf("IngestBatchAsync(%s): %v", id, err)
						return false
					}
					ring[n%len(ring)] = p
					n++
					return true
				}
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
						if !send(id, obs[off:end]) {
							return
						}
						sent = true
					}
					if !sent {
						break
					}
				}
				for i := 0; i < n && i < len(ring); i++ {
					if err := ring[i].Wait(); err != nil {
						t.Errorf("drain Wait: %v", err)
					}
				}
			}(mine)
		}
		wg.Wait()
		if err := pool.FlushCheckpoints(); err != nil {
			t.Fatal(err)
		}
	} else {
		c, err := Dial(ClientConfig{Addrs: []string{srv.Addr()}, Window: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for off := 0; ; off += block {
			sent := false
			for _, id := range ids {
				obs := work[id]
				if off >= len(obs) {
					continue
				}
				end := off + block
				if end > len(obs) {
					end = len(obs)
				}
				if err := c.IngestBatch(id, obs[off:end]); err != nil {
					t.Fatal(err)
				}
				sent = true
			}
			if !sent {
				break
			}
		}
		if err := c.FlushCheckpoints(); err != nil {
			t.Fatal(err)
		}
	}

	drifts := make(map[string][]traceEvent)
	for _, ev := range drainEvents(t, sub) {
		te := traceEvent{Seq: ev.Seq, Classes: ev.Classes, Batch: -1}
		if ev.Record != nil {
			te.Batch = ev.Record.Batch
		}
		drifts[ev.StreamID] = append(drifts[ev.StreamID], te)
	}

	// Checksum every stream's raw checkpoint frame, then restore it into a
	// fresh detector and checksum the learned weights.
	sums := make(map[string]stateSum, len(ids))
	for _, id := range ids {
		data, ok, err := store.Get(id)
		if err != nil || !ok {
			t.Fatalf("checkpoint for %s after flush: ok=%v err=%v", id, ok, err)
		}
		det, err := core.NewDetector(orderingDetectorConfig(id))
		if err != nil {
			t.Fatal(err)
		}
		payload, err := codec.ExpectFrame(data, codec.KindMonitorStream)
		if err != nil {
			t.Fatalf("checkpoint frame for %s: %v", id, err)
		}
		if err := det.LoadStateBytes(payload[8:]); err != nil {
			t.Fatalf("restore %s: %v", id, err)
		}
		sums[id] = stateSum{frame: testHash(string(data)), weights: det.RBM().WeightChecksum()}
	}
	return drifts, sums
}

// TestPipelinedOrderingEquivalence is the acceptance bar for the pipelined
// wire path: the same workload pushed through a window-1 serial client and
// through a multiplexed pool of window-16 pipelined connections with racing
// producers must yield identical per-stream drift traces (sequence number,
// attributed classes and flight-record batch of every event) and
// bit-identical checkpoints and detector weights. Consistent-hash
// connection affinity plus in-order per-connection processing is what makes
// this hold — a pool that sprayed one stream across connections would fail
// it.
func TestPipelinedOrderingEquivalence(t *testing.T) {
	streams, perStream := 6, 2500
	if testing.Short() {
		streams, perStream = 4, 1200
	}
	work := buildWireWorkload(t, streams, perStream)
	serialDrifts, serialSums := runWireWorkload(t, work, false)
	pipeDrifts, pipeSums := runWireWorkload(t, work, true)

	total := 0
	for id := range work {
		s, p := serialDrifts[id], pipeDrifts[id]
		if !reflect.DeepEqual(s, p) {
			t.Fatalf("%s: drift traces diverge\nserial:    %+v\npipelined: %+v", id, s, p)
		}
		total += len(s)
		if serialSums[id] != pipeSums[id] {
			t.Fatalf("%s: checkpoint checksums %+v serial vs %+v pipelined — detector state diverged", id, serialSums[id], pipeSums[id])
		}
	}
	if total == 0 {
		t.Fatal("no drift detected on any stream: the equivalence check is vacuous")
	}
}

// pipeClient wires a single-connection client to an in-memory fake server:
// the test gets the raw server end of the pipe and full control over reply
// bytes.
func pipeClient(window int) (*Client, net.Conn) {
	cliEnd, srvEnd := net.Pipe()
	return pipeDial(cliEnd, window), srvEnd
}

// pipeDial builds a one-member, one-connection client over an established
// connection. It has no retry policy, so it never redials.
func pipeDial(nc net.Conn, window int) *Client {
	c, err := dialClient(ClientConfig{Addrs: []string{"pipe"}, Window: window},
		func(string) (net.Conn, error) { return nc, nil })
	if err != nil {
		panic(err)
	}
	return c
}

// soleMember returns a single-address client's connection set.
func soleMember(c *Client) *member {
	ms, _ := c.sortedMembers()
	return ms[0]
}

// readRequest reads one request frame off the fake server end and returns
// its kind and echoed id.
func readRequest(t *testing.T, sc *codec.FrameScanner) (uint8, uint64) {
	t.Helper()
	kind, body, err := sc.Next()
	if err != nil {
		t.Fatalf("fake server read: %v", err)
	}
	rd := codec.NewReader(body)
	id := rd.U64()
	if rd.Err() != nil {
		t.Fatalf("fake server parse: %v", rd.Err())
	}
	return kind, id
}

// TestPipelinedMidWindowCrash: the server dies with most of the window
// unacknowledged. Every pending caller must get an error — none may hang —
// and later calls must return the same sticky error.
func TestPipelinedMidWindowCrash(t *testing.T) {
	const window = 8
	c, srvEnd := pipeClient(window)
	defer c.Close()
	obs := testObs(4, 1)[0]

	done := make(chan error, window)
	go func() {
		// Fake server: ack the first request, swallow two more, then crash.
		sc := codec.NewFrameScanner(srvEnd)
		_, id := readRequest(t, sc)
		b := codec.NewBuffer(nil)
		b.U64(id)
		if _, err := srvEnd.Write(codec.AppendFrame(nil, codec.KindWireOK, b.Bytes())); err != nil {
			t.Errorf("fake server write: %v", err)
		}
		readRequest(t, sc)
		readRequest(t, sc)
		srvEnd.Close()
	}()

	var pend [window]Pending
	for i := range pend {
		p, err := c.IngestAsync("s", obs)
		if err != nil {
			t.Fatalf("IngestAsync %d: %v", i, err)
		}
		pend[i] = p
	}
	for i := range pend {
		go func(i int) { done <- pend[i].Wait() }(i)
	}
	okN, errN := 0, 0
	for i := 0; i < window; i++ {
		select {
		case err := <-done:
			if err == nil {
				okN++
			} else {
				errN++
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("mid-window crash hung a caller: %d/%d completions after 10s", okN+errN, window)
		}
	}
	if okN != 1 || errN != window-1 {
		t.Fatalf("completions after crash: %d ok / %d errors, want 1/%d", okN, errN, window-1)
	}
	// The failure is sticky: the client is dead, not wedged.
	if err := c.Ingest("s", obs); err == nil {
		t.Fatal("Ingest succeeded on a crashed client")
	}
}

// TestPipelinedReplyIDMismatch: a server echoing the wrong request id is a
// connection-fatal protocol error, surfaced to the waiting caller and sticky
// thereafter.
func TestPipelinedReplyIDMismatch(t *testing.T) {
	c, srvEnd := pipeClient(4)
	defer c.Close()
	go func() {
		sc := codec.NewFrameScanner(srvEnd)
		_, id := readRequest(t, sc)
		b := codec.NewBuffer(nil)
		b.U64(id ^ 0xFF) // corrupt the echo
		srvEnd.Write(codec.AppendFrame(nil, codec.KindWireOK, b.Bytes()))
	}()
	p, err := c.IngestAsync("s", testObs(4, 1)[0])
	if err != nil {
		t.Fatal(err)
	}
	err = p.Wait()
	if err == nil || !strings.Contains(err.Error(), "does not match") {
		t.Fatalf("Wait after id mismatch = %v, want id-mismatch protocol error", err)
	}
	if err2 := c.FlushCheckpoints(); err2 == nil {
		t.Fatal("client survived an id-mismatch reply")
	}
}

// TestPipelinedUnsolicitedReply: a reply with nothing in flight kills the
// connection instead of being silently dropped.
func TestPipelinedUnsolicitedReply(t *testing.T) {
	c, srvEnd := pipeClient(4)
	defer c.Close()
	b := codec.NewBuffer(nil)
	b.U64(uint64(1)<<32 | 0)
	go srvEnd.Write(codec.AppendFrame(nil, codec.KindWireOK, b.Bytes()))
	deadline := time.Now().Add(10 * time.Second)
	for soleMember(c).conns[0].sticky() == nil {
		if time.Now().After(deadline) {
			t.Fatal("unsolicited reply never killed the client")
		}
		time.Sleep(time.Millisecond)
	}
	if err := c.Ingest("s", testObs(4, 1)[0]); err == nil {
		t.Fatal("Ingest succeeded after an unsolicited reply")
	}
}

// TestPipelinedFragmentedReplies sweeps read-fragmentation over a window of
// interleaved pipelined replies: the fake server banks a full window of
// requests, then dribbles all the replies — OKs interleaved with an Error —
// in chunks of every awkward size. Reply matching and the per-slot payload
// copy must be boundary-proof.
func TestPipelinedFragmentedReplies(t *testing.T) {
	obs := testObs(4, 1)[0]
	for _, chunk := range []int{1, 2, 3, 7, 10, 13, 64, 1 << 20} {
		const n = 12
		c, srvEnd := pipeClient(n)
		fakeDone := make(chan struct{})
		go func() {
			defer close(fakeDone)
			defer srvEnd.Close()
			sc := codec.NewFrameScanner(srvEnd)
			ids := make([]uint64, n)
			for i := range ids {
				_, ids[i] = readRequest(t, sc)
			}
			// Build every reply back to back, then dribble the bytes.
			out := codec.NewBuffer(nil)
			for i, id := range ids {
				if i == 5 {
					mark := out.BeginFrame(codec.KindWireError)
					out.U64(id)
					out.Str("boom-5")
					out.EndFrame(mark)
					continue
				}
				mark := out.BeginFrame(codec.KindWireOK)
				out.U64(id)
				out.EndFrame(mark)
			}
			all := out.Bytes()
			for off := 0; off < len(all); off += chunk {
				end := off + chunk
				if end > len(all) {
					end = len(all)
				}
				if _, err := srvEnd.Write(all[off:end]); err != nil {
					t.Errorf("chunk %d: fake write: %v", chunk, err)
					return
				}
			}
		}()
		var pend [n]Pending
		for i := range pend {
			p, err := c.IngestAsync("s", obs)
			if err != nil {
				t.Fatalf("chunk %d: IngestAsync %d: %v", chunk, i, err)
			}
			pend[i] = p
		}
		for i := range pend {
			err := pend[i].Wait()
			if i == 5 {
				if err == nil || !strings.Contains(err.Error(), "boom-5") {
					t.Fatalf("chunk %d: request 5 = %v, want server error boom-5", chunk, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("chunk %d: request %d failed: %v", chunk, i, err)
			}
		}
		<-fakeDone
		c.Close()
	}
}

// TestClientCloseStickyRace is the satellite regression test: Close racing
// in-flight Ingest calls must never hang a caller or surface a raw
// connection-teardown error — after Close wins, every outcome is the sticky
// ErrClientClosed.
func TestClientCloseStickyRace(t *testing.T) {
	for round := 0; round < 8; round++ {
		srv, m, _ := newTestServer(t, monitor.Config{
			Shards: 1,
			NewDetector: func(string) (detectors.Detector, error) {
				return nullDetector{}, nil
			},
		}, Config{})
		c, err := Dial(ClientConfig{Addrs: []string{srv.Addr()}, Window: 8})
		if err != nil {
			t.Fatal(err)
		}
		obs := testObs(4, 1)[0]
		const workers = 4
		var wg sync.WaitGroup
		start := make(chan struct{})
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; ; i++ {
					if err := c.Ingest("s", obs); err != nil {
						if !errors.Is(err, ErrClientClosed) {
							t.Errorf("Ingest during Close = %v, want ErrClientClosed", err)
						}
						return
					}
				}
			}()
		}
		close(start)
		time.Sleep(time.Duration(round) * 500 * time.Microsecond)
		go c.Close() // and a concurrent second Close
		c.Close()
		wg.Wait()
		if err := c.FlushCheckpoints(); !errors.Is(err, ErrClientClosed) {
			t.Fatalf("FlushCheckpoints after Close = %v, want ErrClientClosed", err)
		}
		srv.Close()
		m.Close()
	}
}

// TestConnSetRoundTrip drives a client over a three-connection set end to
// end: every stream's traffic lands intact (counter conservation through
// the flush barrier), and the server-side wire counters — in-flight high
// water, coalesced replies — actually move under a pipelined load and
// surface through the wire snapshot.
func TestConnSetRoundTrip(t *testing.T) {
	srv, _, _ := newTestServer(t, monitor.Config{
		Shards:    2,
		QueueSize: 4096,
		NewDetector: func(string) (detectors.Detector, error) {
			return nullDetector{}, nil
		},
	}, Config{})
	pool, err := Dial(ClientConfig{Addrs: []string{srv.Addr()}, Conns: 3, Window: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if n := len(soleMember(pool).conns); n != 3 {
		t.Fatalf("Conns = %d, want 3", n)
	}
	obs := testObs(4, 64)
	const streams, rounds = 32, 6
	var wg sync.WaitGroup
	sent := make([]uint64, 4)
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			var ring [8]Pending
			n := 0
			for r := 0; r < rounds; r++ {
				for s := p; s < streams; s += 4 {
					if n >= len(ring) {
						if err := ring[n%len(ring)].Wait(); err != nil {
							t.Errorf("Wait: %v", err)
							return
						}
					}
					pd, err := pool.IngestBatchAsync(fmt.Sprintf("stream-%d", s), obs)
					if err != nil {
						t.Errorf("IngestBatchAsync: %v", err)
						return
					}
					ring[n%len(ring)] = pd
					n++
					sent[p] += uint64(len(obs))
				}
			}
			for i := 0; i < n && i < len(ring); i++ {
				if err := ring[i].Wait(); err != nil {
					t.Errorf("drain Wait: %v", err)
				}
			}
		}(p)
	}
	wg.Wait()
	if err := pool.FlushCheckpoints(); err != nil {
		t.Fatal(err)
	}
	sn, err := pool.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var want uint64
	for _, s := range sent {
		want += s
	}
	if sn.Ingested != want {
		t.Fatalf("Ingested = %d, want %d", sn.Ingested, want)
	}
	if sn.Streams != streams {
		t.Fatalf("Streams = %d, want %d", sn.Streams, streams)
	}
	// The wire overlay: a pipelined pool load must have driven the
	// connection pipelines deeper than one and coalesced replies.
	if sn.InFlightHighWater < 2 {
		t.Fatalf("InFlightHighWater = %d after a pipelined load, want >= 2", sn.InFlightHighWater)
	}
	if sn.RepliesCoalesced == 0 {
		t.Fatal("RepliesCoalesced = 0 after a pipelined load")
	}
	// Per-stream routing is consistent: the same stream always lands on the
	// same connection.
	for s := 0; s < streams; s++ {
		id := fmt.Sprintf("stream-%d", s)
		if soleMember(pool).pick(id) != soleMember(pool).pick(id) {
			t.Fatalf("stream %s routed to different connections", id)
		}
	}
}

// TestPipelinedAsyncAllocs extends the 0-alloc bar to the pipelined path: a
// full window of async batches plus their Waits must not allocate at steady
// state, measured process-wide against a live server.
func TestPipelinedAsyncAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the alloc bar is measured without -race")
	}
	srv, _, _ := newTestServer(t, monitor.Config{
		Shards:    1,
		QueueSize: 4096,
		NewDetector: func(string) (detectors.Detector, error) {
			return nullDetector{}, nil
		},
	}, Config{})
	c, err := Dial(ClientConfig{Addrs: []string{srv.Addr()}, Window: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	obs := testObs(20, 64)
	var pend [8]Pending
	run := func() {
		for i := range pend {
			p, err := c.IngestBatchAsync("stream-1", obs)
			if err != nil {
				t.Fatal(err)
			}
			pend[i] = p
		}
		for i := range pend {
			if err := pend[i].Wait(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 50; i++ {
		run() // warm every pool, map, and scratch buffer on both sides
	}
	allocs := testing.AllocsPerRun(100, run)
	if allocs > 0.5 {
		t.Fatalf("steady-state pipelined window allocates %.2f allocs/op (process-wide), want 0", allocs)
	}
}

// readCountingConn counts the Reads that delivered bytes.
type readCountingConn struct {
	net.Conn
	reads *atomic.Int64
}

func (c readCountingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.reads.Add(1)
	}
	return n, err
}

// TestClientReplyReadsBuffered pins the client's reply reader to bulk
// reads: the server acks a pipelined window in one coalesced write, so the
// client must read it back in far fewer Reads than replies. An unbuffered
// frame reader pays exactly two per reply (header, then body).
func TestClientReplyReadsBuffered(t *testing.T) {
	srv, _, _ := newTestServer(t, monitor.Config{
		Shards:    1,
		QueueSize: 4096,
		NewDetector: func(string) (detectors.Detector, error) {
			return nullDetector{}, nil
		},
	}, Config{})
	var reads atomic.Int64
	c, err := dialClient(ClientConfig{Addrs: []string{srv.Addr()}, Window: 16},
		func(addr string) (net.Conn, error) {
			nc, err := net.Dial("tcp", addr)
			return readCountingConn{Conn: nc, reads: &reads}, err
		})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 4096
	obs := testObs(4, 64)
	var ring [16]Pending
	for i := 0; i < n; i++ {
		slot := &ring[i%len(ring)]
		if i >= len(ring) {
			if err := slot.Wait(); err != nil {
				t.Fatal(err)
			}
		}
		p, err := c.IngestAsync("stream-1", obs[i%len(obs)])
		if err != nil {
			t.Fatal(err)
		}
		*slot = p
	}
	for _, p := range ring {
		if err := p.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	perReply := float64(reads.Load()) / n
	t.Logf("%.3f client reads per reply", perReply)
	if perReply > 1 {
		t.Fatalf("client read %.3f times per reply, want at most 1", perReply)
	}
}

// gatedConn delivers each Write's bytes to the peer and then, for the first
// holds Writes, keeps the call from returning until the test opens the gate
// or the conn closes: a writev whose bytes reached the server, and were
// answered, before the syscall returned. It records whether the bytes a
// held Write was handed changed before it returned.
type gatedConn struct {
	net.Conn
	holds   atomic.Int32
	entered chan struct{} // one send per held Write, after delivery
	gate    chan struct{} // one receive releases one held Write
	closed  chan struct{}
	once    sync.Once
	changed atomic.Bool
}

func newGatedConn(nc net.Conn, holds int32) *gatedConn {
	g := &gatedConn{
		Conn:    nc,
		entered: make(chan struct{}, 16),
		gate:    make(chan struct{}),
		closed:  make(chan struct{}),
	}
	g.holds.Store(holds)
	return g
}

func (g *gatedConn) Write(p []byte) (int, error) {
	if g.holds.Add(-1) < 0 {
		return g.Conn.Write(p)
	}
	seen := append([]byte(nil), p...)
	n, err := g.Conn.Write(p)
	if err != nil {
		return n, err
	}
	g.entered <- struct{}{}
	select {
	case <-g.gate:
	case <-g.closed:
		err = net.ErrClosed
	}
	if string(seen) != string(p) {
		g.changed.Store(true)
	}
	return n, err
}

func (g *gatedConn) Close() error {
	g.once.Do(func() { close(g.closed) })
	return g.Conn.Close()
}

// ackServer answers every request frame on nc with an OK at once and sends
// each request id to ids (when non-nil), until nc fails.
func ackServer(nc net.Conn, ids chan<- uint64) {
	sc := codec.NewFrameScanner(nc)
	b := codec.NewBuffer(nil)
	for {
		_, body, err := sc.Next()
		if err != nil {
			return
		}
		id := codec.NewReader(body).U64()
		if ids != nil {
			ids <- id
		}
		b.Reset()
		b.U64(id)
		if _, err := nc.Write(codec.AppendFrame(nil, codec.KindWireOK, b.Bytes())); err != nil {
			return
		}
	}
}

// waitFree polls until the conn's free list holds want slots.
func waitFree(t *testing.T, cn *conn, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for len(cn.free) != want {
		if time.Now().After(deadline) {
			t.Fatalf("free list holds %d slots, want %d", len(cn.free), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPipelinedSlotWaitsForWrite pins the recycled-slot rule: a slot goes
// back to the free list only when both its write call and its reply have
// let go of it. The server answers each frame while the client's Write on
// it is still held; at window 1 the next IngestAsync must not acquire the
// slot (and rebuild its frame) until that Write returns, and the request
// id's generation rises once per completed call. With Reconnect on and the
// epoch killed mid-write, every slot returns to free exactly once.
func TestPipelinedSlotWaitsForWrite(t *testing.T) {
	obs := testObs(4, 1)[0]
	const rounds = 3
	cliEnd, srvEnd := net.Pipe()
	g := newGatedConn(cliEnd, rounds)
	c := pipeDial(g, 1)
	defer c.Close()
	cn := soleMember(c).conns[0]
	ids := make(chan uint64, rounds+1)
	go ackServer(srvEnd, ids)

	type result struct {
		p   Pending
		err error
	}
	recv := func(what string, ch <-chan struct{}) {
		t.Helper()
		select {
		case <-ch:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: timed out", what)
		}
	}
	checkID := func(call int) {
		t.Helper()
		select {
		case id := <-ids:
			if gen, slot := id>>32, uint32(id); gen != uint64(call) || slot != 0 {
				t.Fatalf("call %d carried id gen %d slot %d, want gen %d slot 0", call, gen, slot, call)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("call %d never reached the server", call)
		}
	}
	p, err := c.IngestAsync("s", obs)
	if err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= rounds; round++ {
		recv("held write", g.entered)
		if err := p.Wait(); err != nil {
			t.Fatalf("round %d: Wait = %v", round, err)
		}
		checkID(round)
		// The reply has let go of the slot; the write call has not.
		time.Sleep(5 * time.Millisecond)
		if n := len(cn.free); n != 0 {
			t.Fatalf("round %d: slot on the free list while its write is held (%d free)", round, n)
		}
		next := make(chan result, 1)
		go func() {
			p, err := c.IngestAsync("s", obs)
			next <- result{p, err}
		}()
		select {
		case <-next:
			t.Fatalf("round %d: IngestAsync acquired the slot while its previous write was held", round)
		case <-time.After(20 * time.Millisecond):
		}
		g.gate <- struct{}{}
		var r result
		select {
		case r = <-next:
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: IngestAsync never acquired the slot after the write returned", round)
		}
		if r.err != nil {
			t.Fatalf("round %d: IngestAsync = %v", round, r.err)
		}
		if g.changed.Load() {
			t.Fatalf("round %d: the frame bytes changed while Write still held them", round)
		}
		p = r.p
	}
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	checkID(rounds + 1)
	waitFree(t, cn, 1)

	for _, window := range []int{1, 4} {
		t.Run(fmt.Sprintf("reconnect-window-%d", window), func(t *testing.T) {
			testSlotsFreeOnceAfterMidWriteKill(t, window)
		})
	}
}

// testSlotsFreeOnceAfterMidWriteKill kills the first epoch while its first
// Write is held, after the server answered that frame: the answered slot is
// freed by the failed write, the rest are resent on the next epoch, and each
// of the window's slots ends on the free list exactly once.
func testSlotsFreeOnceAfterMidWriteKill(t *testing.T, window int) {
	obs := testObs(4, 1)[0]
	first, firstSrv := net.Pipe()
	g := newGatedConn(first, 1)
	var dials atomic.Int32
	pol := RetryPolicy{Reconnect: true, MaxDialAttempts: 3, BackoffBase: time.Millisecond, BackoffMax: time.Millisecond}
	c, err := dialClient(ClientConfig{Addrs: []string{"pipe"}, Window: window, Retry: pol},
		func(string) (net.Conn, error) {
			if dials.Add(1) == 1 {
				return g, nil
			}
			cli, srv := net.Pipe()
			go ackServer(srv, nil)
			return cli, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cn := soleMember(c).conns[0]
	// The first epoch's server answers one frame, waits for the client to
	// resolve it, then dies while the client's write of it is still held.
	answered := make(chan struct{})
	go func() {
		sc := codec.NewFrameScanner(firstSrv)
		_, body, err := sc.Next()
		if err != nil {
			return
		}
		b := codec.NewBuffer(nil)
		b.U64(codec.NewReader(body).U64())
		firstSrv.Write(codec.AppendFrame(nil, codec.KindWireOK, b.Bytes()))
		<-answered
		firstSrv.Close()
	}()
	pend := make([]Pending, window)
	for i := range pend {
		if pend[i], err = c.IngestAsync("s", obs); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-g.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the first write was never held")
	}
	if err := pend[0].Wait(); err != nil {
		t.Fatalf("Wait on the answered call = %v", err)
	}
	close(answered)
	for i, p := range pend[1:] {
		if err := p.Wait(); err != nil {
			t.Fatalf("Wait on resent call %d = %v", i+1, err)
		}
	}
	// At window 1 nothing is resent, so the redial may still be under way.
	for deadline := time.Now().Add(10 * time.Second); cn.reconnects.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the client never reconnected")
		}
	}
	waitFree(t, cn, window)
	seen := make(map[uint32]bool)
	for i := 0; i < window; i++ {
		s := <-cn.free
		if seen[s] || int(s) >= window {
			t.Fatalf("free list holds slot %d twice or out of range", s)
		}
		seen[s] = true
	}
	time.Sleep(5 * time.Millisecond)
	if n := len(cn.free); n != 0 {
		t.Fatalf("%d slots returned to the free list a second time", n)
	}
	for s := range seen {
		cn.free <- s
	}
	if err := c.Ingest("s", obs); err != nil {
		t.Fatalf("Ingest after the reconnect = %v", err)
	}
}
