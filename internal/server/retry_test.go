package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"rbmim/internal/chaos"
	"rbmim/internal/codec"
	"rbmim/internal/core"
	"rbmim/internal/detectors"
	"rbmim/internal/monitor"
)

// The chaos battery: every resilience claim the client makes, proven
// against the fault injector (internal/chaos) with exact — not approximate
// — postconditions. The standard under fault is the same as without:
// conservation (Received == Ingested + Rejected + Queued, Queued == 0 at a
// flush barrier), exactly-once ingest (Ingested equals observations sent,
// no matter how many times frames were resent or duplicated), and
// bit-identical drift decisions and checkpoint bytes versus an unfaulted
// serial reference.

// newChaosServer starts monitor + server + fault proxy; clients dial
// px.Addr(). Cleanup order: proxy, then server, then monitor.
func newChaosServer(t *testing.T, mcfg monitor.Config, scfg Config, ccfg chaos.Config) (*monitor.Monitor, *chaos.Proxy) {
	t.Helper()
	m, err := monitor.New(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	scfg.Monitor = m
	srv, err := New(scfg)
	if err != nil {
		m.Close()
		t.Fatal(err)
	}
	ccfg.Target = srv.Addr()
	px, err := chaos.New(ccfg)
	if err != nil {
		srv.Close()
		m.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		px.Close()
		srv.Close()
		m.Close()
	})
	return m, px
}

// chaosPolicy is DefaultRetryPolicy tightened for tests: fast backoff, and
// a stall watchdog short enough to recover from dropped frames quickly.
func chaosPolicy() RetryPolicy {
	p := DefaultRetryPolicy()
	p.BackoffBase = 2 * time.Millisecond
	p.BackoffMax = 50 * time.Millisecond
	p.StallTimeout = 250 * time.Millisecond
	return p
}

// TestChaosExactlyOnceDriftEquivalence runs drops, duplicates, and resets
// against a synchronous multi-stream workload and demands the faulted run
// be indistinguishable from a clean serial one: exact observation count and
// bit-identical per-stream drift sequences.
func TestChaosExactlyOnceDriftEquivalence(t *testing.T) {
	streams := []string{"alpha", "beta", "gamma", "delta"}
	const perStream, batch = 240, 8
	obs := testObs(4, perStream)
	factory := func(string) (detectors.Detector, error) {
		return &wireDriftEveryN{n: 7, class: 1}, nil
	}

	// Unfaulted serial reference: same observations, same per-stream order,
	// straight into an in-process monitor.
	total := uint64(len(streams) * perStream)
	mr, err := monitor.New(monitor.Config{NewDetector: factory, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	refSub := subscribeMonitor(t, mr, int(total))
	for i := 0; i < perStream; i += batch {
		for _, s := range streams {
			if err := mr.IngestBatch(s, obs[i:i+batch]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := mr.FlushCheckpoints(); err != nil {
		t.Fatal(err)
	}
	ref := seqsByStream(drainEvents(t, refSub))
	mr.Close()

	// Faulted run: the same workload through the chaos proxy.
	m, px := newChaosServer(t,
		monitor.Config{NewDetector: factory, Shards: 2},
		Config{},
		chaos.Config{Seed: 42, DropRate: 0.04, DuplicateRate: 0.2, ResetEvery: 30},
	)
	faultedSub := subscribeMonitor(t, m, int(total))
	c, err := Dial(ClientConfig{Addrs: []string{px.Addr()}, Window: 8, Retry: chaosPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < perStream; i += batch {
		for _, s := range streams {
			if err := c.IngestBatch(s, obs[i:i+batch]); err != nil {
				t.Fatalf("IngestBatch(%s) through chaos: %v", s, err)
			}
		}
	}
	if err := c.FlushCheckpoints(); err != nil {
		t.Fatal(err)
	}
	sn, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	faulted := seqsByStream(drainEvents(t, faultedSub))

	st := px.Stats()
	t.Logf("chaos: %+v; reconnects=%d dedupHits=%d", st, c.Reconnects(), sn.DedupHits)
	if st.Dropped == 0 && st.Duplicated == 0 && st.Resets == 0 {
		t.Fatal("proxy injected no faults; the test proved nothing")
	}
	if c.Reconnects() == 0 {
		t.Fatal("client never reconnected despite injected faults")
	}

	if sn.Ingested != total {
		t.Fatalf("Ingested=%d, want exactly %d (exactly-once under resend)", sn.Ingested, total)
	}
	if sn.Received != sn.Ingested+sn.Rejected+sn.Queued || sn.Queued != 0 {
		t.Fatalf("conservation violated: Received=%d Ingested=%d Rejected=%d Queued=%d",
			sn.Received, sn.Ingested, sn.Rejected, sn.Queued)
	}
	if st.Duplicated >= 3 && sn.DedupHits == 0 {
		t.Fatalf("proxy duplicated %d frames but the server counted no dedup hits", st.Duplicated)
	}
	if !reflect.DeepEqual(ref, faulted) {
		t.Fatalf("drift sequences diverged from unfaulted reference:\nref:     %v\nfaulted: %v",
			ref, faulted)
	}
}

// TestChaosReconnectMidWindowConservation kills connections by RST with a
// full async window in flight: the reconnect must resubmit the in-flight
// frames in order, every Pending must resolve nil, and the count must be
// exact.
func TestChaosReconnectMidWindowConservation(t *testing.T) {
	const batches, batch = 200, 4
	obs := testObs(4, batch)
	_, px := newChaosServer(t,
		monitor.Config{NewDetector: func(string) (detectors.Detector, error) { return nullDetector{}, nil }, Shards: 2},
		Config{},
		chaos.Config{Seed: 7, ResetEvery: 25},
	)
	c, err := Dial(ClientConfig{Addrs: []string{px.Addr()}, Window: 16, Retry: chaosPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	pending := make([]Pending, 0, batches)
	for i := 0; i < batches; i++ {
		p, err := c.IngestBatchAsync(fmt.Sprintf("s%d", i%3), obs)
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		pending = append(pending, p)
	}
	for i, p := range pending {
		if err := p.Wait(); err != nil {
			t.Fatalf("pending %d failed through reconnects: %v", i, err)
		}
	}
	if err := c.FlushCheckpoints(); err != nil {
		t.Fatal(err)
	}
	sn, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sn.Ingested, uint64(batches*batch); got != want {
		t.Fatalf("Ingested=%d, want exactly %d", got, want)
	}
	if sn.Received != sn.Ingested+sn.Rejected+sn.Queued || sn.Queued != 0 {
		t.Fatalf("conservation violated: %+v", sn)
	}
	if px.Stats().Resets == 0 {
		t.Fatal("no resets injected; the test proved nothing")
	}
	if c.Reconnects() == 0 {
		t.Fatal("client never reconnected")
	}
}

// TestChaosDuplicateRepliesDeepWindow pipelines a deep async window through
// a duplicate-heavy proxy. A duplicated request frame makes the server reply
// twice; with more requests in flight the second reply mismatches the next
// oldest slot's id — the reader has already dequeued that slot when it kills
// the epoch, so the reconnect must resubmit it as the epoch's orphan.
// (Regression: the orphan used to vanish from both inflight and sendq, its
// Pending never resolving — a permanent hang, not an error.)
func TestChaosDuplicateRepliesDeepWindow(t *testing.T) {
	const batches, batch = 200, 4
	obs := testObs(4, batch)
	_, px := newChaosServer(t,
		monitor.Config{NewDetector: func(string) (detectors.Detector, error) { return nullDetector{}, nil }, Shards: 2},
		Config{},
		chaos.Config{Seed: 11, DuplicateRate: 0.3},
	)
	c, err := Dial(ClientConfig{Addrs: []string{px.Addr()}, Window: 8, Retry: chaosPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	pending := make([]Pending, 0, batches)
	for i := 0; i < batches; i++ {
		p, err := c.IngestBatchAsync(fmt.Sprintf("s%d", i%3), obs)
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		pending = append(pending, p)
	}
	for i, p := range pending {
		if err := p.Wait(); err != nil {
			t.Fatalf("pending %d failed through duplicate storms: %v", i, err)
		}
	}
	if err := c.FlushCheckpoints(); err != nil {
		t.Fatal(err)
	}
	sn, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sn.Ingested, uint64(batches*batch); got != want {
		t.Fatalf("Ingested=%d, want exactly %d", got, want)
	}
	if sn.Received != sn.Ingested+sn.Rejected+sn.Queued || sn.Queued != 0 {
		t.Fatalf("conservation violated: %+v", sn)
	}
	if px.Stats().Duplicated == 0 {
		t.Fatal("no duplicates injected; the test proved nothing")
	}
	if c.Reconnects() == 0 {
		t.Fatal("duplicate replies never forced a reconnect")
	}
}

// TestChaosCheckpointBitIdentical drives the real RBM detector through
// duplicates and resets and compares the checkpointed detector state —
// weights included — byte for byte against an unfaulted serial run.
func TestChaosCheckpointBitIdentical(t *testing.T) {
	streams := []string{"w0", "w1"}
	const perStream, batch = 128, 16
	obs := testObs(8, perStream)
	det := core.Config{Features: 8, Classes: 3, Seed: 7}

	refStore := monitor.NewMemStore()
	mr, err := monitor.New(monitor.Config{
		Detector: det, Shards: 2,
		Checkpoint: monitor.CheckpointConfig{Store: refStore, Interval: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < perStream; i += batch {
		for _, s := range streams {
			if err := mr.IngestBatch(s, obs[i:i+batch]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := mr.FlushCheckpoints(); err != nil {
		t.Fatal(err)
	}
	mr.Close()

	faultStore := monitor.NewMemStore()
	_, px := newChaosServer(t,
		monitor.Config{
			Detector: det, Shards: 2,
			Checkpoint: monitor.CheckpointConfig{Store: faultStore, Interval: time.Hour},
		},
		Config{},
		chaos.Config{Seed: 99, DuplicateRate: 0.3, ResetEvery: 10},
	)
	c, err := Dial(ClientConfig{Addrs: []string{px.Addr()}, Window: 8, Retry: chaosPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < perStream; i += batch {
		for _, s := range streams {
			if err := c.IngestBatch(s, obs[i:i+batch]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := c.FlushCheckpoints(); err != nil {
		t.Fatal(err)
	}
	for _, s := range streams {
		refBytes, ok, err := refStore.Get(s)
		if err != nil || !ok {
			t.Fatalf("reference checkpoint for %s: ok=%v err=%v", s, ok, err)
		}
		gotBytes, ok, err := faultStore.Get(s)
		if err != nil || !ok {
			t.Fatalf("faulted checkpoint for %s: ok=%v err=%v", s, ok, err)
		}
		if !bytes.Equal(refBytes, gotBytes) {
			t.Fatalf("checkpoint for %s diverged from unfaulted reference (%d vs %d bytes)",
				s, len(refBytes), len(gotBytes))
		}
	}
	if st := px.Stats(); st.Duplicated == 0 && st.Resets == 0 {
		t.Fatal("no faults injected; the test proved nothing")
	}
}

// TestChaosStallWatchdogReconnects black-holes every connection: no read or
// write ever errors, so only the stall watchdog can declare the connection
// dead. The client must keep reconnecting (each attempt black-holed again)
// while the caller's own deadline bounds the damage.
func TestChaosStallWatchdogReconnects(t *testing.T) {
	_, px := newChaosServer(t,
		monitor.Config{NewDetector: func(string) (detectors.Detector, error) { return nullDetector{}, nil }, Shards: 1},
		Config{},
		chaos.Config{Seed: 3, BlackholeRate: 1},
	)
	pol := chaosPolicy()
	pol.StallTimeout = 100 * time.Millisecond
	c, err := Dial(ClientConfig{Addrs: []string{px.Addr()}, Window: 4, Retry: pol})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	p, err := c.IngestAsync("s", testObs(4, 1)[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := p.WaitTimeout(2 * time.Second); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("Wait through a black hole = %v, want ErrDeadlineExceeded", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for c.Reconnects() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("stall watchdog never triggered a reconnect")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if Classify(ErrDeadlineExceeded) != ClassDeadline {
		t.Fatal("ErrDeadlineExceeded must classify as ClassDeadline")
	}
}

// TestServerShedsUnderOverload wedges the single shard so its queue fills,
// and checks the shed path end to end: Busy reply, ErrBusy at the client
// (no retry with a zero policy), the Shedded counter, and conservation —
// shed requests never reach the monitor.
func TestServerShedsUnderOverload(t *testing.T) {
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	_, _, c := newTestServer(t, monitor.Config{
		Shards:    1,
		QueueSize: 1,
		NewDetector: func(string) (detectors.Detector, error) {
			return &blockingDetector{entered: entered, release: release}, nil
		},
	}, Config{ShedHighWater: 0.5})
	var relOnce sync.Once
	rel := func() { relOnce.Do(func() { close(release) }) }
	t.Cleanup(rel) // un-wedge even on a failed assertion, or teardown hangs

	obs := testObs(4, 2)
	if err := c.Ingest("s", obs[0]); err != nil {
		t.Fatal(err)
	}
	// The shard is wedged inside Update and the observation is drawn down
	// from the queue counter only when Update returns, so occupancy is
	// pinned at 1 — at the 0.5 high water of the 2-slot ring.
	<-entered
	err := c.Ingest("s", obs[1])
	if !errors.Is(err, ErrBusy) {
		t.Fatalf("ingest over high water = %v, want ErrBusy", err)
	}
	if Classify(err) != ClassBusy {
		t.Fatalf("Classify(%v) = %d, want ClassBusy", err, Classify(err))
	}
	rel()
	if err := c.FlushCheckpoints(); err != nil {
		t.Fatal(err)
	}
	sn, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if sn.Shedded == 0 {
		t.Fatalf("Shedded=%d, want > 0", sn.Shedded)
	}
	if sn.Ingested != 1 {
		t.Fatalf("Ingested=%d, want 1 (the shed request must not reach the monitor)", sn.Ingested)
	}
	if sn.Received != sn.Ingested+sn.Rejected+sn.Queued || sn.Queued != 0 {
		t.Fatalf("conservation violated: %+v", sn)
	}
}

// TestClientBusyRetrySucceeds: with a retry policy, a Busy shed is retried
// (same seq) until the queue drains — the caller never sees ErrBusy.
func TestClientBusyRetrySucceeds(t *testing.T) {
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	m, err := monitor.New(monitor.Config{
		Shards:    1,
		QueueSize: 1,
		NewDetector: func(string) (detectors.Detector, error) {
			return &blockingDetector{entered: entered, release: release}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Monitor: m, ShedHighWater: 0.5})
	if err != nil {
		m.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(); m.Close() })
	var relOnce sync.Once
	rel := func() { relOnce.Do(func() { close(release) }) }
	t.Cleanup(rel)
	pol := DefaultRetryPolicy()
	pol.BusyAttempts = 100
	pol.BusyBackoff = 5 * time.Millisecond
	pol.BackoffMax = 20 * time.Millisecond
	c, err := Dial(ClientConfig{Addrs: []string{srv.Addr()}, Window: 4, Retry: pol})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	obs := testObs(4, 2)
	if err := c.Ingest("s", obs[0]); err != nil {
		t.Fatal(err)
	}
	<-entered
	// The shard is wedged with occupancy pinned at the high water: this
	// ingest is shed until the release below un-wedges the detector.
	done := make(chan error, 1)
	go func() { done <- c.Ingest("s", obs[1]) }()
	time.Sleep(30 * time.Millisecond) // let at least one Busy round-trip happen
	rel()
	if err := <-done; err != nil {
		t.Fatalf("busy-retried ingest = %v, want success after drain", err)
	}
	if err := c.FlushCheckpoints(); err != nil {
		t.Fatal(err)
	}
	sn, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if sn.Ingested != 2 {
		t.Fatalf("Ingested=%d, want exactly 2 (busy retries must not double-ingest)", sn.Ingested)
	}
	if sn.Shedded == 0 {
		t.Fatal("the test never actually shed")
	}
}

// TestClientBackoffTiming: reconnect sleeps must actually back off. With
// base 40ms and 3 attempts the jittered sleeps are at least 20+40+80ms.
func TestClientBackoffTiming(t *testing.T) {
	m, err := monitor.New(monitor.Config{
		NewDetector: func(string) (detectors.Detector, error) { return nullDetector{}, nil },
		Shards:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Monitor: m})
	if err != nil {
		m.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	pol := RetryPolicy{
		Reconnect:       true,
		MaxDialAttempts: 3,
		BackoffBase:     40 * time.Millisecond,
		BackoffMax:      400 * time.Millisecond,
	}
	c, err := Dial(ClientConfig{Addrs: []string{srv.Addr()}, Window: 4, Retry: pol})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	srv.Close() // the port closes; every redial is refused
	err = c.Ingest("s", testObs(4, 1)[0])
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("ingest succeeded against a closed server")
	}
	if Classify(err) != ClassTransport {
		t.Fatalf("Classify(%v) = %d, want ClassTransport", err, Classify(err))
	}
	if elapsed < 100*time.Millisecond {
		t.Fatalf("3 reconnect attempts took %v, want >= ~140ms of backoff", elapsed)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("3 reconnect attempts took %v — backoff cap not applied?", elapsed)
	}
}

// TestClientCloseAbortsBackoff: Close during a reconnect backoff sleep must
// return promptly, not wait out a 10s sleep.
func TestClientCloseAbortsBackoff(t *testing.T) {
	m, err := monitor.New(monitor.Config{
		NewDetector: func(string) (detectors.Detector, error) { return nullDetector{}, nil },
		Shards:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Monitor: m})
	if err != nil {
		m.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	pol := RetryPolicy{Reconnect: true, MaxDialAttempts: 3, BackoffBase: 10 * time.Second}
	c, err := Dial(ClientConfig{Addrs: []string{srv.Addr()}, Window: 4, Retry: pol})
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	// Wait until the client has noticed the death and entered backoff.
	time.Sleep(100 * time.Millisecond)
	start := time.Now()
	c.Close()
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("Close took %v with a 10s backoff in progress, want prompt", elapsed)
	}
}

// TestPendingExpiredDeadline: a deadline already in the past must fail fast
// with ErrDeadlineExceeded — and still prefer an ack that has landed.
func TestPendingExpiredDeadline(t *testing.T) {
	_, px := newChaosServer(t,
		monitor.Config{NewDetector: func(string) (detectors.Detector, error) { return nullDetector{}, nil }, Shards: 1},
		Config{},
		chaos.Config{Seed: 1, BlackholeRate: 1},
	)
	c, err := Dial(ClientConfig{Addrs: []string{px.Addr()}, Window: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	p, err := c.IngestAsync("s", testObs(4, 1)[0])
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := p.WaitDeadline(time.Now().Add(-time.Second)); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("WaitDeadline(past) = %v, want ErrDeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 200*time.Millisecond {
		t.Fatalf("expired deadline took %v, want immediate", elapsed)
	}

	// An ack that has already landed beats even an expired deadline.
	mcfg := monitor.Config{NewDetector: func(string) (detectors.Detector, error) { return nullDetector{}, nil }, Shards: 1}
	_, _, c2 := newTestServer(t, mcfg, Config{})
	p2, err := c2.IngestAsync("s", testObs(4, 1)[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.FlushCheckpoints(); err != nil { // barrier: the ack is in
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond) // let the reader resolve the ack cell
	if err := p2.WaitDeadline(time.Now().Add(-time.Second)); err != nil {
		t.Fatalf("WaitDeadline(past) with landed ack = %v, want nil", err)
	}
}

// TestConnSetFailover is the affinity regression test for a member's
// connection set: a permanently dead connection must stop receiving its
// hash-mapped streams — every stream re-homes to the next live connection,
// deterministically, and ingest keeps working.
func TestConnSetFailover(t *testing.T) {
	m, err := monitor.New(monitor.Config{
		NewDetector: func(string) (detectors.Detector, error) { return nullDetector{}, nil },
		Shards:      2,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Monitor: m})
	if err != nil {
		m.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(); m.Close() })
	p, err := Dial(ClientConfig{Addrs: []string{srv.Addr()}, Conns: 2, Window: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// Find a stream homed on connection 0 and one on connection 1.
	var home0, home1 string
	for i := 0; home0 == "" || home1 == ""; i++ {
		name := fmt.Sprintf("stream-%d", i)
		if monitor.ShardFor(name, 2) == 0 {
			if home0 == "" {
				home0 = name
			}
		} else if home1 == "" {
			home1 = name
		}
	}
	obs := testObs(4, 4)
	if err := p.Ingest(home0, obs[0]); err != nil {
		t.Fatal(err)
	}
	if err := p.Ingest(home1, obs[1]); err != nil {
		t.Fatal(err)
	}

	// Kill connection 0. Streams homed there must fail over to connection 1
	// instead of erroring forever on the dead one.
	set := soleMember(p)
	set.conns[0].close()
	if got := set.pick(home0); got != set.conns[1] {
		t.Fatal("pick() still routes a dead connection's stream to it")
	}
	if got := set.pick(home1); got != set.conns[1] {
		t.Fatal("pick() moved a live connection's stream")
	}
	if err := p.Ingest(home0, obs[2]); err != nil {
		t.Fatalf("ingest after failover = %v, want success on the surviving connection", err)
	}
	if err := p.FlushCheckpoints(); err != nil {
		t.Fatal(err)
	}
	sn, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if sn.Ingested != 3 {
		t.Fatalf("Ingested=%d, want 3", sn.Ingested)
	}
}

// TestClientCleanEOFVsMidFrame: the two ways a connection ends must be
// distinguishable — ErrServerDrain for a clean close at a frame boundary,
// io.ErrUnexpectedEOF for a mid-frame cut.
func TestClientCleanEOFVsMidFrame(t *testing.T) {
	// Clean: a graceful server shutdown closes at a frame boundary.
	m, err := monitor.New(monitor.Config{
		NewDetector: func(string) (detectors.Detector, error) { return nullDetector{}, nil },
		Shards:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Monitor: m})
	if err != nil {
		m.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	c, err := Dial(ClientConfig{Addrs: []string{srv.Addr()}, Window: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ingest("s", testObs(4, 1)[0]); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	deadline := time.Now().Add(5 * time.Second)
	for !soleMember(c).conns[0].isDead() {
		if time.Now().After(deadline) {
			t.Fatal("client never noticed the server closing")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := soleMember(c).conns[0].sticky(); !errors.Is(err, ErrServerDrain) {
		t.Fatalf("clean close surfaced %v, want ErrServerDrain", err)
	}

	// Mid-frame: a reply cut off inside its header.
	cliEnd, srvEnd := net.Pipe()
	c2 := pipeDial(cliEnd, 4)
	defer c2.Close()
	frame := codec.AppendFrame(nil, codec.KindWireOK, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	if _, err := srvEnd.Write(frame[:5]); err != nil {
		t.Fatal(err)
	}
	srvEnd.Close()
	deadline = time.Now().Add(5 * time.Second)
	cn2 := soleMember(c2).conns[0]
	for !cn2.isDead() {
		if time.Now().After(deadline) {
			t.Fatal("client never noticed the cut connection")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cn2.sticky(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("mid-frame cut surfaced %v, want io.ErrUnexpectedEOF underneath", err)
	}
	if errors.Is(cn2.sticky(), ErrServerDrain) {
		t.Fatal("mid-frame cut must not look like a clean drain")
	}
}

// TestDedupTable exercises the exact-set window directly: duplicates inside
// the window, gaps staying fresh, aged-out rejection, and session eviction.
func TestDedupTable(t *testing.T) {
	d := newDedupTable(64, 2)
	// commit claims a seq (which must be fresh) and settles it committed.
	commit := func(session uint64, stream string, seq uint64) {
		t.Helper()
		state, token := d.claim(session, stream, seq)
		if state != claimOwned {
			t.Fatalf("claim(%d,%q,%d) = %d, want owned", session, stream, seq, state)
		}
		d.settle(session, stream, seq, token, true)
	}
	// fate probes a seq's state without leaving an in-flight marker behind.
	fate := func(session uint64, stream string, seq uint64) claimState {
		t.Helper()
		state, token := d.claim(session, stream, seq)
		if state == claimOwned {
			d.settle(session, stream, seq, token, false)
		}
		return state
	}

	if fate(1, "s", 5) != claimOwned {
		t.Fatal("fresh seq not claimable")
	}
	commit(1, "s", 5)
	if fate(1, "s", 5) != claimApplied {
		t.Fatal("committed seq reported fresh")
	}
	// A gap (seq 6 skipped, e.g. a shed) stays fresh after newer commits.
	commit(1, "s", 7)
	if fate(1, "s", 6) != claimOwned {
		t.Fatal("gap seq reported applied")
	}
	if fate(1, "s", 5) != claimApplied || fate(1, "s", 7) != claimApplied {
		t.Fatal("committed seqs lost after advance")
	}
	// A released seq (shed, ingest error) stays fresh for the retry.
	state, token := d.claim(1, "s", 8)
	if state != claimOwned {
		t.Fatalf("claim(8) = %d, want owned", state)
	}
	d.settle(1, "s", 8, token, false)
	if fate(1, "s", 8) != claimOwned {
		t.Fatal("released seq not claimable again")
	}
	// Aging past the window: a never-committed seq far below maxSeq is
	// undecidable — it must be rejected, never acked as applied (a false OK
	// would report silent data loss as success).
	commit(1, "s", 500)
	if fate(1, "s", 6) != claimAged {
		t.Fatal("aged-out seq must be rejected, not acked")
	}
	// Other streams and sessions are independent.
	if fate(1, "other", 5) != claimOwned || fate(2, "s", 5) != claimOwned {
		t.Fatal("dedup leaked across stream or session")
	}
	// Session eviction: capacity 2, a new session evicts the oldest.
	commit(2, "s", 1)
	commit(3, "s", 1)
	if fate(1, "s", 5) != claimOwned {
		t.Fatal("evicted session's state survived")
	}
	if fate(3, "s", 1) != claimApplied {
		t.Fatal("newest session evicted instead of oldest")
	}
	if d.hits.Load() == 0 {
		t.Fatal("dedup hits not counted")
	}
}

// TestDedupClaimInFlight pins the reconnect-resend race the claim API
// exists for: a duplicate of a seq that is still being ingested (the old
// connection's handler blocked inside the monitor's enqueue) must wait for
// the owner's outcome — ack if it committed, take ownership if it was
// released — never ingest concurrently.
func TestDedupClaimInFlight(t *testing.T) {
	d := newDedupTable(64, 4)
	dup := func(dt *dedupTable, session uint64, stream string, seq uint64) chan claimState {
		got := make(chan claimState, 1)
		go func() {
			state, _ := dt.claim(session, stream, seq)
			got <- state
		}()
		return got
	}

	// Owner commits: the waiting duplicate resolves to applied.
	state, token := d.claim(1, "s", 9)
	if state != claimOwned {
		t.Fatalf("first claim = %d, want owned", state)
	}
	got := dup(d, 1, "s", 9)
	select {
	case st := <-got:
		t.Fatalf("duplicate resolved to %d while its seq was in flight", st)
	case <-time.After(50 * time.Millisecond):
	}
	d.settle(1, "s", 9, token, true)
	select {
	case st := <-got:
		if st != claimApplied {
			t.Fatalf("duplicate after commit = %d, want applied", st)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("duplicate still blocked after the owner committed")
	}

	// Owner releases (shed / error): the duplicate inherits ownership.
	state, token = d.claim(1, "s", 10)
	if state != claimOwned {
		t.Fatalf("claim(10) = %d, want owned", state)
	}
	got = dup(d, 1, "s", 10)
	d.settle(1, "s", 10, token, false)
	select {
	case st := <-got:
		if st != claimOwned {
			t.Fatalf("duplicate after release = %d, want owned", st)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("duplicate still blocked after the owner released")
	}

	// Eviction wakes waiters instead of stranding them: session 1 holds an
	// in-flight seq with a duplicate parked on it; sessions 2 and 3 push the
	// cap-2 table over, evicting 1 and releasing its marker.
	d2 := newDedupTable(64, 2)
	if state, _ := d2.claim(1, "s", 1); state != claimOwned {
		t.Fatalf("claim on fresh table = %d, want owned", state)
	}
	got = dup(d2, 1, "s", 1)
	select {
	case st := <-got:
		t.Fatalf("duplicate resolved to %d before eviction", st)
	case <-time.After(20 * time.Millisecond):
	}
	d2.claim(2, "s", 1)
	d2.claim(3, "s", 1) // evicts session 1, waking its waiter
	select {
	case <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("eviction stranded an in-flight waiter")
	}
}
