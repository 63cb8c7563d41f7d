package server

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"rbmim/internal/codec"
	"rbmim/internal/core"
	"rbmim/internal/detectors"
	"rbmim/internal/monitor"
	"rbmim/internal/synth"
)

// nullDetector does nothing — it isolates the network + monitor path.
type nullDetector struct{}

func (nullDetector) Update(detectors.Observation) detectors.State { return detectors.None }
func (nullDetector) Reset()                                       {}
func (nullDetector) Name() string                                 { return "null" }

// wireDriftEveryN drifts deterministically every n observations.
type wireDriftEveryN struct {
	n, updates, class int
}

func (d *wireDriftEveryN) Update(detectors.Observation) detectors.State {
	d.updates++
	if d.updates%d.n == 0 {
		return detectors.Drift
	}
	return detectors.None
}
func (d *wireDriftEveryN) Reset()              {}
func (d *wireDriftEveryN) Name() string        { return "wireDriftEveryN" }
func (d *wireDriftEveryN) DriftClasses() []int { return []int{d.class} }

// newTestServer starts a monitor + server pair on loopback and returns a
// connected client. Cleanup tears all three down.
func newTestServer(t testing.TB, mcfg monitor.Config, scfg Config) (*Server, *monitor.Monitor, *Client) {
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
	c, err := Dial(ClientConfig{Addrs: []string{srv.Addr()}})
	if err != nil {
		srv.Close()
		m.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close()
		srv.Close()
		m.Close()
	})
	return srv, m, c
}

// subscribeMonitor registers an in-process subscription on m. Tests size
// buffer above the event count they can possibly produce, so drainEvents
// sees every event.
func subscribeMonitor(t testing.TB, m *monitor.Monitor, buffer int) *monitor.Subscription {
	t.Helper()
	sub, err := m.Subscribe(buffer)
	if err != nil {
		t.Fatal(err)
	}
	return sub
}

// drainEvents returns every event already queued on sub without blocking.
// After a FlushCheckpoints barrier (or Monitor.Close) every event published
// before it is in the channel; drainEvents fails the test if sub dropped
// any.
func drainEvents(t testing.TB, sub *monitor.Subscription) []monitor.Event {
	t.Helper()
	var out []monitor.Event
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

// seqsByStream groups the events' sequence numbers per stream, in delivery
// order (each stream publishes from its one shard goroutine, so per-stream
// order is exact).
func seqsByStream(evs []monitor.Event) map[string][]uint64 {
	out := make(map[string][]uint64)
	for _, ev := range evs {
		out[ev.StreamID] = append(out[ev.StreamID], ev.Seq)
	}
	return out
}

func testObs(features, n int) []detectors.Observation {
	gen, err := synth.NewRBF(synth.Config{Features: features, Classes: 3, Seed: 11}, 3, 0.08)
	if err != nil {
		panic(err)
	}
	obs := make([]detectors.Observation, n)
	for i := range obs {
		in := gen.Next()
		obs[i] = detectors.Observation{X: in.X, TrueClass: in.Y, Predicted: in.Y}
	}
	return obs
}

// TestServerRoundTrip drives every request kind end to end and checks the
// monitor's counters through the wire snapshot.
func TestServerRoundTrip(t *testing.T) {
	store := monitor.NewMemStore()
	_, _, c := newTestServer(t, monitor.Config{
		Detector:   core.Config{Features: 8, Classes: 3, Seed: 7},
		Shards:     2,
		Checkpoint: monitor.CheckpointConfig{Store: store, Interval: time.Hour},
	}, Config{})

	obs := testObs(8, 64)
	if err := c.Ingest("alpha", obs[0]); err != nil {
		t.Fatal(err)
	}
	if err := c.IngestBatch("alpha", obs[1:33]); err != nil {
		t.Fatal(err)
	}
	if err := c.IngestBatch("beta", obs[33:]); err != nil {
		t.Fatal(err)
	}
	if err := c.IngestBatch("beta", obs[:8]); err != nil {
		t.Fatal(err)
	}
	if err := c.FlushCheckpoints(); err != nil {
		t.Fatal(err)
	}
	sn, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if sn.Ingested != 72 || sn.Streams != 2 {
		t.Fatalf("snapshot after ingest: Ingested=%d Streams=%d, want 72/2", sn.Ingested, sn.Streams)
	}
	if store.Len() != 2 {
		t.Fatalf("store holds %d checkpoints after flush, want 2", store.Len())
	}
	// Evict is async; the flush barrier makes it visible.
	if err := c.Evict("alpha"); err != nil {
		t.Fatal(err)
	}
	if err := c.FlushCheckpoints(); err != nil {
		t.Fatal(err)
	}
	sn, err = c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if sn.Streams != 1 {
		t.Fatalf("streams after evict = %d, want 1", sn.Streams)
	}
	// Observations with per-class scores survive the wire.
	scored := obs[0]
	scored.Scores = []float64{0.2, 0.5, 0.3}
	if err := c.Ingest("gamma", scored); err != nil {
		t.Fatal(err)
	}
}

// TestServerSubscribe checks the event path: a subscribed connection
// receives every drift with stream, sequence, and attributed classes.
func TestServerSubscribe(t *testing.T) {
	_, _, c := newTestServer(t, monitor.Config{
		Shards: 2,
		NewDetector: func(string) (detectors.Detector, error) {
			return &wireDriftEveryN{n: 10, class: 2}, nil
		},
	}, Config{})
	sub, err := c.Subscribe(64)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	obs := testObs(4, 25)
	if err := c.IngestBatch("drifty", obs); err != nil {
		t.Fatal(err)
	}
	for _, wantSeq := range []uint64{10, 20} {
		select {
		case ev := <-sub.Events():
			if ev.StreamID != "drifty" || ev.Seq != wantSeq {
				t.Fatalf("event = %q/%d, want drifty/%d", ev.StreamID, ev.Seq, wantSeq)
			}
			if len(ev.Classes) != 1 || ev.Classes[0] != 2 {
				t.Fatalf("event classes = %v, want [2]", ev.Classes)
			}
			if ev.At.IsZero() || time.Since(ev.At) > time.Minute {
				t.Fatalf("event timestamp %v did not survive the wire", ev.At)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out waiting for event seq %d", wantSeq)
		}
	}
	if err := sub.Err(); err != nil {
		t.Fatal(err)
	}
}

// blockingDetector parks inside Update until released, letting the test
// wedge a shard deterministically.
type blockingDetector struct {
	entered chan struct{}
	release chan struct{}
	blocked bool
}

func (d *blockingDetector) Update(detectors.Observation) detectors.State {
	if !d.blocked {
		d.blocked = true
		d.entered <- struct{}{}
		<-d.release
	}
	return detectors.None
}
func (d *blockingDetector) Reset()       {}
func (d *blockingDetector) Name() string { return "blocking" }

// TestServerBusyReply wedges the single shard and fills its queue to
// capacity (QueueSize 1 rounds up to the 2-slot ring minimum). With
// ShedHighWater 1 the server sheds only a full queue, so the next ingest
// must come back as a Busy reply — ErrBusy at the client, which retries
// nothing under the zero policy — counted in Shedded, never queued and
// never dropped.
func TestServerBusyReply(t *testing.T) {
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	_, _, c := newTestServer(t, monitor.Config{
		Shards:    1,
		QueueSize: 1,
		NewDetector: func(string) (detectors.Detector, error) {
			return &blockingDetector{entered: entered, release: release}, nil
		},
	}, Config{ShedHighWater: 1})
	var relOnce sync.Once
	rel := func() { relOnce.Do(func() { close(release) }) }
	t.Cleanup(rel) // un-wedge even on a failed assertion, or teardown hangs
	obs := testObs(4, 4)
	// First observation occupies the shard inside Update; it stays counted
	// as queued until Update returns.
	if err := c.Ingest("s", obs[0]); err != nil {
		t.Fatal(err)
	}
	<-entered
	// The second brings the queue to its capacity of two.
	if err := c.Ingest("s", obs[1]); err != nil {
		t.Fatal(err)
	}
	// A block now bounces with Busy.
	if err := c.IngestBatch("s", obs[2:]); !errors.Is(err, ErrBusy) {
		t.Fatalf("IngestBatch on a full queue = %v, want ErrBusy", err)
	}
	rel()
	if err := c.FlushCheckpoints(); err != nil {
		t.Fatal(err)
	}
	sn, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if sn.Ingested != 2 || sn.Shedded != 1 || sn.Dropped != 0 {
		t.Fatalf("Ingested=%d Shedded=%d Dropped=%d, want 2/1/0", sn.Ingested, sn.Shedded, sn.Dropped)
	}
}

// TestServerBadRequest: a well-framed but undecodable payload draws an
// Error reply and leaves the connection usable; a corrupt frame ends it.
func TestServerBadRequest(t *testing.T) {
	srv, _, c := newTestServer(t, monitor.Config{
		Detector: core.Config{Features: 8, Classes: 3, Seed: 7},
		Shards:   1,
	}, Config{})

	// Hand-roll a truncated ingest payload (id + stream ID, no session, seq
	// or observations).
	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	b := codec.NewBuffer(nil)
	b.U64(1)
	b.Str("s")
	if _, err := nc.Write(codec.AppendFrame(nil, codec.KindWireIngestBatch, b.Bytes())); err != nil {
		t.Fatal(err)
	}
	sc := codec.NewFrameScanner(nc)
	kind, body, err := sc.Next()
	if err != nil {
		t.Fatal(err)
	}
	if kind != codec.KindWireError {
		t.Fatalf("reply kind %d, want Error", kind)
	}
	rd := codec.NewReader(body)
	if id := rd.U64(); id != 1 {
		t.Fatalf("error reply echoes id %d, want 1", id)
	}
	if msg := rd.Blob(); len(msg) == 0 {
		t.Fatal("error reply carries no message")
	}
	// The connection survives a payload error: a valid request still works.
	// Session 0 opts out of exactly-once dedup, so seq can be anything.
	obs := testObs(8, 1)
	b.Reset()
	b.U64(2)
	b.U64(0)
	b.U64(0)
	b.Str("s")
	b.U32(1)
	encodeObs(b, obs[0])
	if _, err := nc.Write(codec.AppendFrame(nil, codec.KindWireIngestBatch, b.Bytes())); err != nil {
		t.Fatal(err)
	}
	kind, body, err = sc.Next()
	if err != nil {
		t.Fatal(err)
	}
	rd.Reset(body)
	if rd.U64(); kind != codec.KindWireOK {
		t.Fatalf("reply kind %d after recovery, want OK", kind)
	}

	// A frame with a corrupted CRC ends the connection.
	frame := codec.AppendFrame(nil, codec.KindWireIngestBatch, b.Bytes())
	frame[len(frame)-1] ^= 0xFF
	if _, err := nc.Write(frame); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sc.Next(); err == nil {
		t.Fatal("server kept talking after a corrupt frame")
	}

	// An unknown request kind draws an Error and a hangup on a fresh conn.
	nc2, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc2.Close()
	b.Reset()
	b.U64(9)
	if _, err := nc2.Write(codec.AppendFrame(nil, 99, b.Bytes())); err != nil {
		t.Fatal(err)
	}
	sc2 := codec.NewFrameScanner(nc2)
	if kind, _, err := sc2.Next(); err != nil || kind != codec.KindWireError {
		t.Fatalf("unknown kind: reply (%d, %v), want Error", kind, err)
	}
	if _, _, err := sc2.Next(); err != io.EOF {
		t.Fatalf("connection after unknown kind: %v, want EOF", err)
	}

	// The original client was unaffected throughout.
	if err := c.Ingest("t", obs[0]); err != nil {
		t.Fatal(err)
	}
}

// TestServerRejectsHostileCounts: a count from the wire that would drive an
// allocation draws an Error reply, on 32-bit builds too, and the server
// keeps serving. An IngestBatch count of 2^31 is negative as a 32-bit int; a
// Subscribe queue of 2^28 or 2^32-1 events would be a multi-gigabyte
// channel.
func TestServerRejectsHostileCounts(t *testing.T) {
	srv, _, c := newTestServer(t, monitor.Config{
		Detector: core.Config{Features: 8, Classes: 3, Seed: 7},
		Shards:   1,
	}, Config{})
	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	sc := codec.NewFrameScanner(nc)
	obs := testObs(8, 1)
	b := codec.NewBuffer(nil)
	send := func(kind uint8, id uint64, wantKind uint8) {
		t.Helper()
		if _, err := nc.Write(codec.AppendFrame(nil, kind, b.Bytes())); err != nil {
			t.Fatal(err)
		}
		got, body, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		rd := codec.NewReader(body)
		if gotID := rd.U64(); got != wantKind || gotID != id {
			t.Fatalf("request %d: reply kind %d for id %d, want kind %d", id, got, gotID, wantKind)
		}
	}
	// batch builds an IngestBatch payload (session 0: no dedup) that
	// declares count observations and carries one.
	batch := func(id uint64, count uint32) {
		b.Reset()
		b.U64(id)
		b.U64(0)
		b.U64(0)
		b.Str("s")
		b.U32(count)
		encodeObs(b, obs[0])
	}
	for _, count := range []uint32{0x80000000, 0xFFFFFFFF} {
		batch(uint64(count), count)
		send(codec.KindWireIngestBatch, uint64(count), codec.KindWireError)
	}
	for _, buffer := range []uint32{maxSubscribeBuffer + 1, 1 << 28, 0xFFFFFFFF} {
		b.Reset()
		b.U64(uint64(buffer))
		b.U32(buffer)
		send(codec.KindWireSubscribe, uint64(buffer), codec.KindWireError)
	}
	if sub, err := c.Subscribe(1 << 28); err == nil || !strings.Contains(err.Error(), "bad subscribe payload") {
		if sub != nil {
			sub.Close()
		}
		t.Fatalf("Client.Subscribe(1<<28): %v, want the server's refusal", err)
	}
	// The same connection, and the client's, still ingest.
	batch(1, 1)
	send(codec.KindWireIngestBatch, 1, codec.KindWireOK)
	if err := c.Ingest("t", obs[0]); err != nil {
		t.Fatal(err)
	}
	// The cap itself is accepted.
	sub, err := c.Subscribe(maxSubscribeBuffer)
	if err != nil {
		t.Fatal(err)
	}
	sub.Close()
}

// TestServerMaxFrame: a frame declaring a payload over the configured bound
// is rejected without allocation and the connection is closed.
func TestServerMaxFrame(t *testing.T) {
	srv, _, _ := newTestServer(t, monitor.Config{
		Detector: core.Config{Features: 8, Classes: 3, Seed: 7},
		Shards:   1,
	}, Config{MaxFrame: 1024})
	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := nc.Write(codec.AppendFrame(nil, codec.KindWireIngestBatch, make([]byte, 4096))); err != nil {
		t.Fatal(err)
	}
	sc := codec.NewFrameScanner(nc)
	// The server hangs up without reading the oversized body, so the close
	// may surface as EOF or a reset — either way, no reply and no connection.
	if _, _, err := sc.Next(); err == nil {
		t.Fatal("server answered an over-limit frame")
	}
}

// TestServerGracefulShutdown: Close lets in-flight work finish, flushes a
// subscriber's queued events, and ends every connection; the monitor stays
// usable until its own Close.
func TestServerGracefulShutdown(t *testing.T) {
	m, err := monitor.New(monitor.Config{
		Shards: 1,
		NewDetector: func(string) (detectors.Detector, error) {
			return &wireDriftEveryN{n: 1, class: 0}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	srv, err := New(Config{Monitor: m})
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(ClientConfig{Addrs: []string{srv.Addr()}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sub, err := c.Subscribe(256)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	const obsN = 50
	if err := c.IngestBatch("s", testObs(4, obsN)); err != nil {
		t.Fatal(err)
	}
	if err := c.FlushCheckpoints(); err != nil { // all 50 events published
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	srv.Close() // idempotent
	// Every event queued before shutdown must still be delivered, then the
	// stream ends cleanly.
	got := 0
	for range sub.Events() {
		got++
	}
	if got != obsN {
		t.Fatalf("subscriber got %d events across shutdown, want %d", got, obsN)
	}
	if err := sub.Err(); err != nil {
		t.Fatalf("subscription ended with error: %v", err)
	}
	// New connections are refused; the monitor itself still works.
	if _, err := Dial(ClientConfig{Addrs: []string{srv.Addr()}}); err == nil {
		t.Fatal("Dial succeeded after server Close")
	}
	if err := m.Ingest("s", testObs(4, 1)[0]); err != nil {
		t.Fatalf("monitor must outlive the server: %v", err)
	}
}

// TestServerHTTPSidecar checks /healthz and the Prometheus /metrics payload.
func TestServerHTTPSidecar(t *testing.T) {
	srv, _, c := newTestServer(t, monitor.Config{
		Detector: core.Config{Features: 8, Classes: 3, Seed: 7},
		Shards:   2,
	}, Config{HTTPAddr: "127.0.0.1:0"})
	if err := c.IngestBatch("s", testObs(8, 32)); err != nil {
		t.Fatal(err)
	}
	if err := c.FlushCheckpoints(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + srv.HTTPAddr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || strings.TrimSpace(string(body)) != "ok" {
		t.Fatalf("/healthz = %d %q", resp.StatusCode, body)
	}
	resp, err = http.Get("http://" + srv.HTTPAddr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	for _, want := range []string{"rbmim_ingested_total 32", "rbmim_streams 1", "# TYPE rbmim_drifts_total counter"} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
}

// TestClientIngestAllocs pins the acceptance criterion: the steady-state
// client batch-ingest path performs zero allocations per call, measured
// process-wide against a live server (whose own hot path must therefore be
// allocation-free too).
func TestClientIngestAllocs(t *testing.T) {
	if raceEnabled {
		// The race detector inflates allocation counts (and sync.Pool
		// deliberately drops items under race), so the 0-alloc bar is only
		// meaningful in a plain build.
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	_, _, c := newTestServer(t, monitor.Config{
		Shards:    1,
		QueueSize: 4096,
		NewDetector: func(string) (detectors.Detector, error) {
			return nullDetector{}, nil
		},
	}, Config{})
	obs := testObs(20, 256)
	// Warm every pool, map, and scratch buffer on both sides.
	for i := 0; i < 50; i++ {
		if err := c.IngestBatch("stream-1", obs); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := c.IngestBatch("stream-1", obs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0.5 {
		t.Fatalf("steady-state IngestBatch allocates %.2f allocs/op (process-wide), want 0", allocs)
	}
	single := testing.AllocsPerRun(100, func() {
		if err := c.Ingest("stream-1", obs[0]); err != nil {
			t.Fatal(err)
		}
	})
	if single > 0.5 {
		t.Fatalf("steady-state Ingest allocates %.2f allocs/op (process-wide), want 0", single)
	}
}

// TestServerConcurrentSoak is the -race soak: parallel batch producers over
// many streams with subscribers churning underneath, then a full teardown.
func TestServerConcurrentSoak(t *testing.T) {
	srv, m, c := newTestServer(t, monitor.Config{
		Shards:    4,
		QueueSize: 64,
		NewDetector: func(string) (detectors.Detector, error) {
			return &wireDriftEveryN{n: 7, class: 1}, nil
		},
	}, Config{})
	obs := testObs(8, 256)
	const (
		producers = 6
		rounds    = 40
		churners  = 3
	)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			pc, err := Dial(ClientConfig{Addrs: []string{srv.Addr()}})
			if err != nil {
				t.Error(err)
				return
			}
			defer pc.Close()
			for r := 0; r < rounds; r++ {
				id := fmt.Sprintf("stream-%d-%d", p, r%8)
				if r%5 == 4 {
					// Every fifth round pipelines the block as single
					// observations, each a one-observation frame.
					pend := make([]Pending, 0, 64)
					for i := range obs[:64] {
						pd, err := pc.IngestAsync(id, obs[i])
						if err != nil {
							t.Error(err)
							return
						}
						pend = append(pend, pd)
					}
					for _, pd := range pend {
						if err := pd.Wait(); err != nil {
							t.Error(err)
							return
						}
					}
					continue
				}
				if err := pc.IngestBatch(id, obs[:64]); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	for s := 0; s < churners; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 10; r++ {
				sub, err := c.Subscribe(32)
				if err != nil {
					t.Error(err)
					return
				}
				// Read a few events (or give up quickly) and drop the
				// subscription mid-stream.
				for i := 0; i < 3; i++ {
					select {
					case <-sub.Events():
					case <-time.After(10 * time.Millisecond):
					}
				}
				sub.Close()
			}
		}()
	}
	wg.Wait()
	if err := c.FlushCheckpoints(); err != nil {
		t.Fatal(err)
	}
	sn, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if sn.Ingested != uint64(producers*rounds*64) || sn.Dropped != 0 {
		t.Fatalf("Ingested = %d, Dropped = %d, want %d/0", sn.Ingested, sn.Dropped, producers*rounds*64)
	}
	srv.Close()
	m.Close()
}

// TestServerCloseWithStuckSubscriber pins the shutdown liveness fix: a
// subscriber that stops reading fills the socket buffers and parks the
// server's event pump inside a write; Close must still terminate, via the
// DrainTimeout force phase.
func TestServerCloseWithStuckSubscriber(t *testing.T) {
	srv, m, c := newTestServer(t, monitor.Config{
		Shards:    1,
		QueueSize: 4096,
		NewDetector: func(string) (detectors.Detector, error) {
			return &wireDriftEveryN{n: 1, class: 0}, nil
		},
	}, Config{DrainTimeout: 200 * time.Millisecond})

	// A raw subscriber that never reads past the OK: no client-side loop
	// draining the socket, so the server's pump wedges once the kernel
	// buffers fill.
	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	b := codec.NewBuffer(nil)
	b.U64(1)
	b.U32(64)
	if _, err := nc.Write(codec.AppendFrame(nil, codec.KindWireSubscribe, b.Bytes())); err != nil {
		t.Fatal(err)
	}
	if kind, _, err := codec.NewFrameScanner(nc).Next(); err != nil || kind != codec.KindWireOK {
		t.Fatalf("subscribe reply (%d, %v), want OK", kind, err)
	}
	// Every observation drifts: tens of thousands of event frames swamp the
	// unread socket. IngestBatch keeps the producer itself unblocked.
	obs := testObs(4, 1000)
	for i := 0; i < 40; i++ {
		if err := c.IngestBatch("s", obs); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Close took %v with a stuck subscriber; the drain timeout did not engage", elapsed)
	}
	m.Close()
}

// TestClientSubscriptionCloseUnblocks pins the client-side leak fix:
// closing a subscription whose channel is full (nobody reading) must let
// the decode goroutine exit, observable as the channel closing after the
// buffered events drain.
func TestClientSubscriptionCloseUnblocks(t *testing.T) {
	_, _, c := newTestServer(t, monitor.Config{
		Shards: 1,
		NewDetector: func(string) (detectors.Detector, error) {
			return &wireDriftEveryN{n: 1, class: 0}, nil
		},
	}, Config{})
	sub, err := c.Subscribe(8) // tiny local buffer, immediately saturated
	if err != nil {
		t.Fatal(err)
	}
	if err := c.IngestBatch("s", testObs(4, 200)); err != nil {
		t.Fatal(err)
	}
	if err := c.FlushCheckpoints(); err != nil {
		t.Fatal(err)
	}
	// Wait until the local queue is provably full (the loop goroutine is
	// then parked on the channel send).
	deadline := time.Now().Add(5 * time.Second)
	for len(sub.Events()) < 8 {
		if time.Now().After(deadline) {
			t.Fatal("subscription queue never filled")
		}
		time.Sleep(time.Millisecond)
	}
	sub.Close()
	// The loop must exit, closing the channel behind the buffered events.
	drained := 0
	timeout := time.After(5 * time.Second)
	for {
		select {
		case _, ok := <-sub.Events():
			if !ok {
				if drained < 8 {
					t.Fatalf("channel closed after only %d events", drained)
				}
				return
			}
			drained++
		case <-timeout:
			t.Fatalf("channel never closed after Close (drained %d); decode goroutine leaked", drained)
		}
	}
}

// TestServerConcurrentDuplicateExactlyOnce pins the reconnect-resend race:
// a request blocked inside the monitor's enqueue on one connection and its
// duplicate (same session/stream/seq) arriving on another must commit
// exactly once — the duplicate waits for the first's outcome instead of
// passing the committed-check while the first has not committed yet.
func TestServerConcurrentDuplicateExactlyOnce(t *testing.T) {
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	srv, _, c := newTestServer(t, monitor.Config{
		Shards:    1,
		QueueSize: 1, // rounds up to the 2-slot ring minimum
		NewDetector: func(string) (detectors.Detector, error) {
			return &blockingDetector{entered: entered, release: release}, nil
		},
	}, Config{})
	obs := testObs(4, 4)
	// Wedge the shard: one observation inside Update, two filling the ring.
	if err := c.Ingest("s", obs[0]); err != nil {
		t.Fatal(err)
	}
	<-entered
	if err := c.Ingest("s", obs[1]); err != nil {
		t.Fatal(err)
	}
	if err := c.Ingest("s", obs[2]); err != nil {
		t.Fatal(err)
	}
	// Two raw connections send the same (session, stream, seq). The first
	// handler blocks inside Monitor.IngestBatch (full ring) before it can
	// commit; the duplicate must not ingest concurrently.
	ingestFrame := func() []byte {
		b := codec.NewBuffer(nil)
		b.U64(1)
		b.U64(7) // session
		b.U64(1) // seq
		b.Str("s")
		b.U32(1)
		encodeObs(b, obs[3])
		return codec.AppendFrame(nil, codec.KindWireIngestBatch, b.Bytes())
	}
	var conns [2]net.Conn
	for i := range conns {
		nc, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		conns[i] = nc
		if _, err := nc.Write(ingestFrame()); err != nil {
			t.Fatal(err)
		}
		// Let the first handler park inside the enqueue before the duplicate
		// arrives, maximizing the overlap the claim must serialize.
		time.Sleep(50 * time.Millisecond)
	}
	close(release)
	for i, nc := range conns {
		kind, _, err := codec.NewFrameScanner(nc).Next()
		if err != nil {
			t.Fatalf("conn %d reply: %v", i, err)
		}
		if kind != codec.KindWireOK {
			t.Fatalf("conn %d reply kind %d, want OK", i, kind)
		}
	}
	if err := c.FlushCheckpoints(); err != nil {
		t.Fatal(err)
	}
	sn, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if sn.Ingested != 4 {
		t.Fatalf("Ingested = %d after a concurrent duplicate, want exactly 4", sn.Ingested)
	}
	if sn.DedupHits != 1 {
		t.Fatalf("DedupHits = %d, want 1 (the duplicate acked without re-ingesting)", sn.DedupHits)
	}
}

// TestServerSeqAgedRejected: a seq that fell out of the dedup window without
// ever committing is undecidable and must draw an Error reply — acking OK
// would report silent data loss (a Busy-shed retry deferred past the window)
// as success.
func TestServerSeqAgedRejected(t *testing.T) {
	srv, _, _ := newTestServer(t, monitor.Config{
		Shards: 1,
		NewDetector: func(string) (detectors.Detector, error) {
			return nullDetector{}, nil
		},
	}, Config{}) // default DedupWindow 1024
	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	obs := testObs(4, 1)
	send := func(id, seq uint64) {
		t.Helper()
		b := codec.NewBuffer(nil)
		b.U64(id)
		b.U64(9) // session
		b.U64(seq)
		b.Str("s")
		b.U32(1)
		encodeObs(b, obs[0])
		if _, err := nc.Write(codec.AppendFrame(nil, codec.KindWireIngestBatch, b.Bytes())); err != nil {
			t.Fatal(err)
		}
	}
	sc := codec.NewFrameScanner(nc)
	send(1, 2000)
	if kind, _, err := sc.Next(); err != nil || kind != codec.KindWireOK {
		t.Fatalf("seq 2000 reply (%d, %v), want OK", kind, err)
	}
	// seq 1 is now 1999 behind maxSeq — beyond the 1024 window, never
	// committed: rejected, and nothing ingested for it.
	send(2, 1)
	kind, body, err := sc.Next()
	if err != nil {
		t.Fatal(err)
	}
	if kind != codec.KindWireError {
		t.Fatalf("aged seq reply kind %d, want Error", kind)
	}
	rd := codec.NewReader(body)
	rd.U64()
	if msg := string(rd.Blob()); !strings.Contains(msg, "aged") {
		t.Fatalf("aged seq error %q does not explain the aging", msg)
	}
}

// TestServerWireRevisionSkew: request kinds the server no longer speaks
// must fail fast with an "unknown request kind" Error and a hangup — never
// be misparsed. Kind 16 is the revision-1 Ingest (no session or seq, so its
// first 16 payload bytes would be consumed as session/seq under the
// current layout); kinds 64 and 66 are the retired revision-3 Ingest and
// non-blocking batch kind, each sent with the payload it used to carry.
func TestServerWireRevisionSkew(t *testing.T) {
	srv, _, _ := newTestServer(t, monitor.Config{
		Detector: core.Config{Features: 8, Classes: 3, Seed: 7},
		Shards:   1,
	}, Config{})
	o := testObs(8, 1)[0]
	const (
		kindWireIngestRev1   = 16
		kindWireIngestRev3   = 64
		kindWireTryBatchRev3 = 66
	)
	cases := []struct {
		kind    uint8
		payload func(b *codec.Buffer)
	}{
		{kindWireIngestRev1, func(b *codec.Buffer) {
			b.U64(1)
			b.Str("s")
			encodeObs(b, o)
		}},
		{kindWireIngestRev3, func(b *codec.Buffer) {
			b.U64(1)
			b.U64(0) // session
			b.U64(0) // seq
			b.Str("s")
			encodeObs(b, o)
		}},
		{kindWireTryBatchRev3, func(b *codec.Buffer) {
			b.U64(1)
			b.U64(0) // session
			b.U64(0) // seq
			b.Str("s")
			b.U32(1)
			encodeObs(b, o)
		}},
	}
	for _, tc := range cases {
		nc, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		b := codec.NewBuffer(nil)
		tc.payload(b)
		if _, err := nc.Write(codec.AppendFrame(nil, tc.kind, b.Bytes())); err != nil {
			t.Fatal(err)
		}
		sc := codec.NewFrameScanner(nc)
		kind, body, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if kind != codec.KindWireError {
			t.Fatalf("kind %d frame reply kind %d, want Error", tc.kind, kind)
		}
		rd := codec.NewReader(body)
		rd.U64()
		if msg := string(rd.Blob()); !strings.Contains(msg, "unknown request kind") {
			t.Fatalf("kind %d error %q does not name the unknown kind", tc.kind, msg)
		}
		if _, _, err := sc.Next(); err != io.EOF {
			t.Fatalf("connection after kind %d: %v, want EOF", tc.kind, err)
		}
	}
}
