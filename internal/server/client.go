package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"rbmim/internal/codec"
	"rbmim/internal/core"
	"rbmim/internal/detectors"
	"rbmim/internal/monitor"
	"rbmim/internal/telemetry"
)

// ErrClientClosed is returned by Client methods after Close. The error is
// sticky: once Close (or a transport failure) kills the client, every later
// call — including calls that were racing the Close — fails with the same
// error instead of racing the connection teardown.
var ErrClientClosed = errors.New("server: client closed")

// ClientConfig parameterizes Dial. Addrs is required; every other zero
// value selects a default.
type ClientConfig struct {
	// Addrs lists the driftservers: one address for a single server, several
	// for a fleet. Order does not matter: routing depends only on the set.
	Addrs []string
	// Conns is the connection count per member; default 1.
	Conns int
	// Window is the pipelined in-flight window per connection; default
	// DefaultWindow. Window 1 is the serial stop-and-wait client.
	Window int
	// Retry is the per-connection retry policy (reconnect, resend, Busy
	// backoff, deadlines); the zero value disables every mechanism, so a
	// dead connection permanently fails.
	Retry RetryPolicy
}

// Client speaks the driftserver wire protocol to one server or a fleet of
// them. A request finds its connection in three steps:
//
//  1. a consistent-hash ring maps the stream to one member (see
//     cluster.go), unless a migration pinned the stream elsewhere;
//  2. the member's connection set picks the stream's home connection by
//     monitor.ShardFor, probing forward off permanently dead ones;
//  3. that connection's pipelined window carries the request
//     (pipeline.go).
//
// All of a stream's requests therefore travel one connection, and the
// server handles one connection's requests in order, so a stream's
// observations reach its detector in send order — which RBM-IM's
// order-dependent training and drift tests require. Adding a connection or
// a member moves only ~1/n of the streams.
//
// One session id and one per-stream sequence table serve every member and
// connection, so the whole Client is one exactly-once producer: a resent
// (session, stream, seq) is acked without being applied twice, and a stream
// that migrates simply continues its seqs on the new member.
//
// The failover rule, for every path: a request is resent on the stream's
// re-homed connection, with its original seq, only while its caller is
// still inside the call. That covers IngestBatch (so Ingest) and the export
// and install steps of Migrate. A Pending whose connection died permanently
// returns that connection's error: by the time Wait runs the caller may
// already have sent newer requests of the same stream on the re-homed
// connection, and the server's exact-set dedup window would accept the
// older seq after them — applying the stream out of order.
//
// All methods are safe for concurrent use. After Close every request
// returns ErrClientClosed.
type Client struct {
	conns   int
	window  int
	policy  RetryPolicy
	dial    dialer
	session uint64    // exactly-once identity (see dedup.go)
	seqs    *seqTable // per-stream seq assignment

	mu        sync.RWMutex
	ring      *hashRing
	members   map[string]*member
	overrides map[string]string // stream -> member addr, where it disagrees with the ring
	closed    bool

	// gates stripe the stream space: requests hold their stream's stripe
	// read-locked for the duration of the call, a migration holds the write
	// lock, so a stream is never ingested mid-transfer. 256 stripes keep
	// writer exclusion cheap (a migration blocks ~1/256th of streams).
	gates [gateStripes]sync.RWMutex

	rebalanceMu sync.Mutex // serializes Rebalance; requests and Migrate stay concurrent
	migrations  atomic.Uint64
}

// Dial connects to every address in cfg.Addrs and returns the routing
// client. It fails fast: any unreachable member fails the whole dial (a
// fleet with a hole would silently concentrate load). The initial dials are
// not retried.
func Dial(cfg ClientConfig) (*Client, error) { return dialClient(cfg, dialTCP) }

func dialClient(cfg ClientConfig, dial dialer) (*Client, error) {
	if len(cfg.Addrs) == 0 {
		return nil, errors.New("server: Dial needs at least one address")
	}
	if cfg.Conns < 1 {
		cfg.Conns = 1
	}
	if cfg.Window < 1 {
		cfg.Window = DefaultWindow
	}
	addrs := dedupAddrs(cfg.Addrs)
	c := &Client{
		conns:     cfg.Conns,
		window:    cfg.Window,
		policy:    cfg.Retry.withDefaults(),
		dial:      dial,
		session:   newSessionID(),
		seqs:      newSeqTable(),
		ring:      newHashRing(addrs, virtualNodes),
		members:   make(map[string]*member, len(addrs)),
		overrides: make(map[string]string),
	}
	for _, addr := range addrs {
		m, err := c.dialMember(addr)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.members[addr] = m
	}
	return c, nil
}

// Ingest sends one observation for one stream and waits for the ack:
// IngestBatch with a block of one.
func (c *Client) Ingest(streamID string, o detectors.Observation) error {
	return c.IngestBatch(streamID, []detectors.Observation{o})
}

// IngestAsync sends one observation without waiting for its ack:
// IngestBatchAsync with a block of one.
func (c *Client) IngestAsync(streamID string, o detectors.Observation) (Pending, error) {
	return c.IngestBatchAsync(streamID, []detectors.Observation{o})
}

// IngestBatch sends a block of observations for one stream in a single
// frame — one server-side queue hop, one batched detector update — and
// waits for the ack. Steady state allocates nothing on either side. The
// server applies the monitor's blocking backpressure, so a full shard queue
// delays the reply rather than dropping data. A Busy reply (overload shed)
// is retried with backoff up to RetryPolicy.BusyAttempts, and a connection
// that dies permanently mid-call fails over (see Client) — both with the
// same sequence number, so the eventual commit is exactly once.
func (c *Client) IngestBatch(streamID string, obs []detectors.Observation) error {
	g := c.gate(streamID)
	g.RLock()
	defer g.RUnlock()
	m, err := c.route(streamID)
	if err != nil {
		return err
	}
	return m.ingestBatch(streamID, obs, c.seqs.next(streamID))
}

// IngestBatchAsync is IngestBatch without waiting for the ack — the
// pipelined bulk-load path: keep a window of batches in flight and each
// connection streams frames back to back instead of idling a round trip
// between blocks. Up to Window requests may be outstanding per connection
// before the call blocks, and requests from one goroutine reach the server
// in call order. Busy replies are not retried and dead connections do not
// fail over on the async path — Wait surfaces the error and the caller
// decides. The migration gate is held only for the submission: a later
// migration's export travels the same connection behind the request.
func (c *Client) IngestBatchAsync(streamID string, obs []detectors.Observation) (Pending, error) {
	g := c.gate(streamID)
	g.RLock()
	defer g.RUnlock()
	m, err := c.route(streamID)
	if err != nil {
		return Pending{}, err
	}
	return m.pick(streamID).ingestBatchAsyncSeq(streamID, obs, c.seqs.next(streamID))
}

// Evict asks the stream's server to evict it (spilling its state to the
// checkpoint store when one is configured), behind any of the stream's
// requests already pipelined. Like Monitor.Evict the removal is
// asynchronous; FlushCheckpoints acts as the barrier. A pinned migration
// override is left in place, so a re-ingest rehydrates where the state was
// spilled.
func (c *Client) Evict(streamID string) error {
	g := c.gate(streamID)
	g.RLock()
	defer g.RUnlock()
	m, err := c.route(streamID)
	if err != nil {
		return err
	}
	return m.pick(streamID).evict(streamID)
}

// FlushCheckpoints asks every member to process everything queued ahead of
// the call and flush every dirty stream to its checkpoint store, returning
// when the writes are durable (Monitor.FlushCheckpoints over the wire). It
// travels every live connection, so it is also a barrier for every request
// pipelined ahead of it, and a full processing barrier without a store. It
// stops at the first error.
func (c *Client) FlushCheckpoints() error {
	ms, err := c.memberList()
	if err != nil {
		return err
	}
	for _, m := range ms {
		if err := m.flush(); err != nil {
			return fmt.Errorf("server: flush %s: %w", m.addr, err)
		}
	}
	return nil
}

// Snapshot returns every member's snapshot folded through
// monitor.MergeSnapshots (the identity for one member). It includes the
// server-side wire counters (InFlightHighWater, RepliesCoalesced) an
// in-process monitor cannot know. The conservation identity survives the
// merge, so at quiescence (after FlushCheckpoints) Received == Ingested +
// Rejected holds exactly across the fleet.
func (c *Client) Snapshot() (monitor.Snapshot, error) {
	sns, err := c.MemberSnapshots()
	if err != nil {
		return monitor.Snapshot{}, err
	}
	merged := make([]monitor.Snapshot, len(sns))
	for i := range sns {
		merged[i] = sns[i].Snapshot
	}
	return monitor.MergeSnapshots(merged...), nil
}

// LastDrift fetches the most recent drift report for a stream from its
// server — when it fired, which classes, and the flight-recorder samples
// (recent per-class reconstruction error / trend slope / ADWIN width)
// leading up to it. found is false when the stream has not drifted since
// the server started (reports are process-local observability: they survive
// eviction but are not checkpointed, so a restart clears them). Taken under
// the stream's migration gate, so a concurrent Migrate cannot answer from
// the wrong member.
func (c *Client) LastDrift(streamID string) (monitor.DriftReport, bool, error) {
	g := c.gate(streamID)
	g.RLock()
	defer g.RUnlock()
	m, err := c.route(streamID)
	if err != nil {
		return monitor.DriftReport{}, false, err
	}
	return m.pick(streamID).lastDrift(streamID)
}

// Latency snapshots the client-observed round-trip-time histograms merged
// across every connection, one stage per request kind actually issued
// (rtt_ingest, rtt_ingest_batch, ...), sorted by stage name. RTT spans
// submit to reply-matched, so it includes queue wait behind the window, the
// server's service time, and — across a reconnect — the outage the request
// rode through.
func (c *Client) Latency() []telemetry.Stage {
	var out []telemetry.Stage
	ms, _ := c.sortedMembers()
	for _, m := range ms {
		for _, cn := range m.conns {
			out = cn.latency(out)
		}
	}
	if out == nil {
		return nil
	}
	return telemetry.MergeStages(out)
}

// Reconnects returns how many times the client's connections have been
// replaced with fresh ones (RetryPolicy.Reconnect).
func (c *Client) Reconnects() uint64 {
	var n uint64
	ms, _ := c.sortedMembers()
	for _, m := range ms {
		for _, cn := range m.conns {
			n += cn.reconnects.Load()
		}
	}
	return n
}

// Subscribe opens a dedicated connection that streams every drift event the
// server's monitor publishes. buffer sizes the server-side per-subscriber
// queue and the local event channel (<= 0 selects
// monitor.DefaultSubscriptionBuffer for both). When this subscriber falls
// behind — slow reader, slow link — events overflowing the server-side
// queue are dropped for this subscriber only and counted in
// Snapshot.SubscriberDropped (and, when the server's monitor enables
// SubscriberEvictDrops, a subscriber that keeps dropping is evicted: its
// event channel closes). A client over several members returns an error
// without opening a connection: a fleet-wide subscription is not offered.
func (c *Client) Subscribe(buffer int) (*Subscription, error) {
	ms, err := c.memberList()
	if err != nil {
		return nil, err
	}
	if len(ms) != 1 {
		return nil, fmt.Errorf("server: Subscribe needs a single-server client, this one has %d members", len(ms))
	}
	return subscribe(c.dial, ms[0].addr, buffer)
}

// Close closes every connection. In-flight requests receive errors, never
// hangs; Close is idempotent. Subscriptions have their own connections and
// are closed separately.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	ms := make([]*member, 0, len(c.members))
	for _, m := range c.members {
		ms = append(ms, m)
	}
	c.mu.Unlock()
	for _, m := range ms {
		m.close()
	}
	return nil
}

// The per-connection request methods: each is a thin shell over the same
// four pipeline steps — acquire a window slot, build the request frame in
// it, submit, await the matched reply — so the synchronous and the Async
// paths share one code path and the 0 allocs/op steady state.

// ingestBatchSeq sends a block at a fixed sequence number and waits for
// the ack, resending a Busy-shed request with backoff up to
// RetryPolicy.BusyAttempts (same seq, so the commit is exactly once).
func (c *conn) ingestBatchSeq(streamID string, obs []detectors.Observation, seq uint64) error {
	backoff := c.policy.BusyBackoff
	for attempt := 0; ; attempt++ {
		p, err := c.ingestBatchAsyncSeq(streamID, obs, seq)
		if err != nil {
			return err
		}
		err = p.Wait()
		if err == nil || Classify(err) != ClassBusy || attempt >= c.policy.BusyAttempts {
			return err
		}
		if !c.pause(jitter(backoff)) {
			return c.sticky()
		}
		if backoff *= 2; backoff > c.policy.BackoffMax {
			backoff = c.policy.BackoffMax
		}
	}
}

// ingestBatchAsyncSeq submits a block at a fixed sequence number and
// returns its Pending.
func (c *conn) ingestBatchAsyncSeq(streamID string, obs []detectors.Observation, seq uint64) (Pending, error) {
	slot, err := c.acquire()
	if err != nil {
		return Pending{}, err
	}
	p := c.asyncAck(slot)
	b := c.beginCall(slot, codec.KindWireIngestBatch)
	// A one-observation frame times as rtt_ingest (see stageOf).
	c.calls[slot].stage = int8(stageOf(codec.KindWireIngestBatch, len(obs)))
	b.U64(c.session)
	b.U64(seq)
	b.Str(streamID)
	b.U32(uint32(len(obs)))
	for i := range obs {
		encodeObs(b, obs[i])
	}
	c.submit(slot)
	return p, nil
}

// ackCall issues a request answered by a bare OK and waits for the ack;
// build (nil for none) appends the request's operands.
func (c *conn) ackCall(kind uint8, build func(*codec.Buffer)) error {
	slot, err := c.acquire()
	if err != nil {
		return err
	}
	p := c.asyncAck(slot)
	b := c.beginCall(slot, kind)
	if build != nil {
		build(b)
	}
	c.submit(slot)
	return p.Wait()
}

// payloadCall issues a request answered by a payload reply of kind want
// and hands the payload to decode before releasing the slot, which owns
// the reply bytes. Any other reply kind surfaces as its ack error.
func (c *conn) payloadCall(kind, want uint8, build func(*codec.Buffer), decode func(*codec.Reader) error) error {
	slot, err := c.acquire()
	if err != nil {
		return err
	}
	b := c.beginCall(slot, kind)
	if build != nil {
		build(b)
	}
	c.submit(slot)
	cl, err := c.await(slot)
	if err != nil {
		return err
	}
	defer c.release(slot)
	if cl.replyKind != want {
		if err := c.ackErr(cl); err != nil {
			return err
		}
		return fmt.Errorf("server: unexpected reply kind %d to request kind %d", cl.replyKind, kind)
	}
	var rd codec.Reader
	rd.Reset(cl.msg)
	if err := decode(&rd); err != nil {
		return err
	}
	return rd.Err()
}

// evict asks the server to evict a stream (see Client.Evict).
func (c *conn) evict(streamID string) error {
	return c.ackCall(codec.KindWireEvict, func(b *codec.Buffer) { b.Str(streamID) })
}

// flush is Monitor.FlushCheckpoints over the wire. Because the server
// handles one connection's requests in order, it is also a barrier for
// every request pipelined ahead of it on this connection.
func (c *conn) flush() error { return c.ackCall(codec.KindWireFlush, nil) }

// snapshot fetches the server monitor's aggregate counters, with the
// server-side wire counters overlaid.
func (c *conn) snapshot() (sn monitor.Snapshot, err error) {
	err = c.payloadCall(codec.KindWireSnapshotReq, codec.KindWireSnapshot, nil, func(rd *codec.Reader) error {
		if data := rd.Blob(); rd.Err() == nil {
			if err := json.Unmarshal(data, &sn); err != nil {
				return fmt.Errorf("server: decoding snapshot: %w", err)
			}
		}
		return nil
	})
	return sn, err
}

// migrate asks the server to export a stream for handoff: the stream's
// queued observations are applied, its detector state is serialized into a
// checkpoint envelope frame (and spilled to the server's checkpoint store,
// when one is configured), and the stream is removed from the server — the
// returned bytes are the only live copy unless the server is checkpointed.
// Feed them to handoff on the target server; the restored stream continues
// bit-identically. A stream that is neither resident nor in the server's
// store draws an Error reply whose message contains "stream not found"
// (match with IsStreamNotFound).
func (c *conn) migrate(streamID string) (state []byte, err error) {
	err = c.payloadCall(codec.KindWireMigrate, codec.KindWireState,
		func(b *codec.Buffer) { b.Str(streamID) },
		func(rd *codec.Reader) error {
			// The reply buffer is slot-owned; copy before the slot is released.
			state = append([]byte(nil), rd.Blob()...)
			return nil
		})
	return state, err
}

// handoff installs a state frame produced by migrate (on this or another
// server with a compatible detector configuration) as a new resident stream.
// Installing over an already resident stream is refused with an Error reply;
// the caller routes ingests away from the target until handoff returns.
func (c *conn) handoff(streamID string, state []byte) error {
	return c.ackCall(codec.KindWireHandoff, func(b *codec.Buffer) {
		b.Str(streamID)
		b.U32(uint32(len(state)))
		b.Write(state)
	})
}

// lastDrift fetches the server's most recent drift report for a stream
// (see Client.LastDrift); an empty reply means it never drifted.
func (c *conn) lastDrift(streamID string) (rep monitor.DriftReport, found bool, err error) {
	err = c.payloadCall(codec.KindWireLastDrift, codec.KindWireDrift,
		func(b *codec.Buffer) { b.Str(streamID) },
		func(rd *codec.Reader) error {
			data := rd.Blob()
			if rd.Err() != nil || len(data) == 0 {
				return nil
			}
			if err := json.Unmarshal(data, &rep); err != nil {
				return fmt.Errorf("server: decoding drift report: %w", err)
			}
			found = true
			return nil
		})
	return rep, found && err == nil, err
}

// streamIDs lists the server's resident streams, sorted. Like flush it
// travels the shard queues, so the listing includes at least every stream
// whose first ingest was acknowledged before the call — the enumeration
// Rebalance uses to find remapped streams.
func (c *conn) streamIDs() (ids []string, err error) {
	err = c.payloadCall(codec.KindWireStreams, codec.KindWireStreamIDs, nil, func(rd *codec.Reader) error {
		n := int(rd.U32())
		for i := 0; i < n && rd.Err() == nil; i++ {
			ids = append(ids, string(rd.Blob()))
		}
		return nil
	})
	return ids, err
}

// Subscription is a client-side drift-event stream (see Client.Subscribe).
// It owns a dedicated connection; the server pushes Event frames which
// arrive on Events.
type Subscription struct {
	nc     net.Conn
	ch     chan monitor.Event
	done   chan struct{} // closed by Close; unblocks a parked delivery
	once   sync.Once
	closed atomic.Bool

	mu  sync.Mutex
	err error
}

// Events returns the event channel. It is closed when the subscription is
// closed, the server shuts down, the server evicts this subscriber for
// falling irrecoverably behind (monitor.Config.SubscriberEvictDrops), or
// the connection fails; Err explains a non-local close.
func (s *Subscription) Events() <-chan monitor.Event { return s.ch }

// Err returns why the event channel closed: nil after a local Close or a
// server shutdown's clean end-of-stream, the transport or protocol error
// otherwise.
func (s *Subscription) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Close terminates the subscription and its connection. It is idempotent
// and safe to call with undrained events still queued: a delivery parked on
// the full channel is released, so the decode goroutine never leaks.
func (s *Subscription) Close() error {
	s.once.Do(func() {
		s.closed.Store(true)
		close(s.done)
		s.nc.Close()
	})
	return nil
}

// subscribe opens the dedicated event-stream connection behind
// Client.Subscribe.
func subscribe(dial dialer, addr string, buffer int) (*Subscription, error) {
	nc, err := dial(addr)
	if err != nil {
		return nil, fmt.Errorf("server: dial %s: %w", addr, err)
	}
	b := codec.NewBuffer(nil)
	b.U64(1)
	if buffer < 0 {
		buffer = 0
	}
	b.U32(uint32(buffer))
	if _, err := nc.Write(codec.AppendFrame(nil, codec.KindWireSubscribe, b.Bytes())); err != nil {
		nc.Close()
		return nil, fmt.Errorf("server: write: %w", err)
	}
	sc := codec.NewFrameScanner(nc)
	kind, body, err := sc.Next()
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("server: reading subscribe reply: %w", err)
	}
	rd := codec.NewReader(body)
	rd.U64() // request id
	switch kind {
	case codec.KindWireOK:
	case codec.KindWireError:
		msg := rd.Blob()
		nc.Close()
		return nil, fmt.Errorf("server: %s", msg)
	default:
		nc.Close()
		return nil, fmt.Errorf("server: unexpected subscribe reply kind %d", kind)
	}
	chanCap := buffer
	if chanCap <= 0 {
		chanCap = monitor.DefaultSubscriptionBuffer
	}
	sub := &Subscription{
		nc:   nc,
		ch:   make(chan monitor.Event, chanCap),
		done: make(chan struct{}),
	}
	go sub.loop(sc)
	return sub, nil
}

// loop decodes pushed Event frames until the stream ends. Delivery into the
// local channel is blocking: a consumer that stops reading eventually
// stalls this loop, TCP pushes back, and the overflow is dropped (and
// counted) at the server-side subscriber queue — never silently in between.
func (s *Subscription) loop(sc *codec.FrameScanner) {
	defer close(s.ch)
	for {
		kind, body, err := sc.Next()
		if err != nil {
			// A clean end-of-stream (server shutdown) and a local Close both
			// end quietly; anything else is worth surfacing via Err.
			if err != io.EOF && !s.closed.Load() {
				s.fail(err)
			}
			return
		}
		if kind != codec.KindWireEvent {
			s.fail(fmt.Errorf("server: unexpected frame kind %d on event stream", kind))
			s.nc.Close()
			return
		}
		rd := codec.NewReader(body)
		rd.U64() // id, always 0 for pushes
		ev := monitor.Event{StreamID: string(rd.Blob())}
		ev.Seq = rd.U64()
		ev.At = time.Unix(0, rd.I64())
		ev.Classes = rd.Ints()
		// Trailing flight-recorder blob: JSON DriftRecord, len 0 when absent.
		if rec := rd.Blob(); rd.Err() == nil && len(rec) > 0 {
			r := new(core.DriftRecord)
			if json.Unmarshal(rec, r) == nil {
				ev.Record = r
			}
		}
		if rd.Done() != nil {
			s.fail(fmt.Errorf("server: bad event frame: %v", rd.Done()))
			s.nc.Close()
			return
		}
		select {
		case s.ch <- ev:
		case <-s.done:
			// Closed with the channel full and nobody reading: exit instead
			// of leaking this goroutine on the parked send.
			return
		}
	}
}

func (s *Subscription) fail(err error) {
	if err == nil {
		return
	}
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
}
