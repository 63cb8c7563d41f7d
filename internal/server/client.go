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
)

// ErrClientClosed is returned by Client methods after Close. The error is
// sticky: once Close (or a transport failure) kills the client, every later
// call — including calls that were racing the Close — fails with the same
// error instead of racing the connection teardown.
var ErrClientClosed = errors.New("server: client closed")

// This file is the Client's request method set; the pipelined transport
// underneath (slots, writer, reader, Pending) lives in pipeline.go and the
// multi-connection ClientPool in mux.go. Every method is a thin shell over
// the same four steps — acquire a window slot, build the request frame in
// it, submit, await the matched reply — so the synchronous API and the
// Async variants share one code path and the 0 allocs/op steady state.

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
// waits for the ack. Steady state allocates nothing on either side. An
// empty block is a no-op. The server applies the monitor's blocking
// backpressure, so a full shard queue delays the reply rather than dropping
// data. A Busy reply (overload shed) is retried with backoff up to
// RetryPolicy.BusyAttempts — with the same sequence number, so the eventual
// commit is exactly once.
func (c *Client) IngestBatch(streamID string, obs []detectors.Observation) error {
	return c.ingestBatchSeq(streamID, obs, c.seqs.next(streamID))
}

// ingestBatchSeq is IngestBatch at a fixed sequence number: the Busy-retry
// loop, and ClientPool's failover resend (same seq on a different
// connection).
func (c *Client) ingestBatchSeq(streamID string, obs []detectors.Observation, seq uint64) error {
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

// IngestBatchAsync is IngestBatch without waiting for the ack — the
// pipelined bulk-load path: keep Window() batches in flight and the
// connection streams frames back to back instead of idling a round trip
// between blocks. Up to Window() requests may be outstanding before the
// call blocks on the in-flight window, and requests from one goroutine
// reach the server in call order. Busy replies are not retried on the async
// path — Wait surfaces ErrBusy and the caller decides.
func (c *Client) IngestBatchAsync(streamID string, obs []detectors.Observation) (Pending, error) {
	return c.ingestBatchAsyncSeq(streamID, obs, c.seqs.next(streamID))
}

func (c *Client) ingestBatchAsyncSeq(streamID string, obs []detectors.Observation, seq uint64) (Pending, error) {
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

// Evict asks the server to evict a stream (spilling its state to the
// checkpoint store when one is configured). Like Monitor.Evict the removal
// is asynchronous; FlushCheckpoints acts as the barrier.
func (c *Client) Evict(streamID string) error {
	slot, err := c.acquire()
	if err != nil {
		return err
	}
	p := c.asyncAck(slot)
	c.beginCall(slot, codec.KindWireEvict).Str(streamID)
	c.submit(slot)
	return p.Wait()
}

// FlushCheckpoints asks the server to process everything queued ahead of
// the call and flush every dirty stream to the checkpoint store, returning
// when the writes are durable (Monitor.FlushCheckpoints over the wire).
// Without a configured store it is still a full processing barrier — and
// because the server handles one connection's requests in order, it is also
// a barrier for every request pipelined ahead of it on this connection.
func (c *Client) FlushCheckpoints() error {
	slot, err := c.acquire()
	if err != nil {
		return err
	}
	p := c.asyncAck(slot)
	c.beginCall(slot, codec.KindWireFlush)
	c.submit(slot)
	return p.Wait()
}

// Snapshot fetches the monitor's aggregate counters, including the
// server-side wire counters (InFlightHighWater, RepliesCoalesced) the
// in-process monitor cannot know.
func (c *Client) Snapshot() (monitor.Snapshot, error) {
	slot, err := c.acquire()
	if err != nil {
		return monitor.Snapshot{}, err
	}
	c.beginCall(slot, codec.KindWireSnapshotReq)
	c.submit(slot)
	cl, err := c.await(slot)
	if err != nil {
		return monitor.Snapshot{}, err
	}
	if cl.replyKind != codec.KindWireSnapshot {
		err := c.ackErr(cl)
		c.release(slot)
		if err == nil {
			err = fmt.Errorf("server: unexpected snapshot reply kind %d", cl.replyKind)
		}
		return monitor.Snapshot{}, err
	}
	var rd codec.Reader
	rd.Reset(cl.msg)
	data := rd.Blob()
	if rd.Err() != nil {
		c.release(slot)
		return monitor.Snapshot{}, rd.Err()
	}
	var sn monitor.Snapshot
	err = json.Unmarshal(data, &sn)
	c.release(slot)
	if err != nil {
		return monitor.Snapshot{}, fmt.Errorf("server: decoding snapshot: %w", err)
	}
	return sn, nil
}

// Migrate asks the server to export a stream for handoff: the stream's
// queued observations are applied, its detector state is serialized into a
// checkpoint envelope frame (and spilled to the server's checkpoint store,
// when one is configured), and the stream is removed from the server — the
// returned bytes are the only live copy unless the server is checkpointed.
// Feed them to Handoff on the target server; the restored stream continues
// bit-identically. A stream that is neither resident nor in the server's
// store draws an Error reply whose message contains "stream not found"
// (match with IsStreamNotFound).
func (c *Client) Migrate(streamID string) ([]byte, error) {
	slot, err := c.acquire()
	if err != nil {
		return nil, err
	}
	b := c.beginCall(slot, codec.KindWireMigrate)
	b.Str(streamID)
	c.submit(slot)
	cl, err := c.await(slot)
	if err != nil {
		return nil, err
	}
	if cl.replyKind != codec.KindWireState {
		err := c.ackErr(cl)
		c.release(slot)
		if err == nil {
			err = fmt.Errorf("server: unexpected migrate reply kind %d", cl.replyKind)
		}
		return nil, err
	}
	var rd codec.Reader
	rd.Reset(cl.msg)
	data := rd.Blob()
	err = rd.Err()
	// The reply buffer is slot-owned; copy before releasing the slot.
	state := make([]byte, len(data))
	copy(state, data)
	c.release(slot)
	if err != nil {
		return nil, err
	}
	return state, nil
}

// Handoff installs a state frame produced by Migrate (on this or another
// server with a compatible detector configuration) as a new resident stream.
// Installing over an already resident stream is refused with an Error reply;
// the caller routes ingests away from the target until Handoff returns.
func (c *Client) Handoff(streamID string, state []byte) error {
	slot, err := c.acquire()
	if err != nil {
		return err
	}
	p := c.asyncAck(slot)
	b := c.beginCall(slot, codec.KindWireHandoff)
	b.Str(streamID)
	b.U32(uint32(len(state)))
	b.Write(state)
	c.submit(slot)
	return p.Wait()
}

// LastDrift fetches the server's most recent drift report for a stream —
// when it fired, which classes, and the flight-recorder samples (recent
// per-class reconstruction error / trend slope / ADWIN width) leading up to
// it. found is false when the stream has not drifted since the server
// started (reports are process-local observability: they survive eviction
// but are not checkpointed, so a restart clears them).
func (c *Client) LastDrift(streamID string) (monitor.DriftReport, bool, error) {
	slot, err := c.acquire()
	if err != nil {
		return monitor.DriftReport{}, false, err
	}
	b := c.beginCall(slot, codec.KindWireLastDrift)
	b.Str(streamID)
	c.submit(slot)
	cl, err := c.await(slot)
	if err != nil {
		return monitor.DriftReport{}, false, err
	}
	if cl.replyKind != codec.KindWireDrift {
		err := c.ackErr(cl)
		c.release(slot)
		if err == nil {
			err = fmt.Errorf("server: unexpected last-drift reply kind %d", cl.replyKind)
		}
		return monitor.DriftReport{}, false, err
	}
	var rd codec.Reader
	rd.Reset(cl.msg)
	data := rd.Blob()
	if err := rd.Err(); err != nil {
		c.release(slot)
		return monitor.DriftReport{}, false, err
	}
	if len(data) == 0 {
		c.release(slot)
		return monitor.DriftReport{}, false, nil
	}
	var rep monitor.DriftReport
	err = json.Unmarshal(data, &rep)
	c.release(slot)
	if err != nil {
		return monitor.DriftReport{}, false, fmt.Errorf("server: decoding drift report: %w", err)
	}
	return rep, true, nil
}

// StreamIDs lists the server's resident streams, sorted. Like
// FlushCheckpoints it travels the shard queues, so the listing includes at
// least every stream whose first ingest was acknowledged before the call —
// the enumeration cluster rebalancing uses to find remapped streams.
func (c *Client) StreamIDs() ([]string, error) {
	slot, err := c.acquire()
	if err != nil {
		return nil, err
	}
	c.beginCall(slot, codec.KindWireStreams)
	c.submit(slot)
	cl, err := c.await(slot)
	if err != nil {
		return nil, err
	}
	if cl.replyKind != codec.KindWireStreamIDs {
		err := c.ackErr(cl)
		c.release(slot)
		if err == nil {
			err = fmt.Errorf("server: unexpected streams reply kind %d", cl.replyKind)
		}
		return nil, err
	}
	var rd codec.Reader
	rd.Reset(cl.msg)
	n := int(rd.U32())
	var ids []string
	for i := 0; i < n && rd.Err() == nil; i++ {
		ids = append(ids, string(rd.Blob()))
	}
	err = rd.Err()
	c.release(slot)
	if err != nil {
		return nil, err
	}
	return ids, nil
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

// Subscribe opens a dedicated connection that streams every drift event the
// monitor publishes. buffer sizes the server-side per-subscriber queue and
// the local event channel (<= 0 selects monitor.DefaultSubscriptionBuffer
// for both). When this subscriber falls behind — slow reader, slow link —
// events overflowing the server-side queue are dropped for this subscriber
// only and counted in Snapshot.SubscriberDropped (and, when the server's
// monitor enables SubscriberEvictDrops, a subscriber that keeps dropping is
// evicted: its event channel closes).
func (c *Client) Subscribe(buffer int) (*Subscription, error) {
	nc, err := net.Dial("tcp", c.addr)
	if err != nil {
		return nil, fmt.Errorf("server: dial %s: %w", c.addr, err)
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
