package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	httppprof "net/http/pprof"
	"sync"
	"sync/atomic"
	"time"

	"rbmim/internal/codec"
	"rbmim/internal/detectors"
	"rbmim/internal/monitor"
	"rbmim/internal/telemetry"
)

// Config parameterizes a Server. Monitor is required; every other zero
// value selects a sensible default.
type Config struct {
	// Monitor is the sharded drift-detection service the server exposes.
	// The server borrows it: Close tears down the network side only, and
	// the caller closes the Monitor afterwards (which flushes checkpoints).
	Monitor *monitor.Monitor
	// Addr is the TCP listen address; default "127.0.0.1:0" (loopback,
	// kernel-chosen port — read the result from Server.Addr).
	Addr string
	// HTTPAddr, when non-empty, starts the HTTP sidecar serving GET
	// /healthz and GET /metrics (Prometheus text) on that address.
	HTTPAddr string
	// Pprof, when true, additionally mounts net/http/pprof under
	// /debug/pprof/ on the HTTP sidecar, so a running server is profilable
	// in place (CPU, heap, goroutine, block). Off by default — the profile
	// endpoints cost CPU while sampling and should not be reachable
	// accidentally — and meaningless without HTTPAddr.
	Pprof bool
	// MaxFrame bounds a request frame's payload length; connections
	// declaring more are rejected before any allocation. Default 16 MiB
	// (batch 256 at 80 features is ~170 KiB, so the default leaves two
	// orders of magnitude of headroom).
	MaxFrame int
	// DrainTimeout bounds the graceful phase of Close: connections that
	// have not wound down by then (e.g. a subscriber that stopped reading,
	// leaving the server parked in a socket write) are force-closed so
	// shutdown always terminates. Default 5s.
	DrainTimeout time.Duration
	// DedupWindow sizes the per-(session, stream) exactly-once window, in
	// sequence numbers (see dedup.go): a retried ingest whose seq was
	// already committed inside the window is acked without re-ingesting.
	// Rounded up to a power of two, minimum 64; default 1024 (it must
	// comfortably exceed a client's total in-flight requests per stream).
	// Negative disables deduplication entirely — retries may then
	// double-ingest.
	DedupWindow int
	// MaxSessions bounds the distinct client sessions the dedup table
	// tracks; past it the least-recently-active session's window is
	// dropped. Default 1024.
	MaxSessions int
	// Telemetry selects how much of the wire path is timed. The zero value
	// (telemetry.Full) times every request's service time (decode through
	// reply buffering) into per-kind serve_* latency histograms, exposed on
	// Snapshot replies and /metrics alongside the monitor's own stages;
	// telemetry.Basic keeps the serve_* stages too (they are the
	// wire-visible ones); telemetry.Off removes all server-side timing.
	// Telemetry never changes replies or drift decisions.
	Telemetry telemetry.Level
	// ShedHighWater, in (0, 1], enables overload shedding: a blocking
	// Ingest/IngestBatch whose target shard's queue occupancy is at or
	// above this fraction of capacity is refused with a Busy reply instead
	// of queueing (counted in Snapshot.Shedded), keeping the server
	// responsive — and its sheds observable — instead of silently pushing
	// the stall into TCP. It is the wire's only overload signal. 0 disables
	// shedding (ingests apply the monitor's blocking backpressure).
	ShedHighWater float64
}

func (c *Config) withDefaults() error {
	if c.Monitor == nil {
		return errors.New("server: Config.Monitor is required")
	}
	if c.Addr == "" {
		c.Addr = "127.0.0.1:0"
	}
	if c.MaxFrame <= 0 {
		c.MaxFrame = 16 << 20
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 5 * time.Second
	}
	if c.DedupWindow == 0 {
		c.DedupWindow = 1024
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 1024
	}
	return nil
}

// Server serves a Monitor over TCP (plus the optional HTTP sidecar). All
// methods are safe for concurrent use.
type Server struct {
	cfg    Config
	ln     net.Listener
	httpLn net.Listener
	httpSv *http.Server

	mu        sync.Mutex
	conns     map[net.Conn]struct{}
	closed    bool
	closeDone chan struct{}
	wg        sync.WaitGroup

	// Wire-path counters, overlaid onto Snapshot replies and /metrics (the
	// in-process monitor cannot know them): the deepest per-connection
	// pipeline observed, frames (replies and event pushes) that rode a
	// preceding frame's socket write instead of costing their own, and
	// blocking ingests refused with Busy by overload shedding.
	inflightHW       atomic.Uint64
	repliesCoalesced atomic.Uint64
	shedded          atomic.Uint64

	// dedup is the exactly-once window (nil when Config.DedupWindow < 0).
	dedup *dedupTable

	// tele times per-kind request service (nil at telemetry.Off).
	tele *serverTele

	// ready gates /readyz: true while the server accepts and serves ingest,
	// flipped false at the top of Close — before the drain — so a load
	// balancer polling readiness stops routing to a draining server while
	// /healthz (liveness) still answers.
	ready atomic.Bool
}

// serverTele holds one service-time histogram per request stage (see
// stageOf).
type serverTele struct {
	serve [numStages]telemetry.Histogram
}

// serveStageNames maps a serverTele.serve index to its stage label.
var serveStageNames = [numStages]string{
	"serve_ingest", "serve_ingest_batch", "serve_subscribe", "serve_snapshot",
	"serve_evict", "serve_flush", "serve_migrate", "serve_handoff",
	"serve_streams", "serve_last_drift",
}

// stages snapshots the non-empty serve histograms (unsorted; the caller
// merges them with the monitor's stages, which sorts by name).
func (t *serverTele) stages() []telemetry.Stage {
	var out []telemetry.Stage
	for i := range t.serve {
		if st := t.serve[i].Load(serveStageNames[i]); st.Count > 0 {
			out = append(out, st)
		}
	}
	return out
}

// New builds a Server and starts serving immediately (accept loop and, when
// configured, the HTTP sidecar).
func New(cfg Config) (*Server, error) {
	if err := cfg.withDefaults(); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("server: listen %s: %w", cfg.Addr, err)
	}
	s := &Server{
		cfg:       cfg,
		ln:        ln,
		conns:     make(map[net.Conn]struct{}),
		closeDone: make(chan struct{}),
	}
	if cfg.DedupWindow > 0 {
		s.dedup = newDedupTable(cfg.DedupWindow, cfg.MaxSessions)
	}
	if cfg.Telemetry != telemetry.Off {
		s.tele = &serverTele{}
	}
	if cfg.HTTPAddr != "" {
		hln, err := net.Listen("tcp", cfg.HTTPAddr)
		if err != nil {
			ln.Close()
			return nil, fmt.Errorf("server: listen http %s: %w", cfg.HTTPAddr, err)
		}
		mux := http.NewServeMux()
		// Liveness vs readiness: /healthz answers "the process is up" for as
		// long as the sidecar runs; /readyz answers "route traffic here" and
		// flips to 503 the moment Close begins draining (and stays reachable
		// through the drain — the sidecar shuts down after it).
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprintln(w, "ok")
		})
		mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			if !s.ready.Load() {
				w.WriteHeader(http.StatusServiceUnavailable)
				fmt.Fprintln(w, "draining")
				return
			}
			fmt.Fprintln(w, "ready")
		})
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			s.wireSnapshot().WritePrometheus(w)
		})
		if cfg.Pprof {
			// Explicit registration: importing net/http/pprof only touches
			// http.DefaultServeMux, and the sidecar deliberately runs its own.
			mux.HandleFunc("/debug/pprof/", httppprof.Index)
			mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
			mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
		}
		s.httpLn = hln
		s.httpSv = &http.Server{Handler: mux}
		go s.httpSv.Serve(hln)
	}
	s.ready.Store(true)
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the TCP address the server is listening on.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// HTTPAddr returns the sidecar's address, or "" when no sidecar runs.
func (s *Server) HTTPAddr() string {
	if s.httpLn == nil {
		return ""
	}
	return s.httpLn.Addr().String()
}

// Close shuts the server down gracefully: it stops accepting, lets every
// in-flight request finish and its reply go out, flushes subscribed
// connections' queued events, and waits for all connection handlers to
// exit. Connections that cannot wind down — a peer that stopped reading,
// leaving a pump or reply parked in a socket write — are force-closed
// after Config.DrainTimeout, so Close always terminates. The Monitor is
// left running — close it separately (Monitor.Close flushes the
// checkpoint store). Close is idempotent, and a concurrent second Close
// blocks until the teardown is complete.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		<-s.closeDone
		return nil
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for nc := range s.conns {
		conns = append(conns, nc)
	}
	s.mu.Unlock()
	// Readiness flips before anything else so a poller sees 503 for the
	// whole drain window; the sidecar itself closes only after the drain.
	s.ready.Store(false)
	s.ln.Close()
	// Graceful phase: expire every connection's pending read. A handler
	// blocked waiting for the next request returns immediately; a handler
	// mid-request finishes it, writes the reply, and exits on its next
	// read. Subscribed connections close their monitor subscription on
	// wakeup, which lets their pump drain the already-queued events before
	// the socket closes.
	for _, nc := range conns {
		nc.SetReadDeadline(time.Now())
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(s.cfg.DrainTimeout):
		// Force phase: a blocked socket write (stuck subscriber, client
		// that never reads replies) holds its handler hostage; closing the
		// socket errors the write out and the handler's teardown runs.
		s.mu.Lock()
		for nc := range s.conns {
			nc.Close()
		}
		s.mu.Unlock()
		<-done
	}
	if s.httpSv != nil {
		s.httpSv.Close()
	}
	close(s.closeDone)
	return nil
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			// The only non-transient accept failure in practice is our own
			// Close; either way the loop is done.
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			nc.Close()
			return
		}
		s.conns[nc] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handle(nc)
	}
}

func (s *Server) forget(nc net.Conn) {
	s.mu.Lock()
	delete(s.conns, nc)
	s.mu.Unlock()
}

// wireSnapshot is the monitor snapshot with the server-owned wire counters
// overlaid — the view the Snapshot reply and /metrics expose.
func (s *Server) wireSnapshot() monitor.Snapshot {
	sn := s.cfg.Monitor.Snapshot()
	sn.InFlightHighWater = s.inflightHW.Load()
	sn.RepliesCoalesced = s.repliesCoalesced.Load()
	sn.Shedded = s.shedded.Load()
	if s.dedup != nil {
		sn.DedupHits = s.dedup.hits.Load()
	}
	if s.tele != nil {
		if st := s.tele.stages(); len(st) > 0 {
			sn.Latency = telemetry.MergeStages(sn.Latency, st)
		}
	}
	return sn
}

// connHandler is one connection's state: the frame scanner and scratch
// buffers are connection-owned and reused across requests, so the
// steady-state request loop performs zero allocations.
type connHandler struct {
	s    *Server
	nc   net.Conn
	rd   codec.Reader
	out  *codec.Buffer // coalesced reply frames awaiting one socket write
	outN int           // reply frames currently buffered in out
	json []byte        // snapshot JSON scratch

	// Pooled batch-decode slabs: slabObs views slabF exactly like the
	// monitor's internal batchBuf, and both are reusable the moment
	// IngestBatch returns (the monitor copies). obsN is the observation
	// count of the last IngestBatch frame, which picks its latency stage.
	slabObs []detectors.Observation
	slabF   []float64
	obsN    int

	// names interns stream IDs so repeated ingests for the same stream skip
	// the []byte -> string allocation. Bounded: a connection cycling
	// through unbounded distinct IDs falls back to allocating per request
	// instead of growing the map forever.
	names map[string]string

	// Subscription state (nil until a Subscribe request).
	sub      *monitor.Subscription
	pumpDone chan struct{}
}

const maxInternedNames = 4096

// replyFlushBytes caps how many coalesced reply bytes may sit unwritten:
// past it the buffer is flushed even with more requests pending, bounding
// both reply latency under a saturating pipeline and the buffer's size.
const replyFlushBytes = 16 << 10

func (s *Server) handle(nc net.Conn) {
	defer s.wg.Done()
	defer s.forget(nc)
	defer nc.Close()
	// Replies are coalesced and flushed on idle: while more requests are
	// already buffered on the read side, their replies pile into h.out and
	// go out in one write. A pipelined client's W-deep window then costs ~1
	// reply write per drain instead of W, which the client's buffered frame
	// scanner reads back in ~1 read, and the serial client is unaffected
	// (its read side is always idle after one request, so every reply
	// flushes immediately). This cannot deadlock: clients write whole
	// frames before blocking on their window, so an empty read buffer means
	// the peer is waiting on us, and that is exactly when we flush.
	sc := codec.NewFrameScanner(nc)
	sc.LimitPayload(s.cfg.MaxFrame)
	h := &connHandler{
		s:     s,
		nc:    nc,
		out:   codec.NewBuffer(nil),
		names: make(map[string]string),
	}
	for {
		if h.outN > 0 && sc.Buffered() == 0 {
			if !h.flushReplies() {
				break
			}
		}
		kind, payload, err := sc.Next()
		if err != nil {
			// Clean close, peer death, framing corruption, or our own
			// shutdown deadline — all end the connection.
			break
		}
		// Service time is decode through reply buffering (the coalesced
		// socket write is shared across requests and charged to none).
		var t0 int64
		if s.tele != nil {
			t0 = telemetry.Now()
		}
		ok := h.serve(kind, payload)
		if s.tele != nil {
			if i := stageOf(kind, h.obsN); i >= 0 {
				s.tele.serve[i].Observe(telemetry.Now() - t0)
			}
		}
		if !ok {
			break
		}
	}
	// Teardown flush: a buffered Error reply (bad request, unknown kind)
	// must still reach the peer before the socket closes under it.
	h.flushReplies()
	if h.sub != nil {
		h.sub.Close()
		<-h.pumpDone
	}
}

// serve handles one request frame; false ends the connection.
func (h *connHandler) serve(kind uint8, payload []byte) bool {
	if h.sub != nil {
		// A subscribed connection is one-way; a client that keeps sending is
		// violating the protocol.
		return false
	}
	h.rd.Reset(payload)
	id := h.rd.U64()
	if h.rd.Err() != nil {
		return false // no id to address an Error reply to
	}
	// In-flight accounting: the replies still buffered plus this request.
	maxUint64(&h.s.inflightHW, uint64(h.outN)+1)
	m := h.s.cfg.Monitor
	switch kind {
	case codec.KindWireIngestBatch:
		session, seq := h.rd.U64(), h.rd.U64()
		sid, obs, ok := h.decodeBatch()
		if !ok {
			return h.replyErr(id, "bad batch payload")
		}
		// Claim before shed: a duplicate of an already-committed request
		// must ack OK even under overload — the work is already done.
		state, token := h.claim(session, sid, seq)
		switch state {
		case claimApplied:
			return h.reply(id, codec.KindWireOK)
		case claimAged:
			return h.replyErr(id, errSeqAged)
		}
		if h.shed(sid) {
			h.settle(session, sid, seq, token, false)
			return h.reply(id, codec.KindWireBusy)
		}
		if err := m.IngestBatch(sid, obs); err != nil {
			h.settle(session, sid, seq, token, false)
			return h.replyErr(id, err.Error())
		}
		h.settle(session, sid, seq, token, true)
		return h.reply(id, codec.KindWireOK)

	case codec.KindWireSubscribe:
		buffer := int(h.rd.U32())
		if h.rd.Done() != nil {
			return h.replyErr(id, "bad subscribe payload")
		}
		sub, err := m.Subscribe(buffer)
		if err != nil {
			return h.replyErr(id, err.Error())
		}
		// The pump goroutine owns the write side of the socket from here, so
		// the OK — and any replies coalesced behind it — must be flushed
		// before it starts; this goroutine then only watches for EOF (see
		// handle).
		if !h.reply(id, codec.KindWireOK) || !h.flushReplies() {
			sub.Close()
			return false
		}
		h.sub = sub
		h.pumpDone = make(chan struct{})
		go h.pump()
		return true

	case codec.KindWireSnapshotReq:
		if h.rd.Done() != nil {
			return h.replyErr(id, "bad snapshot payload")
		}
		h.json = h.s.wireSnapshot().AppendJSON(h.json[:0])
		mark := h.out.BeginFrame(codec.KindWireSnapshot)
		h.out.U64(id)
		h.out.U32(uint32(len(h.json)))
		h.out.Write(h.json)
		return h.endReply(mark)

	case codec.KindWireEvict:
		sid, ok := h.streamID()
		if !ok || h.rd.Done() != nil {
			return h.replyErr(id, "bad evict payload")
		}
		if err := m.Evict(sid); err != nil {
			return h.replyErr(id, err.Error())
		}
		return h.reply(id, codec.KindWireOK)

	case codec.KindWireFlush:
		if h.rd.Done() != nil {
			return h.replyErr(id, "bad flush payload")
		}
		if err := m.FlushCheckpoints(); err != nil {
			return h.replyErr(id, err.Error())
		}
		return h.reply(id, codec.KindWireOK)

	case codec.KindWireMigrate:
		sid, ok := h.streamID()
		if !ok || h.rd.Done() != nil {
			return h.replyErr(id, "bad migrate payload")
		}
		// Blocks this connection (like IngestBatch) until the shard applied
		// everything queued ahead and serialized the state; the spill-first
		// export makes a retried Migrate after a lost reply re-read the same
		// bytes from the checkpoint store.
		frame, err := m.ExportStream(sid)
		if err != nil {
			return h.replyErr(id, err.Error())
		}
		mark := h.out.BeginFrame(codec.KindWireState)
		h.out.U64(id)
		h.out.U32(uint32(len(frame)))
		h.out.Write(frame)
		return h.endReply(mark)

	case codec.KindWireHandoff:
		sid, ok := h.streamID()
		if !ok {
			return h.replyErr(id, "bad handoff payload")
		}
		state := h.rd.Blob()
		if h.rd.Err() != nil || h.rd.Done() != nil {
			return h.replyErr(id, "bad handoff payload")
		}
		// ImportStream waits for the shard to decode before returning, so
		// the payload view is safe to hand over.
		if err := m.ImportStream(sid, state); err != nil {
			return h.replyErr(id, err.Error())
		}
		return h.reply(id, codec.KindWireOK)

	case codec.KindWireLastDrift:
		sid, ok := h.streamID()
		if !ok || h.rd.Done() != nil {
			return h.replyErr(id, "bad last-drift payload")
		}
		// Cold path (operator query): the JSON allocation is fine here.
		var data []byte
		if rep, found := m.LastDrift(sid); found {
			d, err := json.Marshal(rep)
			if err != nil {
				return h.replyErr(id, err.Error())
			}
			data = d
		}
		// A zero-length blob means "no drift recorded yet" — a report never
		// marshals to empty JSON.
		mark := h.out.BeginFrame(codec.KindWireDrift)
		h.out.U64(id)
		h.out.U32(uint32(len(data)))
		h.out.Write(data)
		return h.endReply(mark)

	case codec.KindWireStreams:
		if h.rd.Done() != nil {
			return h.replyErr(id, "bad streams payload")
		}
		ids, err := m.StreamIDs()
		if err != nil {
			return h.replyErr(id, err.Error())
		}
		mark := h.out.BeginFrame(codec.KindWireStreamIDs)
		h.out.U64(id)
		h.out.U32(uint32(len(ids)))
		for _, sid := range ids {
			h.out.Str(sid)
		}
		return h.endReply(mark)

	default:
		// Unknown kind: the peer speaks a different protocol revision (the
		// wire kinds move to a new numeric block on incompatible payload
		// changes — see internal/codec) or is corrupt; answer once and hang
		// up rather than misparse.
		h.replyErr(id, fmt.Sprintf("unknown request kind %d (wire protocol version skew?)", kind))
		return false
	}
}

// errSeqAged is the Error-reply message for a seq that fell out of the
// exactly-once window undecided (see dedup.go): acking it could report
// silent data loss as success, so the client must surface the failure.
const errSeqAged = "ingest seq aged out of the exactly-once window undecided; not applied"

// claim atomically resolves (session, stream, seq) against the exactly-once
// window, waiting out a concurrent ingest of the same seq on another
// connection (the reconnect-resend race: the old connection's handler may
// still be blocked inside the monitor's enqueue when the resend arrives).
// A claimOwned result obliges the caller to settle the returned token on
// every outcome path. Session 0 marks a client without retry identity and
// bypasses deduplication (claimOwned with token 0; settle no-ops).
func (h *connHandler) claim(session uint64, sid string, seq uint64) (claimState, uint64) {
	d := h.s.dedup
	if d == nil || session == 0 {
		return claimOwned, 0
	}
	return d.claim(session, sid, seq)
}

// settle resolves a claimOwned ingest: committed on success, released (the
// seq stays fresh for a retry) on shed or error.
func (h *connHandler) settle(session uint64, sid string, seq uint64, token uint64, committed bool) {
	if token != 0 {
		h.s.dedup.settle(session, sid, seq, token, committed)
	}
}

// shed reports whether overload shedding refuses work for sid's shard right
// now (queue occupancy at or above Config.ShedHighWater of capacity),
// counting the refusal.
func (h *connHandler) shed(sid string) bool {
	hw := h.s.cfg.ShedHighWater
	if hw <= 0 {
		return false
	}
	q, capacity := h.s.cfg.Monitor.QueuePressure(sid)
	if float64(q) < hw*float64(capacity) {
		return false
	}
	h.s.shedded.Add(1)
	return true
}

// streamID reads a length-prefixed stream ID, interning it so steady-state
// traffic for known streams does not allocate.
func (h *connHandler) streamID() (string, bool) {
	b := h.rd.Blob()
	if h.rd.Err() != nil {
		return "", false
	}
	if sid, ok := h.names[string(b)]; ok {
		return sid, true
	}
	sid := string(b)
	if len(h.names) < maxInternedNames {
		h.names[sid] = sid
	}
	return sid, true
}

// growSlab resets the float slab with capacity for every float the rest of
// the payload could possibly hold, so per-observation appends never
// relocate earlier observations' views.
func (h *connHandler) growSlab(payloadBytes int) []float64 {
	need := payloadBytes / 8
	if cap(h.slabF) < need {
		h.slabF = make([]float64, 0, need)
	}
	return h.slabF[:0]
}

// decodeBatch decodes an IngestBatch payload into the connection's pooled
// slabs.
func (h *connHandler) decodeBatch() (string, []detectors.Observation, bool) {
	h.obsN = 0
	sid, ok := h.streamID()
	if !ok {
		return "", nil, false
	}
	n := int(h.rd.U32())
	if h.rd.Err() != nil || n*minObsBytes > h.rd.Remaining() {
		return "", nil, false
	}
	slab := h.growSlab(h.rd.Remaining())
	if cap(h.slabObs) < n {
		h.slabObs = make([]detectors.Observation, n)
	}
	obs := h.slabObs[:n]
	h.obsN = n
	for i := range obs {
		slab, obs[i] = decodeObs(&h.rd, slab)
	}
	h.slabF = slab
	if h.rd.Done() != nil {
		return "", nil, false
	}
	return sid, obs, true
}

// reply buffers a payload-less reply (OK / Busy) carrying the request id.
func (h *connHandler) reply(id uint64, kind uint8) bool {
	mark := h.out.BeginFrame(kind)
	h.out.U64(id)
	return h.endReply(mark)
}

// replyErr buffers an Error reply with a message; the connection stays open
// (the framing is intact, only the request was bad).
func (h *connHandler) replyErr(id uint64, msg string) bool {
	mark := h.out.BeginFrame(codec.KindWireError)
	h.out.U64(id)
	h.out.Str(msg)
	return h.endReply(mark)
}

// endReply seals a reply frame begun in h.out. Replies normally stay
// buffered until the flush-on-idle point in handle; past replyFlushBytes
// the buffer is flushed here to bound latency and memory.
func (h *connHandler) endReply(mark int) bool {
	h.out.EndFrame(mark)
	h.outN++
	if h.out.Len() >= replyFlushBytes {
		return h.flushReplies()
	}
	return true
}

// flushReplies writes every buffered reply frame in one socket write,
// crediting the frames beyond the first as coalesced (syscalls saved).
func (h *connHandler) flushReplies() bool {
	if h.outN == 0 {
		return true
	}
	if h.outN > 1 {
		h.s.repliesCoalesced.Add(uint64(h.outN - 1))
	}
	_, err := h.nc.Write(h.out.Bytes())
	h.out.Reset()
	h.outN = 0
	return err == nil
}

// pumpBatch bounds how many queued events one pump iteration coalesces into
// a single vector write.
const pumpBatch = 64

// pump streams the connection's subscription to the socket. It owns its own
// scratch (the request loop no longer writes once a subscription exists)
// and exits when the subscription channel closes — via Subscription.Close
// on connection teardown, via monitor-side slow-subscriber eviction, or via
// Monitor.Close. A drift burst that queues faster than one event per write
// is drained in batches: the frames are encoded back to back in one buffer
// and pushed with a single vector write (writev), so fan-out under load
// costs ~1 syscall per drain instead of per event.
func (h *connHandler) pump() {
	defer close(h.pumpDone)
	defer h.nc.Close() // wake the request loop if it outlives us
	b := codec.NewBuffer(nil)
	// frames is the master net.Buffers backing; the header copy handed to
	// WriteTo is consumed/advanced, the master keeps its capacity. wv lives
	// out here because WriteTo's pointer receiver makes it escape — one heap
	// cell per pump instead of one allocation per vector write.
	frames := make(net.Buffers, 0, pumpBatch)
	var wv net.Buffers
	offs := make([]int, 0, pumpBatch+1)
	encode := func(ev monitor.Event) {
		mark := b.BeginFrame(codec.KindWireEvent)
		b.U64(0) // events are pushes, not replies
		b.Str(ev.StreamID)
		b.U64(ev.Seq)
		b.I64(ev.At.UnixNano())
		b.Ints(ev.Classes)
		// Flight-recorder record as a JSON blob (len 0 when absent — e.g. a
		// Warning event, or a detector without a recorder). Drift events are
		// rare, so the marshal allocation stays off the ingest hot path.
		if ev.Record != nil {
			if rec, err := json.Marshal(ev.Record); err == nil {
				b.U32(uint32(len(rec)))
				b.Write(rec)
			} else {
				b.U32(0)
			}
		} else {
			b.U32(0)
		}
		b.EndFrame(mark)
		offs = append(offs, b.Len())
	}
	for ev := range h.sub.Events() {
		b.Reset()
		offs = append(offs[:0], 0)
		encode(ev)
	coalesce:
		for len(offs) <= pumpBatch {
			select {
			case next, ok := <-h.sub.Events():
				if !ok {
					break coalesce // flush what we have; the outer range ends too
				}
				encode(next)
			default:
				break coalesce
			}
		}
		n := len(offs) - 1
		var err error
		if n == 1 {
			_, err = h.nc.Write(b.Bytes())
		} else {
			all := b.Bytes()
			frames = frames[:0]
			for i := 0; i < n; i++ {
				frames = append(frames, all[offs[i]:offs[i+1]])
			}
			wv = frames
			_, err = wv.WriteTo(h.nc)
			if err == nil {
				h.s.repliesCoalesced.Add(uint64(n - 1))
			}
		}
		if err != nil {
			// Peer gone: detach so the monitor stops queueing for us, and
			// drain what it already queued so the channel close can proceed.
			h.sub.Close()
			for range h.sub.Events() {
			}
			return
		}
	}
}
