package server

import (
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rbmim/internal/codec"
	"rbmim/internal/telemetry"
)

// Pipelined connection core: the only transport under Client.
//
// The wire protocol already carries an echoed request id on every reply, so
// nothing forces a client to stop-and-wait. A conn keeps a window of W
// in-flight requests over one connection:
//
//	caller:  acquire slot -> build frame in the slot -> sendq
//	writer:  drain sendq, register slots in flight, one writev per drain
//	reader:  match each reply to the oldest in-flight slot, resolve the
//	         ack and recycle the slot (ack-only requests) or park the
//	         reply and signal the awaiting caller (payload requests)
//
// Slots are the unit of everything: each of the W slots owns its request
// frame buffer, its reply scratch, and its completion channel, so a caller
// holding a slot builds and consumes in place and the steady state allocates
// nothing. The slot index travels through three uint32 channels — free,
// sendq, inflight — whose combined capacity W makes every send non-blocking
// and makes `free` double as the window semaphore: when W requests are
// outstanding the next acquire parks until a reply releases a slot
// (backpressure, not unbounded queueing).
//
// Request ids encode gen<<32|slot, where gen increments on every slot reuse:
// the reader can therefore verify not just "some id I know" but "the id of
// the exact call occupying this slot right now", catching a server that
// echoes a stale or foreign id. Because the server replies strictly in
// request order per connection and the writer registers a slot in `inflight`
// before its bytes reach the socket, the oldest element of `inflight` is
// always the reply's rightful owner — a reply with no registered slot is a
// protocol violation, not a race.
//
// # Epochs and reconnection
//
// The connection-bound state — socket, inflight queue, writer, reader, and
// stall watchdog — lives in an epoch; the slots, free list, and sendq are
// conn-level and outlive it. A supervisor goroutine watches the current
// epoch: when it dies (transport error, protocol violation, stall), the
// supervisor waits for its loops to exit, reclaims every slot the epoch
// still owed a reply (oldest first) plus everything the writer never picked
// up, and — when RetryPolicy.Reconnect is set and the failure class is
// retryable — redials with capped jittered exponential backoff and hands
// the reclaimed slots to the new epoch, whose writer resubmits them before
// consuming new work from sendq. Per-stream order is preserved (anything
// submitted during the outage sits in sendq, strictly newer), callers never
// notice beyond latency, and the server's session/seq dedup window makes
// the resend of possibly-already-applied requests exactly-once. Without
// Reconnect (the zero RetryPolicy), the first epoch death permanently fails
// the conn.
//
// Permanent failures are sticky and total: they funnel through fail(),
// which records the first error, closes the `dead` channel, and kills the
// current epoch. Every waiter — callers parked on acquire or on a
// completion, the epoch loops, the supervisor's backoff sleep — selects on
// `dead`, so Close (or a non-retryable failure) errors all pending calls
// promptly instead of hanging any of them, and every later method call
// returns the sticky error immediately.

// DefaultWindow is the in-flight window a zero ClientConfig.Window selects
// for every connection: deep enough that a single producer saturates the
// server's request loop, small enough that a stalled server applies
// backpressure within a few hundred KiB of frames.
const DefaultWindow = 32

// A call's fate arbitrates the race between its awaiting caller's deadline
// and the reader delivering its reply: exactly one side wins the CAS from
// fatePending and becomes responsible for the slot.
const (
	fatePending   uint32 = iota // reply outstanding, caller waiting
	fateReplied                 // reader won; caller consumes and releases
	fateAbandoned               // deadline won; reader releases on delivery
)

// call is one slot of the pipeline window: the request frame under
// construction, the identity check for its reply, and the reply itself.
type call struct {
	frame codec.Buffer  // complete framed request (BeginFrame/EndFrame)
	mark  int           // EndFrame mark while the frame is being built
	gen   uint32        // reuse generation; request id = gen<<32|slot
	done  chan struct{} // cap 1; reader signals reply arrival
	fate  atomic.Uint32 // await-path deadline arbitration (see above)

	// RTT telemetry: the request's stage index and the submit stamp. A
	// reconnect's resend keeps the original stamp, so the observed RTT
	// honestly includes the outage the caller actually waited through. Both
	// fields ride the slot through the sendq/inflight channels, which order
	// the caller's writes before the reader's read.
	stage  int8 // index into conn.rtt (see stageOf); -1 for unmapped kinds
	sentNS int64

	// writing is set by the writer while the frame is part of a write in
	// progress. The server can reply — and the slot be released and
	// reacquired — before that write call has returned, so beginCall waits
	// for the flag to clear before rebuilding the frame: the writer is done
	// with the bytes, and the flag is the happens-before edge that says so.
	writing atomic.Bool

	// ack, when non-nil, marks an ack-only request (the Async ingest paths,
	// Evict, FlushCheckpoints): the reader resolves the ack itself and
	// releases the slot immediately instead of parking the reply for await.
	ack *pendingAck

	// Reply, owned by the reader until done is signalled, then by the
	// caller until release: the kind and the payload after the echoed id,
	// copied out of the scanner's reused buffer.
	replyKind uint8
	msg       []byte
}

// pendingAck decouples an ack-only request's completion from its window
// slot. The reader interprets the reply and releases the slot the moment it
// lands, so a window slot is never held hostage by a caller that has not
// called Wait yet. Without this, a producer blocked in acquire on one
// connection while holding completed-but-unwaited Pendings on another could
// deadlock the window (hold-and-wait across connections) — with it, slots
// recycle as fast as the server replies, no matter when Wait runs. Cells
// are pooled; Wait returns them.
type pendingAck struct {
	err chan error // cap 1; the reader delivers exactly one ack
}

var ackPool = sync.Pool{New: func() any { return &pendingAck{err: make(chan error, 1)} }}

// conn speaks the driftserver wire protocol over one TCP connection at a
// time with a pipelined in-flight window (see the comment above). It is
// Client's only transport: every member of a Client holds a set of them.
// All methods are safe for concurrent use; calls from one goroutine are
// delivered in order. After close — or after any failure the RetryPolicy
// does not absorb — every method returns the same sticky error.
type conn struct {
	addr    string
	dial    dialer
	window  int
	policy  RetryPolicy
	session uint64 // the owning Client's exactly-once identity (see dedup.go)

	calls    []call
	free     chan uint32 // released slots; doubles as the window semaphore
	sendq    chan uint32 // built frames awaiting the writer
	dead     chan struct{}
	deadOnce sync.Once

	errMu sync.Mutex
	err   error // first permanent failure wins; ErrClientClosed after close

	epMu sync.Mutex
	ep   *epoch // current connection epoch; protected so fail() can kill it

	acked      atomic.Uint64 // replies matched, across epochs (stall progress)
	reconnects atomic.Uint64

	// rtt holds client-observed round-trip-time histograms per request
	// stage (see stageOf). Always on: the timing is two
	// clock reads on the client's own path and cannot perturb the server.
	rtt [numStages]telemetry.Histogram

	wg sync.WaitGroup // the supervisor (which in turn waits epoch loops)
}

// dialer opens one transport connection to addr: TCP in Dial, an in-memory
// pipe in tests.
type dialer func(addr string) (net.Conn, error)

func dialTCP(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }

// epoch is one connection's lifetime: the socket, the in-flight queue, and
// the goroutines bound to them. Slots travel between epochs; an epoch's
// death hands its outstanding slots to the supervisor for the next one.
type epoch struct {
	c        *conn
	nc       net.Conn
	inflight chan uint32 // written (or about to be) frames awaiting replies
	resub    []uint32    // prior epoch's outstanding slots, oldest first
	dead     chan struct{}
	once     sync.Once
	errMu    sync.Mutex
	err      error
	wg       sync.WaitGroup
	// orphan is the slot the reader had already dequeued from inflight when
	// it killed the epoch (a mismatched or corrupt reply — e.g. the second
	// reply to a frame a middlebox duplicated). It is still owed a reply, and
	// it is older than everything left in inflight, so collect resubmits it
	// first. Written only by the dead reader, read only after ep.wg.Wait.
	orphan int64 // -1 = none
}

// dialConn opens a pipelined connection to addr with the given window,
// retry policy (already defaulted) and session. The initial dial is not
// retried; the caller decides whether an unreachable server is fatal.
func dialConn(addr string, dial dialer, window int, policy RetryPolicy, session uint64) (*conn, error) {
	nc, err := dial(addr)
	if err != nil {
		return nil, classed(ClassTransport, fmt.Errorf("server: dial %s: %w", addr, err))
	}
	c := &conn{
		addr:    addr,
		dial:    dial,
		window:  window,
		policy:  policy,
		session: session,
		calls:   make([]call, window),
		free:    make(chan uint32, window),
		sendq:   make(chan uint32, window),
		dead:    make(chan struct{}),
	}
	for i := range c.calls {
		c.calls[i].gen = 1 // ids start nonzero; 0 marks server pushes
		c.calls[i].done = make(chan struct{}, 1)
		c.free <- uint32(i)
	}
	ep := c.newEpoch(nc, nil)
	c.wg.Add(1)
	go c.supervise(ep)
	return c, nil
}

// newEpoch registers a fresh connection as the current epoch and starts its
// loops. Registration and the died-while-dialing check share the epoch
// lock, so a Close racing the redial cannot leave the new socket open.
func (c *conn) newEpoch(nc net.Conn, resub []uint32) *epoch {
	ep := &epoch{
		c:        c,
		nc:       nc,
		inflight: make(chan uint32, c.window),
		resub:    resub,
		dead:     make(chan struct{}),
		orphan:   -1,
	}
	c.epMu.Lock()
	c.ep = ep
	if c.isDead() {
		ep.fail(c.sticky())
	}
	c.epMu.Unlock()
	// All Adds before any goroutine starts: an epoch that dies instantly
	// must not race the supervisor's Wait against a late Add.
	watch := c.policy.StallTimeout > 0
	if watch {
		ep.wg.Add(3)
	} else {
		ep.wg.Add(2)
	}
	go ep.writeLoop()
	go ep.readLoop()
	if watch {
		go ep.stallWatch()
	}
	return ep
}

// supervise owns the epoch lifecycle: wait for the current epoch to die,
// reclaim its outstanding work, and either reconnect (policy allowing) or
// fail the conn permanently.
func (c *conn) supervise(ep *epoch) {
	defer c.wg.Done()
	for {
		select {
		case <-ep.dead:
		case <-c.dead:
			ep.fail(c.sticky())
		}
		ep.wg.Wait()
		if c.isDead() {
			return
		}
		err := ep.error()
		if !c.policy.Reconnect || !retryable(err) {
			c.fail(err)
			return
		}
		resub := ep.collect()
		nc, derr := c.redial()
		if derr != nil {
			c.fail(derr)
			return
		}
		c.reconnects.Add(1)
		ep = c.newEpoch(nc, resub)
	}
}

// collect reclaims every slot the dead epoch owed a reply (oldest first —
// its loops have exited, so the queue is quiescent), then everything the
// writer never picked up from sendq. The order is the submission order:
// the reader's orphan (if any) predates all of inflight, inflight is FIFO,
// sendq is FIFO, and nothing in sendq can predate anything in inflight.
func (ep *epoch) collect() []uint32 {
	out := make([]uint32, 0, ep.c.window)
	if ep.orphan >= 0 {
		out = append(out, uint32(ep.orphan))
	}
	for {
		select {
		case s := <-ep.inflight:
			out = append(out, s)
			continue
		default:
		}
		break
	}
	for {
		select {
		case s := <-ep.c.sendq:
			out = append(out, s)
			continue
		default:
		}
		break
	}
	return out
}

// redial dials the server with capped jittered exponential backoff. The
// sleep aborts promptly when the conn dies (close during backoff).
func (c *conn) redial() (net.Conn, error) {
	backoff := c.policy.BackoffBase
	var lastErr error
	for attempt := 1; attempt <= c.policy.MaxDialAttempts; attempt++ {
		if !c.pause(jitter(backoff)) {
			return nil, c.sticky()
		}
		nc, err := c.dial(c.addr)
		if err == nil {
			return nc, nil
		}
		lastErr = err
		if backoff *= 2; backoff > c.policy.BackoffMax {
			backoff = c.policy.BackoffMax
		}
	}
	return nil, classed(ClassTransport, fmt.Errorf(
		"server: reconnect to %s failed after %d attempts: %w",
		c.addr, c.policy.MaxDialAttempts, lastErr))
}

// pause sleeps d, returning false the moment the conn dies instead —
// Close during a backoff sleep must not wait the sleep out.
func (c *conn) pause(d time.Duration) bool {
	if d <= 0 {
		return !c.isDead()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-c.dead:
		return false
	}
}

// rttStageNames maps a conn.rtt index to its stage label (see stageOf).
var rttStageNames = [numStages]string{
	"rtt_ingest", "rtt_ingest_batch", "rtt_subscribe", "rtt_snapshot",
	"rtt_evict", "rtt_flush", "rtt_migrate", "rtt_handoff", "rtt_streams",
	"rtt_last_drift",
}

// latency appends the conn's client-observed round-trip-time histograms,
// one stage per request kind actually issued (rtt_ingest,
// rtt_ingest_batch, ...), to out (see Client.Latency).
func (c *conn) latency(out []telemetry.Stage) []telemetry.Stage {
	for i := range c.rtt {
		if st := c.rtt[i].Load(rttStageNames[i]); st.Count > 0 {
			out = append(out, st)
		}
	}
	return out
}

// isDead reports whether the conn has permanently failed (close, or a
// failure its RetryPolicy does not absorb). A conn mid-reconnect is not
// dead — callers park and their requests resume on the next connection.
func (c *conn) isDead() bool {
	select {
	case <-c.dead:
		return true
	default:
		return false
	}
}

// close fails the pipeline with ErrClientClosed (first error wins: a conn
// that already died permanently keeps reporting that), closes the
// connection, aborts any reconnect backoff in progress, and waits for the
// supervisor and epoch loops to exit. It is idempotent and safe to call
// concurrently with in-flight requests — those requests' callers all
// receive an error, never a hang.
func (c *conn) close() {
	c.fail(errClosedClassed)
	c.wg.Wait()
}

// fail records the first permanent error, marks the conn dead, and kills
// the current epoch (closing its socket) so goroutines parked in Read/Write
// error out.
func (c *conn) fail(err error) {
	c.errMu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.errMu.Unlock()
	c.deadOnce.Do(func() { close(c.dead) })
	c.epMu.Lock()
	if c.ep != nil {
		c.ep.fail(err)
	}
	c.epMu.Unlock()
}

// sticky returns the error that killed the conn.
func (c *conn) sticky() error {
	c.errMu.Lock()
	defer c.errMu.Unlock()
	return c.err
}

// fail records the epoch's first error, marks it dead, and closes its
// socket so its loops error out of blocking reads and writes. The
// supervisor decides what the death means for the conn.
func (ep *epoch) fail(err error) {
	ep.errMu.Lock()
	if ep.err == nil {
		ep.err = err
	}
	ep.errMu.Unlock()
	ep.once.Do(func() { close(ep.dead) })
	ep.nc.Close()
}

func (ep *epoch) error() error {
	ep.errMu.Lock()
	defer ep.errMu.Unlock()
	return ep.err
}

// acquire claims a free slot, parking when the full window is in flight.
func (c *conn) acquire() (uint32, error) {
	select {
	case slot := <-c.free:
		return slot, nil
	case <-c.dead:
		return 0, c.sticky()
	}
}

// beginCall starts building the request frame in a claimed slot and returns
// the buffer to append operands to.
func (c *conn) beginCall(slot uint32, kind uint8) *codec.Buffer {
	cl := &c.calls[slot]
	for cl.writing.Load() {
		runtime.Gosched() // the previous occupant's write call is returning
	}
	cl.frame.Reset()
	cl.fate.Store(fatePending)
	cl.stage = int8(stageOf(kind, 0))
	cl.mark = cl.frame.BeginFrame(kind)
	cl.frame.U64(uint64(cl.gen)<<32 | uint64(slot))
	return &cl.frame
}

// submit seals the slot's frame and hands it to the writer. The send never
// blocks: sendq's capacity is the window and a slot is in at most one of
// free/sendq/inflight at a time.
func (c *conn) submit(slot uint32) {
	cl := &c.calls[slot]
	cl.frame.EndFrame(cl.mark)
	cl.sentNS = telemetry.Now()
	c.sendq <- slot
}

// await parks until the slot's reply arrives or the conn dies, bounded by
// the policy's RequestTimeout. On death a reply that had already landed
// still wins — the call genuinely completed.
func (c *conn) await(slot uint32) (*call, error) {
	return c.awaitTimeout(slot, c.policy.RequestTimeout)
}

func (c *conn) awaitTimeout(slot uint32, timeout time.Duration) (*call, error) {
	cl := &c.calls[slot]
	var expire <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		expire = t.C
	}
	select {
	case <-cl.done:
		return cl, nil
	case <-c.dead:
		select {
		case <-cl.done:
			return cl, nil
		default:
			// The slot is deliberately not recycled: the conn is dead and
			// the reader may still be about to write into it.
			return nil, c.sticky()
		}
	case <-expire:
		// Abandon the call: whichever side wins the fate CAS owns the slot.
		// The request is not cancelled — its reply, whenever it lands (this
		// connection or a reconnect's resend), recycles the slot.
		if cl.fate.CompareAndSwap(fatePending, fateAbandoned) {
			return nil, errDeadlineClassed
		}
		<-cl.done // reply raced the timer and won; consume it
		return cl, nil
	}
}

// release returns a consumed slot to the free list, bumping its generation
// so a stale reply addressed to the previous occupant can never match.
func (c *conn) release(slot uint32) {
	c.calls[slot].gen++
	c.free <- slot
}

// writeLoop drains the send queue and writes frames to the socket, batching
// whatever is queued into a single vector write (writev) so W pipelined
// requests cost ~1 syscall instead of W. A slot is registered in `inflight`
// before its bytes can reach the wire, so by the time the server's reply
// arrives the reader is guaranteed to find the owner at the head of the
// queue. A reconnect epoch resubmits the previous epoch's outstanding
// slots before consuming anything new.
func (ep *epoch) writeLoop() {
	defer ep.wg.Done()
	c := ep.c
	// bufs is the master backing array; wv (the net.Buffers WriteTo consumes
	// and advances) is a copy of its header, so the master keeps its
	// capacity across rounds. wv lives outside the loop because WriteTo's
	// pointer receiver makes it escape — one heap cell for the goroutine's
	// lifetime instead of one allocation per vector write.
	bufs := make(net.Buffers, 0, c.window)
	slots := make([]uint32, 0, c.window)
	var wv net.Buffers
	add := func(slot uint32) {
		ep.inflight <- slot
		cl := &c.calls[slot]
		cl.writing.Store(true)
		bufs = append(bufs, cl.frame.Bytes())
		slots = append(slots, slot)
	}
	if len(ep.resub) > 0 {
		for _, slot := range ep.resub {
			add(slot)
		}
		if !ep.writeVec(&wv, bufs, slots) {
			return
		}
	}
	for {
		var slot uint32
		select {
		case slot = <-c.sendq:
		case <-ep.dead:
			return
		}
		bufs, slots = bufs[:0], slots[:0]
		add(slot)
	coalesce:
		for len(bufs) < c.window {
			select {
			case s := <-c.sendq:
				add(s)
			default:
				break coalesce
			}
		}
		if !ep.writeVec(&wv, bufs, slots) {
			return
		}
	}
}

// writeVec writes bufs, the frames of slots, and then releases the slots'
// writing flags — on failure too, since the bytes are no longer read.
func (ep *epoch) writeVec(wv *net.Buffers, bufs net.Buffers, slots []uint32) bool {
	var err error
	if len(bufs) == 1 {
		_, err = ep.nc.Write(bufs[0])
	} else {
		*wv = bufs
		_, err = wv.WriteTo(ep.nc)
	}
	for _, slot := range slots {
		ep.c.calls[slot].writing.Store(false)
	}
	if err != nil {
		ep.fail(classed(ClassTransport, fmt.Errorf("server: write: %w", err)))
		return false
	}
	return true
}

// readLoop matches replies to in-flight slots. The server replies strictly
// in request order per connection, so the oldest registered slot owns the
// next reply; the echoed id (gen<<32|slot) is verified against the slot's
// current occupant, making a mismatched, stale, or unsolicited reply a
// connection-fatal protocol error rather than silent corruption. (With
// Reconnect set, "connection-fatal" means a reconnect: a poisoned stream —
// e.g. the second reply to a frame a middlebox duplicated — is abandoned
// with the socket, and the resent requests dedup server-side.)
func (ep *epoch) readLoop() {
	defer ep.wg.Done()
	c := ep.c
	sc := codec.NewFrameScanner(ep.nc)
	var rd codec.Reader
	for {
		kind, body, err := sc.Next()
		if err != nil {
			ep.fail(classifyRead(err))
			return
		}
		var slot uint32
		select {
		case slot = <-ep.inflight:
		default:
			ep.fail(classed(ClassProtocol, errors.New("server: unsolicited reply with no request in flight")))
			return
		}
		cl := &c.calls[slot]
		rd.Reset(body)
		id := rd.U64()
		if rd.Err() != nil {
			// The dequeued slot is still owed a reply — park it as the
			// epoch's orphan so collect resubmits it ahead of inflight.
			ep.orphan = int64(slot)
			ep.fail(classed(ClassProtocol, fmt.Errorf("server: bad reply frame: %v", rd.Err())))
			return
		}
		if want := uint64(cl.gen)<<32 | uint64(slot); id != want {
			ep.orphan = int64(slot)
			ep.fail(classed(ClassProtocol, fmt.Errorf("server: reply id %#x does not match in-flight request %#x", id, want)))
			return
		}
		c.acked.Add(1)
		if cl.stage >= 0 {
			c.rtt[cl.stage].Observe(telemetry.Now() - cl.sentNS)
		}
		if ack := cl.ack; ack != nil {
			// Ack-only request: interpret the reply here, recycle the slot
			// now (eager window release — see pendingAck), then deliver.
			cl.ack = nil
			err := ackErrWire(kind, body[8:])
			c.release(slot)
			ack.err <- err
			continue
		}
		// Copy the reply payload out of the scanner's reused buffer before
		// the next Next() overwrites it. OK/Busy replies carry nothing, so
		// the hot path copies zero bytes.
		cl.replyKind = kind
		cl.msg = append(cl.msg[:0], body[8:]...)
		if cl.fate.CompareAndSwap(fatePending, fateReplied) {
			cl.done <- struct{}{}
		} else {
			// The awaiting caller abandoned the call at its deadline; the
			// reply is consumed here and the slot recycled.
			c.release(slot)
		}
	}
}

// classifyRead maps a reader failure to its class: a clean EOF at a frame
// boundary is the server draining gracefully; a mid-frame cut is a crashed
// transport (callers can test errors.Is(err, io.ErrUnexpectedEOF)); other
// corruption is a protocol failure — also cleared by a reconnect, since a
// fresh connection abandons the poisoned stream.
func classifyRead(err error) error {
	if err == io.EOF {
		return classed(ClassTransport, ErrServerDrain)
	}
	if errors.Is(err, io.ErrUnexpectedEOF) {
		return classed(ClassTransport, fmt.Errorf("server: reading reply: %w", err))
	}
	return classed(ClassProtocol, fmt.Errorf("server: reading reply: %w", err))
}

// stallWatch kills an epoch whose connection stopped making progress with
// requests outstanding — the black-holed connection, which neither read nor
// write errors ever surface. Progress is replies matched (c.acked); an
// empty pipeline never stalls. The kill is an ordinary transport failure,
// so a Reconnect policy redials and resends.
func (ep *epoch) stallWatch() {
	defer ep.wg.Done()
	c := ep.c
	interval := c.policy.StallTimeout / 8
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	last := c.acked.Load()
	var stalled time.Duration
	for {
		select {
		case <-ep.dead:
			return
		case <-t.C:
		}
		if a := c.acked.Load(); a != last || len(ep.inflight) == 0 {
			last = a
			stalled = 0
			continue
		}
		stalled += interval
		if stalled >= c.policy.StallTimeout {
			ep.fail(classed(ClassTransport, fmt.Errorf(
				"server: connection stalled: no reply in %v with requests in flight",
				c.policy.StallTimeout)))
			return
		}
	}
}

// Pending is the handle of an asynchronous request (IngestAsync /
// IngestBatchAsync): the request is on the wire (or queued behind the
// window); Wait parks until its ack. The window slot is released by the
// reader the moment the reply lands — a Pending that has not been waited
// yet never blocks other requests. Wait must still be called exactly once
// per Pending (it consumes the ack and recycles its cell). The zero
// Pending is invalid.
type Pending struct {
	c   *conn
	ack *pendingAck
}

// Wait blocks until the request's reply arrives and returns the ack error
// (nil for OK, ErrBusy for an overload shed, the server's message for
// Error, the sticky conn error if its connection died permanently). When
// the client's RetryPolicy sets RequestTimeout, Wait is bounded by it.
func (p Pending) Wait() error {
	var timeout time.Duration
	if p.c != nil {
		timeout = p.c.policy.RequestTimeout
	}
	return p.waitTimeout(timeout)
}

// WaitTimeout is Wait bounded by d (overriding the policy's
// RequestTimeout); d <= 0 waits indefinitely. Past the bound it returns
// ErrDeadlineExceeded and abandons the ack — the request is NOT cancelled:
// the server may still apply it, and a reconnect may still resend it, with
// the session/seq window keeping the eventual commit exactly-once. An
// abandoned Pending must not be waited again.
func (p Pending) WaitTimeout(d time.Duration) error { return p.waitTimeout(d) }

// WaitDeadline is WaitTimeout against an absolute deadline. A deadline
// already in the past still wins an ack that has landed; otherwise it
// returns ErrDeadlineExceeded without parking.
func (p Pending) WaitDeadline(t time.Time) error {
	if p.c == nil || p.ack == nil {
		return errors.New("server: Wait on zero Pending")
	}
	d := time.Until(t)
	if d <= 0 {
		select {
		case err := <-p.ack.err:
			ackPool.Put(p.ack)
			return err
		default:
			return errDeadlineClassed
		}
	}
	return p.waitTimeout(d)
}

func (p Pending) waitTimeout(timeout time.Duration) error {
	if p.c == nil || p.ack == nil {
		return errors.New("server: Wait on zero Pending")
	}
	var expire <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		expire = t.C
	}
	select {
	case err := <-p.ack.err:
		ackPool.Put(p.ack)
		return err
	case <-p.c.dead:
		// An ack that had already landed still wins — the call genuinely
		// completed.
		select {
		case err := <-p.ack.err:
			ackPool.Put(p.ack)
			return err
		default:
			// The reader died before resolving this ack. The cell is
			// abandoned rather than pooled: the reader may have been
			// mid-delivery when it was killed.
			return p.c.sticky()
		}
	case <-expire:
		select {
		case err := <-p.ack.err:
			ackPool.Put(p.ack)
			return err
		default:
			// Abandoned, not pooled: the reader will still deliver into the
			// cell when the reply lands; nobody collects it.
			return errDeadlineClassed
		}
	}
}

// asyncAck attaches a pooled ack cell to a claimed slot (before submit, so
// the reader cannot race it) and returns the caller's Pending handle.
func (c *conn) asyncAck(slot uint32) Pending {
	ack := ackPool.Get().(*pendingAck)
	c.calls[slot].ack = ack
	return Pending{c: c, ack: ack}
}

// ackErr interprets a parked reply for a request that expects a bare OK.
func (c *conn) ackErr(cl *call) error {
	return ackErrWire(cl.replyKind, cl.msg)
}

// ackErrWire interprets a bare-OK reply straight from the wire: nil for OK,
// ErrBusy for an overload shed, the server's message for Error. Allocates
// only on the Error path.
func ackErrWire(kind uint8, payload []byte) error {
	switch kind {
	case codec.KindWireOK:
		return nil
	case codec.KindWireBusy:
		return errBusyClassed
	case codec.KindWireError:
		var rd codec.Reader
		rd.Reset(payload)
		msg := rd.Blob()
		if rd.Err() != nil {
			return rd.Err()
		}
		return fmt.Errorf("server: %s", msg)
	default:
		return fmt.Errorf("server: unexpected reply kind %d", kind)
	}
}

// maxUint64 raises a to at least v (atomic high-water mark).
func maxUint64(a *atomic.Uint64, v uint64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}
