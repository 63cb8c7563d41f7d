package server

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	mrand "math/rand"
	"sync"
	"time"
)

// Failure taxonomy and retry policy for the reconnecting client.
//
// Every error the client surfaces carries a class, because the right
// reaction differs per class and only the client knows which one it saw:
//
//   - transport (dial/read/write failures, stalls, the server draining):
//     retryable by reconnecting — the request may or may not have been
//     applied, which is exactly what the exactly-once session/seq layer
//     (see dedup.go) makes safe to resend;
//   - protocol (framing corruption, reply id mismatches, unsolicited
//     replies): also cleared by a reconnect — a fresh connection abandons
//     the poisoned stream (e.g. the second reply to a duplicated frame)
//     and the resent requests dedup server-side;
//   - Busy (overload shed): the connection is healthy, the server is not;
//     retryable after a backoff, with the same seq;
//   - app (the server's Error reply, local misuse): resending the same
//     request reproduces the same failure — never retried;
//   - closed / deadline: the caller's own doing; never retried.

// ErrBusy is the error a Busy reply resolves to on the blocking ingest
// paths: the server is shedding load (Config.ShedHighWater). Retryable
// after a backoff; Client.IngestBatch (and Ingest, a block of one) retries
// it itself up to RetryPolicy.BusyAttempts.
var ErrBusy = errors.New("server: busy (overload shed)")

// ErrDeadlineExceeded is returned when a request's deadline
// (RetryPolicy.RequestTimeout, Pending.WaitTimeout/WaitDeadline) expires
// before its reply. The request itself is not cancelled — the server may
// still apply it; a later retry of the same seq dedups.
var ErrDeadlineExceeded = errors.New("server: request deadline exceeded")

// ErrServerDrain marks a connection the server closed cleanly at a frame
// boundary — a graceful drain (shutdown, restart), as opposed to a cut
// connection, which surfaces as an error satisfying
// errors.Is(err, io.ErrUnexpectedEOF).
var ErrServerDrain = errors.New("server: connection closed by server (clean end of stream)")

// ErrorClass is the retry-relevant classification of a client error; see
// Classify and the taxonomy above.
type ErrorClass uint8

const (
	// ClassApp is a request the server (or the local call) rejected on its
	// merits; retrying reproduces the failure.
	ClassApp ErrorClass = iota
	// ClassTransport is a connection-level failure (dial, read, write,
	// stall, server drain); retryable by reconnecting.
	ClassTransport
	// ClassProtocol is framing or reply-matching corruption; retryable by
	// reconnecting (the fresh connection abandons the poisoned stream).
	ClassProtocol
	// ClassBusy is the server shedding load; retryable after a backoff.
	ClassBusy
	// ClassClosed is the client's own Close; never retried.
	ClassClosed
	// ClassDeadline is the caller's expired deadline; never retried.
	ClassDeadline
)

// classedError attaches an ErrorClass to an error; errors.Is/As reach the
// wrapped cause through Unwrap.
type classedError struct {
	class ErrorClass
	err   error
}

func (e *classedError) Error() string { return e.err.Error() }
func (e *classedError) Unwrap() error { return e.err }

func classed(class ErrorClass, err error) error { return &classedError{class, err} }

// Singletons for the hot failure paths, so classifying costs no allocation.
var (
	errBusyClassed     = classed(ClassBusy, ErrBusy)
	errClosedClassed   = classed(ClassClosed, ErrClientClosed)
	errDeadlineClassed = classed(ClassDeadline, ErrDeadlineExceeded)
)

// Classify returns the retry-relevant class of an error returned by Client,
// Pending, or Subscription methods. Unrecognized errors
// classify as ClassApp (not retryable) — the conservative default.
func Classify(err error) ErrorClass {
	var ce *classedError
	if errors.As(err, &ce) {
		return ce.class
	}
	switch {
	case errors.Is(err, ErrClientClosed):
		return ClassClosed
	case errors.Is(err, ErrBusy):
		return ClassBusy
	case errors.Is(err, ErrDeadlineExceeded):
		return ClassDeadline
	}
	return ClassApp
}

// retryable reports whether an epoch death with this error is worth a
// reconnect (see RetryPolicy.Reconnect).
func retryable(err error) bool {
	switch Classify(err) {
	case ClassTransport, ClassProtocol, ClassBusy:
		return true
	}
	return false
}

// RetryPolicy configures how each of a Client's connections survives
// failure (ClientConfig.Retry). The zero value disables every mechanism: a
// dead connection fails permanently (the pre-retry behavior), Busy surfaces
// immediately, requests wait forever. DefaultRetryPolicy is the production
// shape.
type RetryPolicy struct {
	// Reconnect enables transparent recovery from transport and protocol
	// failures: the failed connection is torn down, a fresh one dialed with
	// exponential backoff, and every request that was in flight or queued
	// is resent in order — exactly once server-side, via the session/seq
	// dedup window.
	Reconnect bool
	// MaxDialAttempts bounds the redials of one outage; past it the client
	// permanently fails with the last dial error. Default 8.
	MaxDialAttempts int
	// BackoffBase is the first reconnect delay; each attempt doubles it up
	// to BackoffMax, and every delay is jittered to 0.5–1.5x so a fleet of
	// clients does not reconnect in lockstep. Defaults 20ms and 2s.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// BusyAttempts is how many times the blocking ingest paths resend a
	// Busy-shed request (with the same seq) before surfacing ErrBusy; the
	// delay starts at BusyBackoff (default 2ms) and doubles up to
	// BackoffMax. 0 surfaces the first Busy.
	BusyAttempts int
	BusyBackoff  time.Duration
	// RequestTimeout bounds every synchronous call and Pending.Wait; past
	// it the call returns ErrDeadlineExceeded (the request is abandoned,
	// not cancelled — see Pending.WaitTimeout). 0 waits forever.
	RequestTimeout time.Duration
	// StallTimeout kills a connection that has requests in flight but has
	// not delivered a reply for this long — the black-holed connection
	// case, which neither read nor write errors ever surface. The kill is
	// an ordinary transport failure: with Reconnect set the client redials
	// and resends. 0 disables the watchdog.
	StallTimeout time.Duration
}

// DefaultRetryPolicy returns the production retry shape: reconnect with
// capped jittered exponential backoff, Busy retries, and a stall watchdog.
// Request timeouts stay opt-in.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		Reconnect:       true,
		MaxDialAttempts: 8,
		BackoffBase:     20 * time.Millisecond,
		BackoffMax:      2 * time.Second,
		BusyAttempts:    8,
		BusyBackoff:     2 * time.Millisecond,
		StallTimeout:    30 * time.Second,
	}
}

// withDefaults fills the backoff-shape fields every mechanism shares.
// Enablement fields (Reconnect, BusyAttempts, RequestTimeout, StallTimeout)
// keep their zero = off semantics.
func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxDialAttempts <= 0 {
		p.MaxDialAttempts = 8
	}
	if p.BackoffBase <= 0 {
		p.BackoffBase = 20 * time.Millisecond
	}
	if p.BackoffMax <= 0 {
		p.BackoffMax = 2 * time.Second
	}
	if p.BackoffMax < p.BackoffBase {
		p.BackoffMax = p.BackoffBase
	}
	if p.BusyBackoff <= 0 {
		p.BusyBackoff = 2 * time.Millisecond
	}
	return p
}

// jitter spreads d to a uniform 0.5–1.5x, decorrelating retry schedules
// across clients. math/rand's global source is locked and good enough —
// this runs once per backoff sleep, not per request.
func jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	return d/2 + time.Duration(mrand.Int63n(int64(d)))
}

// newSessionID mints the client's nonzero random session id — its identity
// in the server's exactly-once dedup window. Collisions across clients
// would merge their windows; 64 random bits make that a non-concern at any
// realistic session count.
func newSessionID() uint64 {
	var b [8]byte
	for {
		if _, err := rand.Read(b[:]); err != nil {
			return uint64(time.Now().UnixNano()) | 1
		}
		if id := binary.LittleEndian.Uint64(b[:]); id != 0 {
			return id
		}
	}
}

// seqTable assigns each stream's monotone per-stream sequence numbers (the
// other half of the exactly-once identity). One table serves a Client's
// every member and connection, so a failover resend reuses the original
// seq. The hot path is
// a mutex-guarded map increment: no allocation after a stream's first
// request, and contention is trivial next to the frame encode around it.
type seqTable struct {
	mu sync.Mutex
	m  map[string]uint64
}

func newSeqTable() *seqTable { return &seqTable{m: make(map[string]uint64)} }

func (t *seqTable) next(streamID string) uint64 {
	t.mu.Lock()
	t.m[streamID]++
	v := t.m[streamID]
	t.mu.Unlock()
	return v
}
