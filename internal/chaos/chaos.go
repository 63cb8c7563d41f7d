// Package chaos is a fault-injecting TCP proxy for driftserver's wire
// protocol: it sits between a client and a server and drops, delays,
// duplicates, fragments, resets, or black-holes traffic on a seeded,
// reproducible schedule. It exists to prove the resilience claims the
// client makes — reconnect with backoff, exactly-once ingest under resend,
// stall detection — against the failure modes real networks actually
// produce, inside ordinary `go test` (see the chaos battery in
// internal/server and the -chaos flags on cmd/monitorbench).
//
// The client→server direction is frame-aware: the proxy reassembles codec
// frames and applies faults per frame, so a "drop" loses exactly one
// request (forcing a reply-stream misalignment the client must detect as a
// protocol violation) and a "duplicate" delivers exactly one extra
// (forcing the server's dedup window to prove itself). The server→client
// direction is a plain byte pipe — reply-side faults are covered by the
// same reconnect path, and resets cut both directions anyway. Fault
// schedules are derived from Config.Seed and the connection's accept
// index, so a failed run replays exactly.
package chaos

import (
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"rbmim/internal/codec"
)

// Config selects the faults. The zero value of every fault field is "off":
// a zero Config (plus Target) is a transparent proxy.
type Config struct {
	// Target is the upstream server address ("host:port"). Required.
	Target string
	// Addr is the listen address; empty selects an ephemeral localhost port
	// (read it back from Proxy.Addr).
	Addr string
	// Seed roots every connection's fault schedule. Connection i draws from
	// rand.NewSource(Seed + i*1_000_003), so schedules are independent per
	// connection and the whole run replays from the seed.
	Seed int64
	// Delay pauses that long before forwarding each client frame upstream —
	// added latency, applied after the drop/duplicate decision.
	Delay time.Duration
	// DropRate is the probability a client frame is silently discarded.
	DropRate float64
	// DuplicateRate is the probability a client frame is delivered twice
	// back to back.
	DuplicateRate float64
	// ResetEvery, when > 0, hard-resets each connection (SO_LINGER 0, so the
	// peer sees RST, not FIN) after a number of forwarded frames drawn
	// uniformly from [1, 2*ResetEvery) — mean ResetEvery.
	ResetEvery int
	// BlackholeRate is the probability a connection is black-holed at
	// accept: bytes in both directions are consumed and discarded, the
	// connection stays open, and neither side sees an error — the failure
	// only a stall watchdog can detect.
	BlackholeRate float64
	// FragmentSize, when > 0, splits each forwarded frame into writes of at
	// most that many bytes with the proxy's buffers flushed between them —
	// exercising the server's short-read reassembly.
	FragmentSize int
}

// Stats are cumulative fault counters, all connections combined.
type Stats struct {
	Conns      uint64 // connections accepted
	Frames     uint64 // client frames forwarded (including duplicates)
	Dropped    uint64 // client frames discarded
	Duplicated uint64 // client frames delivered twice
	Resets     uint64 // connections hard-reset
	Blackholed uint64 // connections black-holed at accept
}

// Proxy is a running fault injector; see New.
type Proxy struct {
	cfg Config
	ln  net.Listener

	conns      atomic.Uint64
	frames     atomic.Uint64
	dropped    atomic.Uint64
	duplicated atomic.Uint64
	resets     atomic.Uint64
	blackholed atomic.Uint64

	mu     sync.Mutex
	closed bool
	open   map[net.Conn]struct{}

	wg sync.WaitGroup
}

// New starts a proxy listening on cfg.Addr and forwarding to cfg.Target
// with cfg's faults applied. Close stops it.
func New(cfg Config) (*Proxy, error) {
	addr := cfg.Addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	p := &Proxy{cfg: cfg, ln: ln, open: make(map[net.Conn]struct{})}
	p.wg.Add(1)
	go p.accept()
	return p, nil
}

// Addr returns the proxy's listen address — what clients dial.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// Stats returns a snapshot of the fault counters.
func (p *Proxy) Stats() Stats {
	return Stats{
		Conns:      p.conns.Load(),
		Frames:     p.frames.Load(),
		Dropped:    p.dropped.Load(),
		Duplicated: p.duplicated.Load(),
		Resets:     p.resets.Load(),
		Blackholed: p.blackholed.Load(),
	}
}

// Close stops accepting, severs every proxied connection, and waits for the
// forwarding goroutines to exit.
func (p *Proxy) Close() error {
	p.mu.Lock()
	p.closed = true
	for nc := range p.open {
		nc.Close()
	}
	p.mu.Unlock()
	err := p.ln.Close()
	p.wg.Wait()
	return err
}

// track registers a live connection for Close, returning false (and closing
// it) when the proxy is already shut down.
func (p *Proxy) track(nc net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		nc.Close()
		return false
	}
	p.open[nc] = struct{}{}
	return true
}

func (p *Proxy) untrack(nc net.Conn) {
	nc.Close()
	p.mu.Lock()
	delete(p.open, nc)
	p.mu.Unlock()
}

func (p *Proxy) accept() {
	defer p.wg.Done()
	for {
		cli, err := p.ln.Accept()
		if err != nil {
			return
		}
		idx := p.conns.Add(1) - 1
		if !p.track(cli) {
			continue
		}
		p.wg.Add(1)
		go p.serve(cli, int64(idx))
	}
}

// serve proxies one client connection: dial upstream, pump server→client
// verbatim, pump client→server frame by frame with faults.
func (p *Proxy) serve(cli net.Conn, idx int64) {
	defer p.wg.Done()
	defer p.untrack(cli)
	rng := rand.New(rand.NewSource(p.cfg.Seed + idx*1_000_003))

	if p.cfg.BlackholeRate > 0 && rng.Float64() < p.cfg.BlackholeRate {
		p.blackholed.Add(1)
		// Swallow everything until the client gives up; never error, never
		// deliver. No upstream connection exists at all.
		io.Copy(io.Discard, cli)
		return
	}

	srv, err := net.Dial("tcp", p.cfg.Target)
	if err != nil {
		return
	}
	if !p.track(srv) {
		return
	}
	defer p.untrack(srv)

	// Replies flow back untouched; when the server side ends, cut the
	// client side too so its reader sees the close promptly.
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		io.Copy(cli, srv)
		cli.Close()
	}()

	resetAt := 0
	if p.cfg.ResetEvery > 0 {
		resetAt = 1 + rng.Intn(2*p.cfg.ResetEvery)
	}

	sc := codec.NewFrameScanner(cli)
	var buf []byte
	forwarded := 0
	for {
		kind, payload, err := sc.Next()
		if err != nil {
			return
		}
		if p.cfg.DropRate > 0 && rng.Float64() < p.cfg.DropRate {
			p.dropped.Add(1)
			continue
		}
		if p.cfg.Delay > 0 {
			time.Sleep(p.cfg.Delay)
		}
		buf = codec.AppendFrame(buf[:0], kind, payload)
		writes := 1
		if p.cfg.DuplicateRate > 0 && rng.Float64() < p.cfg.DuplicateRate {
			p.duplicated.Add(1)
			writes = 2
		}
		for ; writes > 0; writes-- {
			// Count the frame before writing it: once it is written, the
			// backend's reply can reach the client, and a Stats call after
			// it, before this goroutine runs on. A failed write takes the
			// count back.
			p.frames.Add(1)
			if !p.writeFrame(srv, buf) {
				p.frames.Add(^uint64(0))
				return
			}
			forwarded++
		}
		if resetAt > 0 && forwarded >= resetAt {
			p.reset(cli, srv)
			return
		}
	}
}

// writeFrame forwards one reconstructed frame, fragmented when configured.
func (p *Proxy) writeFrame(srv net.Conn, frame []byte) bool {
	if p.cfg.FragmentSize <= 0 {
		_, err := srv.Write(frame)
		return err == nil
	}
	for len(frame) > 0 {
		n := p.cfg.FragmentSize
		if n > len(frame) {
			n = len(frame)
		}
		if _, err := srv.Write(frame[:n]); err != nil {
			return false
		}
		frame = frame[n:]
	}
	return true
}

// reset kills both sides hard: SO_LINGER 0 makes the close an RST, so the
// client sees a mid-stream connection reset rather than a clean FIN.
func (p *Proxy) reset(cli, srv net.Conn) {
	p.resets.Add(1)
	if tc, ok := cli.(*net.TCPConn); ok {
		tc.SetLinger(0)
	}
	cli.Close()
	srv.Close()
}
