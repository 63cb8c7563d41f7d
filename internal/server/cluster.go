package server

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"rbmim/internal/detectors"
	"rbmim/internal/monitor"
)

// Member routing, sync failover and stream migration for Client.
//
// A client-side consistent-hash ring maps every stream ID to one member
// (driftserver), and each member is driven through its own set of
// pipelined connections, so the whole single-node stack — pipelining,
// exactly-once sequence dedup, reconnect with resend, shedding-aware Busy
// retry — composes per node. There is no proxy tier and no coordination
// service: the ring is a pure function of (member list, stream ID), so any
// number of Clients over the same member list route identically (see
// DESIGN.md, "Cluster routing").
//
// The ring hashes virtualNodes points per member (monitor.Hash64 over
// "addr#i"), which keeps the load spread even with few members and — the
// consistent-hashing invariant — makes a topology change remap only ~K/n of
// K streams across n members. Jump hash, which places monitor shards and
// picks a member's connection, is not used for members: it only supports
// removing the highest-numbered bucket, and a fleet must survive any member
// leaving.
//
// Stream migration (Migrate, and Rebalance's bulk form) moves a live
// stream's trained detector between members via the checkpoint codec: the
// source server applies everything pipelined ahead, serializes the detector
// into the same envelope frame its checkpoint store holds, spills a copy,
// and removes the stream; the client installs the frame on the target. The
// restored stream continues bit-identically to never having moved. During
// the transfer the stream's requests are excluded by a striped gate (its
// stripe's write lock); afterwards an override pins routing to the target
// until the ring agrees. Because the export travels the stream's own
// connection behind its pipelined ingests, and resends of an applied export
// re-read the spilled copy, migration keeps the exactly-once story intact
// under reconnects and retries.

const (
	gateStripes = 256
	// virtualNodes is the ring points hashed per member: it keeps the
	// max/mean stream-load ratio within a few percent for small fleets.
	virtualNodes = 64
)

// member is one driftserver's connection set. Streams map to connections
// by the hash the monitor uses for shard placement (monitor.ShardFor), so
// growing the set moves only ~1/n of the streams, and a permanently dead
// connection's streams re-home deterministically to the next live one.
type member struct {
	addr  string
	conns []*conn
}

// dialMember opens the client's per-member connection set to addr, every
// connection sharing the client's exactly-once identity.
func (c *Client) dialMember(addr string) (*member, error) {
	m := &member{addr: addr, conns: make([]*conn, 0, c.conns)}
	for i := 0; i < c.conns; i++ {
		cn, err := dialConn(addr, c.dial, c.window, c.policy, c.session)
		if err != nil {
			m.close()
			return nil, err
		}
		m.conns = append(m.conns, cn)
	}
	return m, nil
}

// pick returns the connection that owns streamID: its home connection by
// consistent hash, or — when the home is permanently dead — the first live
// connection probing forward from it. The probe order is a pure function of
// (stream, set of dead connections), so every goroutine re-homes a stream
// identically and its requests keep traveling one connection, preserving
// per-stream ordering. With every connection dead, the home is returned and
// the call surfaces its sticky error.
func (m *member) pick(streamID string) *conn {
	n := len(m.conns)
	home := monitor.ShardFor(streamID, n)
	for i := 0; i < n; i++ {
		if cn := m.conns[(home+i)%n]; !cn.isDead() {
			return cn
		}
	}
	return m.conns[home]
}

// failover applies the client's failover rule (see Client): a call that
// failed on cn is resent on the stream's re-homed connection when cn is
// permanently dead, the failure is the death rather than the request's own
// doing, and the member has somewhere else to send it.
func (m *member) failover(cn *conn, streamID string, err error) (*conn, bool) {
	if err == nil || !cn.isDead() {
		return nil, false
	}
	switch Classify(err) {
	case ClassTransport, ClassProtocol, ClassClosed:
		// ClassClosed from a dead connection of a live client is its sticky
		// error surfacing; a client-wide Close leaves no live conn to probe.
	default:
		return nil, false
	}
	next := m.pick(streamID)
	if next == cn || next.isDead() {
		return nil, false
	}
	return next, true
}

func (m *member) ingestBatch(streamID string, obs []detectors.Observation, seq uint64) error {
	cn := m.pick(streamID)
	err := cn.ingestBatchSeq(streamID, obs, seq)
	if next, ok := m.failover(cn, streamID, err); ok {
		err = next.ingestBatchSeq(streamID, obs, seq)
	}
	return err
}

// migrate exports a stream over its own connection, behind its pipelined
// requests. A resend after a connection death re-exports from the server's
// checkpoint store (exports spill first), so it returns the same bytes.
func (m *member) migrate(streamID string) ([]byte, error) {
	cn := m.pick(streamID)
	state, err := cn.migrate(streamID)
	if next, ok := m.failover(cn, streamID, err); ok {
		state, err = next.migrate(streamID)
	}
	return state, err
}

// handoff installs a stream's state over its connection. A resend after a
// lost ack is refused with "already resident", which transfer treats as
// success.
func (m *member) handoff(streamID string, state []byte) error {
	cn := m.pick(streamID)
	err := cn.handoff(streamID, state)
	if next, ok := m.failover(cn, streamID, err); ok {
		err = next.handoff(streamID, state)
	}
	return err
}

// flush issues the flush on every live connection, so it is a barrier for
// requests pipelined ahead of it on all of them. Dead connections are
// skipped unless every connection is dead, in which case the first sticky
// error surfaces.
func (m *member) flush() error {
	live := 0
	for _, cn := range m.conns {
		if cn.isDead() {
			continue
		}
		live++
		if err := cn.flush(); err != nil {
			return err
		}
	}
	if live == 0 {
		return m.conns[0].sticky()
	}
	return nil
}

// live returns the first live connection (the first one when all are dead,
// so the call surfaces its sticky error).
func (m *member) live() *conn {
	for _, cn := range m.conns {
		if !cn.isDead() {
			return cn
		}
	}
	return m.conns[0]
}

func (m *member) close() {
	for _, cn := range m.conns {
		cn.close()
	}
}

func dedupAddrs(addrs []string) []string {
	seen := make(map[string]struct{}, len(addrs))
	out := make([]string, 0, len(addrs))
	for _, a := range addrs {
		if _, dup := seen[a]; dup {
			continue
		}
		seen[a] = struct{}{}
		out = append(out, a)
	}
	return out
}

// gate returns the stripe lock guarding streamID's migrations.
func (c *Client) gate(streamID string) *sync.RWMutex {
	return &c.gates[monitor.Hash64(streamID)&(gateStripes-1)]
}

// route resolves streamID to its member: a migration override first
// (ignored if it points at a member that has since left), the ring
// otherwise.
func (c *Client) route(streamID string) (*member, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.routeLocked(streamID)
}

func (c *Client) routeLocked(streamID string) (*member, error) {
	if c.closed {
		return nil, errClosedClassed
	}
	if addr, ok := c.overrides[streamID]; ok {
		if m, ok := c.members[addr]; ok {
			return m, nil
		}
	}
	return c.members[c.ring.owner(streamID)], nil
}

// sortedMembers snapshots the member set in address order, so fleet-wide
// operations iterate deterministically without holding c.mu across network
// calls.
func (c *Client) sortedMembers() (ms []*member, closed bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	ms = make([]*member, 0, len(c.members))
	for _, m := range c.members {
		ms = append(ms, m)
	}
	sort.Slice(ms, func(i, j int) bool { return ms[i].addr < ms[j].addr })
	return ms, c.closed
}

// memberList is sortedMembers for calls that must fail after Close.
func (c *Client) memberList() ([]*member, error) {
	ms, closed := c.sortedMembers()
	if closed {
		return nil, errClosedClassed
	}
	return ms, nil
}

// Owner returns the member address streamID currently routes to.
func (c *Client) Owner(streamID string) (string, error) {
	m, err := c.route(streamID)
	if err != nil {
		return "", err
	}
	return m.addr, nil
}

// Members returns the client's member addresses, sorted.
func (c *Client) Members() []string {
	ms, _ := c.sortedMembers()
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.addr
	}
	return out
}

// Migrations returns how many stream migrations this client has completed.
func (c *Client) Migrations() uint64 { return c.migrations.Load() }

// MemberSnapshot is one member's snapshot, labelled with its address.
type MemberSnapshot struct {
	Addr string
	monitor.Snapshot
}

// MemberSnapshots fetches every member's snapshot, in Members() order.
func (c *Client) MemberSnapshots() ([]MemberSnapshot, error) {
	ms, err := c.memberList()
	if err != nil {
		return nil, err
	}
	out := make([]MemberSnapshot, 0, len(ms))
	for _, m := range ms {
		sn, err := m.live().snapshot()
		if err != nil {
			return nil, fmt.Errorf("server: snapshot %s: %w", m.addr, err)
		}
		out = append(out, MemberSnapshot{Addr: m.addr, Snapshot: sn})
	}
	return out, nil
}

// IsStreamNotFound reports whether err is a Migrate failure for a stream the
// source member neither hosts nor has checkpointed (the server relays
// monitor.ErrStreamNotFound as an Error reply, so the match is textual).
func IsStreamNotFound(err error) bool {
	return err != nil && strings.Contains(err.Error(), "stream not found")
}

// isAlreadyResident matches the target-side refusal of a duplicate Handoff.
// A reconnect can resend a Handoff whose ack was lost after the import
// applied, so under the migration gate (no other writer can have installed
// the stream) this refusal means the handoff succeeded.
func isAlreadyResident(err error) bool {
	return err != nil && strings.Contains(err.Error(), "already resident")
}

// Migrate moves streamID to the target member: export from wherever it
// currently routes, install on the target, repoint routing. The stream's
// requests are held out by its stripe gate for the duration; its pipelined
// requests already in flight are applied first (the export travels the same
// connection, behind them). Moving a stream that has no state anywhere
// (never ingested, or spilled on a member that since left) just repoints
// the routing. Migrating a stream to the member it already routes to is a
// no-op.
//
// On a failed install the source is restored best-effort (hand the state
// back, or rely on the source's checkpoint spill to rehydrate on the next
// ingest) and routing is left unchanged.
func (c *Client) Migrate(streamID, target string) error {
	g := c.gate(streamID)
	g.Lock()
	defer g.Unlock()
	c.mu.RLock()
	src, err := c.routeLocked(streamID)
	dst, ok := c.members[target]
	c.mu.RUnlock()
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("server: migrate %q: %s is not a member", streamID, target)
	}
	if src == dst {
		return nil
	}
	return c.transfer(streamID, src, dst)
}

// transfer is the gate-held export/install/repoint core shared by Migrate
// and Rebalance. The caller holds the stream's stripe write lock.
func (c *Client) transfer(streamID string, src, dst *member) error {
	target := dst.addr
	state, err := src.migrate(streamID)
	if err != nil {
		if IsStreamNotFound(err) {
			c.pin(streamID, target)
			return nil
		}
		return err
	}
	if err := dst.handoff(streamID, state); err != nil && !isAlreadyResident(err) {
		// Put the state back where it came from so the stream keeps its
		// training even without a source-side checkpoint store. A duplicate
		// refusal here means the source still holds it (a resend raced);
		// any other failure leaves the spilled copy as the recovery path.
		if restoreErr := src.handoff(streamID, state); restoreErr != nil && !isAlreadyResident(restoreErr) {
			return fmt.Errorf("server: migrate %q: install on %s failed (%v) and restore failed: %w",
				streamID, target, err, restoreErr)
		}
		return fmt.Errorf("server: migrate %q: install on %s: %w", streamID, target, err)
	}
	c.migrations.Add(1)
	c.pin(streamID, target)
	return nil
}

// pin repoints streamID's routing at target: an override where the ring
// disagrees, nothing where it already agrees.
func (c *Client) pin(streamID, target string) {
	c.mu.Lock()
	if c.ring.owner(streamID) == target {
		delete(c.overrides, streamID)
	} else {
		c.overrides[streamID] = target
	}
	c.mu.Unlock()
}

// Rebalance transitions the fleet to a new member list, migrating only the
// streams the ring remaps (~K/n of K streams for one member joining or
// leaving — the consistent-hashing invariant) and returns how many it
// moved. New members are dialed first; the ring is swapped only after the
// bulk sweep, so requests keep routing to wherever each stream's state
// actually is throughout (each completed migration repoints its own stream
// immediately via override). Members leaving the fleet are drained — swept
// once in bulk and once after the swap for stragglers that first ingested
// mid-sweep — and then closed.
//
// Rebalance runs concurrently with ingest traffic; only each migrating
// stream is briefly excluded by its stripe gate. Concurrent Rebalance calls
// serialize. Observations are never lost or double-applied (the client's
// exactly-once identity spans every member), but a stream whose very first
// observations race the ring swap can split its earliest training across
// two members; the winning copy is the routed one, and the loser's spill
// remains in the old member's store.
func (c *Client) Rebalance(addrs []string) (int, error) {
	if len(addrs) == 0 {
		return 0, fmt.Errorf("server: Rebalance needs at least one address")
	}
	c.rebalanceMu.Lock()
	defer c.rebalanceMu.Unlock()

	addrs = dedupAddrs(addrs)
	next := make(map[string]struct{}, len(addrs))
	for _, a := range addrs {
		next[a] = struct{}{}
	}

	// Dial joiners before touching shared state, so a failed dial aborts
	// with the fleet unchanged.
	c.mu.RLock()
	if c.closed {
		c.mu.RUnlock()
		return 0, errClosedClassed
	}
	var joiners []string
	for _, a := range addrs {
		if _, ok := c.members[a]; !ok {
			joiners = append(joiners, a)
		}
	}
	c.mu.RUnlock()
	dialed := make([]*member, 0, len(joiners))
	closeDialed := func() {
		for _, m := range dialed {
			m.close()
		}
	}
	for _, a := range joiners {
		m, err := c.dialMember(a)
		if err != nil {
			closeDialed()
			return 0, err
		}
		dialed = append(dialed, m)
	}

	// Install joiners (the old ring never routes to them, so they take no
	// traffic yet) and compute the target ring.
	newRing := newHashRing(addrs, virtualNodes)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		closeDialed()
		return 0, errClosedClassed
	}
	for _, m := range dialed {
		c.members[m.addr] = m
	}
	c.mu.Unlock()
	old, _ := c.sortedMembers()

	// Bulk sweep: list each current member's residents and move every
	// stream whose target-ring owner differs. Each transfer repoints its
	// stream's routing the moment it lands, so traffic follows the state.
	moved := 0
	var firstErr error
	for _, m := range old {
		if _, staying := next[m.addr]; staying && len(dialed) == 0 && len(old) == len(addrs) {
			// Identical topology: nothing can have remapped.
			continue
		}
		ids, err := m.live().streamIDs()
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("server: listing streams on %s: %w", m.addr, err)
			}
			continue
		}
		for _, id := range ids {
			target := newRing.owner(id)
			if target == m.addr {
				continue
			}
			ok, err := c.sweepTransfer(id, m.addr, target)
			if err != nil && firstErr == nil {
				firstErr = err
			}
			if ok {
				moved++
			}
		}
	}

	// Swap the ring; prune overrides the new ring agrees with, and
	// overrides pointing at leavers (their streams were just swept).
	c.mu.Lock()
	c.ring = newRing
	var leavers []*member
	for addr, m := range c.members {
		if _, ok := next[addr]; !ok {
			leavers = append(leavers, m)
			delete(c.members, addr)
		}
	}
	for id, addr := range c.overrides {
		if _, gone := next[addr]; !gone || newRing.owner(id) == addr {
			delete(c.overrides, id)
		}
	}
	c.mu.Unlock()

	// Barrier: every request that routed before the swap holds its stripe
	// read-locked for the duration of its call, so cycling every stripe's
	// write lock guarantees no in-flight request can still land on a leaver.
	for i := range c.gates {
		c.gates[i].Lock()
		c.gates[i].Unlock() //nolint:staticcheck // intentional barrier, not a critical section
	}

	// Straggler sweep: streams that first ingested on a leaver mid-sweep.
	// Routing no longer points there, so move their state to wherever each
	// stream routes now.
	for _, leaver := range leavers {
		ids, err := leaver.live().streamIDs()
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("server: listing streams on %s: %w", leaver.addr, err)
			}
			continue
		}
		for _, id := range ids {
			g := c.gate(id)
			g.Lock()
			dst, err := c.route(id)
			if err == nil && dst != leaver {
				err = c.transfer(id, leaver, dst)
				if err == nil {
					moved++
				}
			}
			g.Unlock()
			if err != nil && firstErr == nil {
				firstErr = err
			}
		}
		leaver.close()
	}
	return moved, firstErr
}

// sweepTransfer is one bulk-sweep migration: under the stream's gate,
// re-verify it still routes to the member it was listed on (a concurrent
// Migrate may have moved it) and transfer it to the target member. Returns
// whether a transfer happened.
func (c *Client) sweepTransfer(streamID, from, target string) (bool, error) {
	g := c.gate(streamID)
	g.Lock()
	defer g.Unlock()
	c.mu.RLock()
	src, err := c.routeLocked(streamID)
	dst, ok := c.members[target]
	c.mu.RUnlock()
	if err != nil {
		return false, err
	}
	if src.addr != from || src == dst || !ok {
		return false, nil
	}
	if err := c.transfer(streamID, src, dst); err != nil {
		return false, err
	}
	return true, nil
}

// ringPoint is one virtual node: a member address at a hash position.
type ringPoint struct {
	hash   uint64
	member string
}

// hashRing is a classic sorted consistent-hash ring with virtual nodes: a
// stream is owned by the first point clockwise from its hash. Immutable
// once built — topology changes build a new ring and swap it.
type hashRing struct {
	points []ringPoint
}

// ringHash positions a key on the ring: the monitor's placement hash with a
// 64-bit avalanche finalizer (MurmurHash3 fmix64) on top. Raw FNV-1a leaves
// sequentially numbered keys ("stream-00042", "stream-00043", ...) in
// correlated clusters — its final byte only goes through one multiply — and
// clustered keys defeat the whole point of the ring: whole runs of streams
// would land on one member. The finalizer makes neighboring keys
// independent without changing the monitor-side placement hash.
func ringHash(s string) uint64 {
	h := monitor.Hash64(s)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

func newHashRing(members []string, vnodes int) *hashRing {
	r := &hashRing{points: make([]ringPoint, 0, len(members)*vnodes)}
	for _, m := range members {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{ringHash(m + "#" + strconv.Itoa(v)), m})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// A 64-bit hash collision between virtual nodes is vanishingly
		// unlikely, but the tiebreak keeps ownership deterministic and
		// member-order independent even then.
		return r.points[i].member < r.points[j].member
	})
	return r
}

// owner returns the member owning streamID: the first ring point at or
// clockwise-after the stream's hash, wrapping at the top.
func (r *hashRing) owner(streamID string) string {
	h := ringHash(streamID)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].member
}
