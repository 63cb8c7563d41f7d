package server

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"rbmim/internal/detectors"
	"rbmim/internal/monitor"
	"rbmim/internal/telemetry"
)

// ClusterClient shards the stream space across a fleet of driftservers: a
// client-side consistent-hash ring maps every stream ID to one member, and
// each member is driven through its own retrying ClientPool, so the whole
// single-node stack — pipelining, exactly-once sequence dedup, reconnect
// with resend, shedding-aware Busy retry — composes per node. There is no
// proxy tier and no coordination service: the ring is a pure function of
// (member list, stream ID), so any number of ClusterClients over the same
// member list route identically (see DESIGN.md, "Cluster routing").
//
// The ring hashes VirtualNodes points per member (monitor.Hash64 over
// "addr#i"), which keeps the load spread even with few members and — the
// consistent-hashing invariant — makes a topology change remap only ~K/n of
// K streams across n members. Jump hash, which places monitor shards, is
// not used here: it only supports removing the highest-numbered bucket,
// and a fleet must survive any member leaving.
//
// Stream migration (Migrate, and Rebalance's bulk form) moves a live
// stream's trained detector between members via the checkpoint codec: the
// source server applies everything pipelined ahead, serializes the detector
// into the same envelope frame its checkpoint store holds, spills a copy,
// and removes the stream; the caller installs the frame on the target. The
// restored stream continues bit-identically to never having moved. During
// the transfer the stream's requests are excluded by a striped gate (its
// stripe's write lock); afterwards an override pins routing to the target
// until the ring agrees. Because the export travels the stream's own
// connection behind its pipelined ingests, and resends of an applied export
// re-read the spilled copy, migration keeps the exactly-once story intact
// under reconnects and retries.
//
// All methods are safe for concurrent use.
type ClusterClient struct {
	conns  int
	window int
	vnodes int
	policy RetryPolicy

	mu        sync.RWMutex
	ring      *hashRing
	members   map[string]*ClientPool
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

const gateStripes = 256

// ClusterConfig parameterizes DialCluster. Addrs is required; every other
// zero value selects a default.
type ClusterConfig struct {
	// Addrs lists the fleet members (driftserver TCP addresses). Order does
	// not matter: routing depends only on the set.
	Addrs []string
	// Conns is the pooled connection count per member (DialPool); default 1.
	Conns int
	// Window is the pipelined in-flight window per connection; default 1.
	Window int
	// VirtualNodes is the ring points hashed per member; default 64, which
	// keeps the max/mean stream-load ratio within a few percent for small
	// fleets. More points smooth further at O(n·vnodes·log) ring build cost.
	VirtualNodes int
	// Policy is the per-connection retry policy (reconnect, resend, Busy
	// backoff); the zero value disables retries, exactly like DialRetry.
	Policy RetryPolicy
}

// DialCluster connects to every member of the fleet and returns the routing
// client. Like DialPool it fails fast: any unreachable member fails the
// whole dial (a fleet with a hole would silently concentrate load).
func DialCluster(cfg ClusterConfig) (*ClusterClient, error) {
	if len(cfg.Addrs) == 0 {
		return nil, fmt.Errorf("server: DialCluster needs at least one address")
	}
	if cfg.Conns < 1 {
		cfg.Conns = 1
	}
	if cfg.VirtualNodes < 1 {
		cfg.VirtualNodes = 64
	}
	addrs := dedupAddrs(cfg.Addrs)
	cc := &ClusterClient{
		conns:     cfg.Conns,
		window:    cfg.Window,
		vnodes:    cfg.VirtualNodes,
		policy:    cfg.Policy,
		ring:      newHashRing(addrs, cfg.VirtualNodes),
		members:   make(map[string]*ClientPool, len(addrs)),
		overrides: make(map[string]string),
	}
	for _, addr := range addrs {
		p, err := DialPoolRetry(addr, cc.conns, cc.window, cc.policy)
		if err != nil {
			cc.Close()
			return nil, fmt.Errorf("server: dialing cluster member %s: %w", addr, err)
		}
		cc.members[addr] = p
	}
	return cc, nil
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
func (cc *ClusterClient) gate(streamID string) *sync.RWMutex {
	return &cc.gates[monitor.Hash64(streamID)&(gateStripes-1)]
}

// route resolves streamID to its member pool: a migration override first
// (ignored if it points at a member that has since left), the ring
// otherwise.
func (cc *ClusterClient) route(streamID string) (*ClientPool, string, error) {
	cc.mu.RLock()
	defer cc.mu.RUnlock()
	return cc.routeLocked(streamID)
}

func (cc *ClusterClient) routeLocked(streamID string) (*ClientPool, string, error) {
	if cc.closed {
		return nil, "", ErrClientClosed
	}
	if addr, ok := cc.overrides[streamID]; ok {
		if p, ok := cc.members[addr]; ok {
			return p, addr, nil
		}
	}
	addr := cc.ring.owner(streamID)
	return cc.members[addr], addr, nil
}

// Owner returns the member address streamID currently routes to.
func (cc *ClusterClient) Owner(streamID string) (string, error) {
	_, addr, err := cc.route(streamID)
	return addr, err
}

// Members returns the fleet's member addresses, sorted.
func (cc *ClusterClient) Members() []string {
	cc.mu.RLock()
	defer cc.mu.RUnlock()
	out := make([]string, 0, len(cc.members))
	for addr := range cc.members {
		out = append(out, addr)
	}
	sort.Strings(out)
	return out
}

// Migrations returns how many stream migrations this client has completed.
func (cc *ClusterClient) Migrations() uint64 { return cc.migrations.Load() }

// Ingest is IngestBatch with a block of one.
func (cc *ClusterClient) Ingest(streamID string, o detectors.Observation) error {
	return cc.IngestBatch(streamID, []detectors.Observation{o})
}

// IngestAsync is IngestBatchAsync with a block of one.
func (cc *ClusterClient) IngestAsync(streamID string, o detectors.Observation) (Pending, error) {
	return cc.IngestBatchAsync(streamID, []detectors.Observation{o})
}

// IngestBatch routes a block to the stream's member and waits for the ack
// (Client.IngestBatch semantics through the member's pool).
func (cc *ClusterClient) IngestBatch(streamID string, obs []detectors.Observation) error {
	g := cc.gate(streamID)
	g.RLock()
	defer g.RUnlock()
	p, _, err := cc.route(streamID)
	if err != nil {
		return err
	}
	return p.IngestBatch(streamID, obs)
}

// IngestBatchAsync routes a block without waiting for its ack. The
// migration gate is held only for the submission: the request is pipelined
// on the stream's connection, and a later migration on that connection
// queues behind it, so the block is applied before any export.
func (cc *ClusterClient) IngestBatchAsync(streamID string, obs []detectors.Observation) (Pending, error) {
	g := cc.gate(streamID)
	g.RLock()
	defer g.RUnlock()
	p, _, err := cc.route(streamID)
	if err != nil {
		return Pending{}, err
	}
	return p.IngestBatchAsync(streamID, obs)
}

// Evict routes the eviction to the stream's member (Client.Evict
// semantics); a pinned override for the evicted stream is left in place, so
// a re-ingest rehydrates where the state was spilled.
func (cc *ClusterClient) Evict(streamID string) error {
	g := cc.gate(streamID)
	g.RLock()
	defer g.RUnlock()
	p, _, err := cc.route(streamID)
	if err != nil {
		return err
	}
	return p.Evict(streamID)
}

// FlushCheckpoints flushes every member (ClientPool.FlushCheckpoints over
// the fleet): a full processing and durability barrier for everything sent
// before the call, on every node. It stops at the first error.
func (cc *ClusterClient) FlushCheckpoints() error {
	for _, member := range cc.pools() {
		if err := member.pool.FlushCheckpoints(); err != nil {
			return fmt.Errorf("server: flush %s: %w", member.addr, err)
		}
	}
	return nil
}

// Snapshot returns the fleet-merged view: every member's snapshot folded
// through monitor.MergeSnapshots. The conservation identity survives the
// merge, so at quiescence (after FlushCheckpoints) the fleet-wide
// Received == Ingested + Rejected holds exactly.
func (cc *ClusterClient) Snapshot() (monitor.Snapshot, error) {
	sns, err := cc.MemberSnapshots()
	if err != nil {
		return monitor.Snapshot{}, err
	}
	merged := make([]monitor.Snapshot, 0, len(sns))
	for _, m := range sns {
		merged = append(merged, m.Snapshot)
	}
	return monitor.MergeSnapshots(merged...), nil
}

// LastDrift fetches the most recent drift report for a stream from the
// member that owns it (see Client.LastDrift). Taken under the stream's
// migration gate so a concurrent Migrate cannot answer from the wrong node.
func (cc *ClusterClient) LastDrift(streamID string) (monitor.DriftReport, bool, error) {
	g := cc.gate(streamID)
	g.RLock()
	defer g.RUnlock()
	p, _, err := cc.route(streamID)
	if err != nil {
		return monitor.DriftReport{}, false, err
	}
	return p.LastDrift(streamID)
}

// Latency merges the client-observed RTT histograms across every member
// pool (see Client.Latency) — the fleet-wide ingest-latency view from this
// client's vantage point.
func (cc *ClusterClient) Latency() []telemetry.Stage {
	var groups [][]telemetry.Stage
	for _, member := range cc.pools() {
		if st := member.pool.Latency(); len(st) > 0 {
			groups = append(groups, st)
		}
	}
	if len(groups) == 0 {
		return nil
	}
	return telemetry.MergeStages(groups...)
}

// MemberSnapshot is one member's snapshot, labelled with its address.
type MemberSnapshot struct {
	Addr string
	monitor.Snapshot
}

// MemberSnapshots fetches every member's snapshot, in Members() order.
func (cc *ClusterClient) MemberSnapshots() ([]MemberSnapshot, error) {
	var out []MemberSnapshot
	for _, member := range cc.pools() {
		sn, err := member.pool.Snapshot()
		if err != nil {
			return nil, fmt.Errorf("server: snapshot %s: %w", member.addr, err)
		}
		out = append(out, MemberSnapshot{Addr: member.addr, Snapshot: sn})
	}
	return out, nil
}

type memberRef struct {
	addr string
	pool *ClientPool
}

// pools snapshots the member set in sorted address order, so fleet-wide
// operations iterate deterministically without holding cc.mu across
// network calls.
func (cc *ClusterClient) pools() []memberRef {
	cc.mu.RLock()
	defer cc.mu.RUnlock()
	out := make([]memberRef, 0, len(cc.members))
	for addr, p := range cc.members {
		out = append(out, memberRef{addr, p})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].addr < out[j].addr })
	return out
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
func (cc *ClusterClient) Migrate(streamID, target string) error {
	g := cc.gate(streamID)
	g.Lock()
	defer g.Unlock()
	cc.mu.RLock()
	src, cur, err := cc.routeLocked(streamID)
	dst, ok := cc.members[target]
	cc.mu.RUnlock()
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("server: migrate %q: %s is not a cluster member", streamID, target)
	}
	if cur == target {
		return nil
	}
	return cc.transfer(streamID, src, dst, target)
}

// transfer is the gate-held export/install/repoint core shared by Migrate
// and Rebalance. The caller holds the stream's stripe write lock.
func (cc *ClusterClient) transfer(streamID string, src, dst *ClientPool, target string) error {
	state, err := src.Migrate(streamID)
	if err != nil {
		if IsStreamNotFound(err) {
			cc.pin(streamID, target)
			return nil
		}
		return err
	}
	if err := dst.Handoff(streamID, state); err != nil && !isAlreadyResident(err) {
		// Put the state back where it came from so the stream keeps its
		// training even without a source-side checkpoint store. A duplicate
		// refusal here means the source still holds it (a resend raced);
		// any other failure leaves the spilled copy as the recovery path.
		if restoreErr := src.Handoff(streamID, state); restoreErr != nil && !isAlreadyResident(restoreErr) {
			return fmt.Errorf("server: migrate %q: install on %s failed (%v) and restore failed: %w",
				streamID, target, err, restoreErr)
		}
		return fmt.Errorf("server: migrate %q: install on %s: %w", streamID, target, err)
	}
	cc.migrations.Add(1)
	cc.pin(streamID, target)
	return nil
}

// pin repoints streamID's routing at target: an override where the ring
// disagrees, nothing where it already agrees.
func (cc *ClusterClient) pin(streamID, target string) {
	cc.mu.Lock()
	if cc.ring.owner(streamID) == target {
		delete(cc.overrides, streamID)
	} else {
		cc.overrides[streamID] = target
	}
	cc.mu.Unlock()
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
// serialize. Observations are never lost or double-applied (the per-member
// exactly-once tables are untouched), but a stream whose very first
// observations race the ring swap can split its earliest training across
// two members; the winning copy is the routed one, and the loser's spill
// remains in the old member's store.
func (cc *ClusterClient) Rebalance(addrs []string) (int, error) {
	if len(addrs) == 0 {
		return 0, fmt.Errorf("server: Rebalance needs at least one address")
	}
	cc.rebalanceMu.Lock()
	defer cc.rebalanceMu.Unlock()

	addrs = dedupAddrs(addrs)
	next := make(map[string]struct{}, len(addrs))
	for _, a := range addrs {
		next[a] = struct{}{}
	}

	// Dial joiners before touching shared state, so a failed dial aborts
	// with the fleet unchanged.
	cc.mu.RLock()
	if cc.closed {
		cc.mu.RUnlock()
		return 0, ErrClientClosed
	}
	var joiners []string
	for _, a := range addrs {
		if _, ok := cc.members[a]; !ok {
			joiners = append(joiners, a)
		}
	}
	cc.mu.RUnlock()
	dialed := make(map[string]*ClientPool, len(joiners))
	for _, a := range joiners {
		p, err := DialPoolRetry(a, cc.conns, cc.window, cc.policy)
		if err != nil {
			for _, d := range dialed {
				d.Close()
			}
			return 0, fmt.Errorf("server: dialing cluster member %s: %w", a, err)
		}
		dialed[a] = p
	}

	// Install joiners (the old ring never routes to them, so they take no
	// traffic yet) and compute the target ring.
	newRing := newHashRing(addrs, cc.vnodes)
	cc.mu.Lock()
	if cc.closed {
		cc.mu.Unlock()
		for _, d := range dialed {
			d.Close()
		}
		return 0, ErrClientClosed
	}
	for a, p := range dialed {
		cc.members[a] = p
	}
	old := make([]memberRef, 0, len(cc.members))
	for addr, p := range cc.members {
		old = append(old, memberRef{addr, p})
	}
	sort.Slice(old, func(i, j int) bool { return old[i].addr < old[j].addr })
	cc.mu.Unlock()

	// Bulk sweep: list each current member's residents and move every
	// stream whose target-ring owner differs. Each transfer repoints its
	// stream's routing the moment it lands, so traffic follows the state.
	moved := 0
	var firstErr error
	for _, member := range old {
		if _, staying := next[member.addr]; staying && len(dialed) == 0 && len(old) == len(addrs) {
			// Identical topology: nothing can have remapped.
			continue
		}
		ids, err := member.pool.StreamIDs()
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("server: listing streams on %s: %w", member.addr, err)
			}
			continue
		}
		for _, id := range ids {
			target := newRing.owner(id)
			if target == member.addr {
				continue
			}
			ok, err := cc.sweepTransfer(id, member.addr, target)
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
	cc.mu.Lock()
	cc.ring = newRing
	var leavers []memberRef
	for addr, p := range cc.members {
		if _, ok := next[addr]; !ok {
			leavers = append(leavers, memberRef{addr, p})
			delete(cc.members, addr)
		}
	}
	for id, addr := range cc.overrides {
		if _, gone := next[addr]; !gone || newRing.owner(id) == addr {
			delete(cc.overrides, id)
		}
	}
	cc.mu.Unlock()

	// Barrier: every request that routed before the swap holds its stripe
	// read-locked for the duration of its call, so cycling every stripe's
	// write lock guarantees no in-flight request can still land on a leaver.
	for i := range cc.gates {
		cc.gates[i].Lock()
		cc.gates[i].Unlock() //nolint:staticcheck // intentional barrier, not a critical section
	}

	// Straggler sweep: streams that first ingested on a leaver mid-sweep.
	// Routing no longer points there, so move their state to wherever each
	// stream routes now.
	for _, leaver := range leavers {
		ids, err := leaver.pool.StreamIDs()
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("server: listing streams on %s: %w", leaver.addr, err)
			}
			continue
		}
		for _, id := range ids {
			g := cc.gate(id)
			g.Lock()
			cc.mu.RLock()
			dst, target, err := cc.routeLocked(id)
			cc.mu.RUnlock()
			if err == nil && target != leaver.addr {
				err = cc.transfer(id, leaver.pool, dst, target)
				if err == nil {
					moved++
				}
			}
			g.Unlock()
			if err != nil && firstErr == nil {
				firstErr = err
			}
		}
		leaver.pool.Close()
	}
	return moved, firstErr
}

// sweepTransfer is one bulk-sweep migration: under the stream's gate,
// re-verify it still routes to the member it was listed on (a concurrent
// Migrate may have moved it) and transfer it to the target member. Returns
// whether a transfer happened.
func (cc *ClusterClient) sweepTransfer(streamID, from, target string) (bool, error) {
	g := cc.gate(streamID)
	g.Lock()
	defer g.Unlock()
	cc.mu.RLock()
	src, cur, err := cc.routeLocked(streamID)
	dst, ok := cc.members[target]
	cc.mu.RUnlock()
	if err != nil {
		return false, err
	}
	if cur != from || cur == target || !ok {
		return false, nil
	}
	if err := cc.transfer(streamID, src, dst, target); err != nil {
		return false, err
	}
	return true, nil
}

// Close closes every member pool. In-flight requests receive errors, never
// hangs; Close is idempotent.
func (cc *ClusterClient) Close() error {
	cc.mu.Lock()
	if cc.closed {
		cc.mu.Unlock()
		return nil
	}
	cc.closed = true
	pools := make([]*ClientPool, 0, len(cc.members))
	for _, p := range cc.members {
		pools = append(pools, p)
	}
	cc.mu.Unlock()
	for _, p := range pools {
		p.Close()
	}
	return nil
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
