package server

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rbmim/internal/core"
	"rbmim/internal/detectors"
	"rbmim/internal/monitor"
	"rbmim/internal/telemetry"
)

// clusterDetectorConfig is the deterministic template every fleet member
// shares: the monitor's factory seeds each stream's detector from
// (Seed, stream ID), so identically configured members build identical
// detectors for the same stream — the precondition for bit-identical
// migration.
func clusterDetectorConfig() core.Config {
	return core.Config{
		Features: 6, Classes: 3, BatchSize: 10,
		WarmupBatches: 3, TrendWindow: 8, AdaptiveWindow: true, Seed: 5,
	}
}

// shiftObs draws a reproducible sequence with a level shift in the back
// half so drifts actually fire on both sides of a migration.
func shiftObs(seed int64, n int) []detectors.Observation {
	rng := rand.New(rand.NewSource(seed))
	obs := make([]detectors.Observation, n)
	for i := range obs {
		x := make([]float64, 6)
		for j := range x {
			x[j] = rng.Float64() * 2
			if i > (3*n)/4 {
				x[j] += 2.5
			}
		}
		y := rng.Intn(3)
		obs[i] = detectors.Observation{X: x, TrueClass: y, Predicted: y}
	}
	return obs
}

// newFleet starts n checkpointed driftservers on loopback and returns their
// addresses and monitors (indexable by address for white-box asserts).
func newFleet(t testing.TB, n int) (addrs []string, byAddr map[string]*monitor.Monitor) {
	t.Helper()
	byAddr = make(map[string]*monitor.Monitor, n)
	for i := 0; i < n; i++ {
		m, err := monitor.New(monitor.Config{
			Detector:   clusterDetectorConfig(),
			Shards:     2,
			Checkpoint: monitor.CheckpointConfig{Store: monitor.NewMemStore(), Interval: time.Hour},
		})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := New(Config{Monitor: m})
		if err != nil {
			m.Close()
			t.Fatal(err)
		}
		t.Cleanup(func() {
			srv.Close()
			m.Close()
		})
		addrs = append(addrs, srv.Addr())
		byAddr[srv.Addr()] = m
	}
	return addrs, byAddr
}

// TestRingRemapProperty pins the consistent-hashing invariants the cluster
// depends on: adding a member remaps only ~K/n streams, removing a member
// remaps exactly that member's streams and nothing else, and virtual nodes
// keep the load spread.
func TestRingRemapProperty(t *testing.T) {
	const streams = 30000
	members := []string{"10.0.0.1:7365", "10.0.0.2:7365", "10.0.0.3:7365"}
	ring3 := newHashRing(members, 64)
	ring4 := newHashRing(append(append([]string{}, members...), "10.0.0.4:7365"), 64)

	ids := make([]string, streams)
	for i := range ids {
		ids[i] = fmt.Sprintf("stream-%05d", i)
	}

	// Balance: with 64 vnodes no member of three may fall far below its
	// fair third.
	load := map[string]int{}
	for _, id := range ids {
		load[ring3.owner(id)]++
	}
	for m, n := range load {
		if frac := float64(n) / streams; frac < 0.15 {
			t.Fatalf("member %s owns %.1f%% of streams; virtual nodes are not spreading load", m, frac*100)
		}
	}

	// Join: only ~K/n streams may remap, and every remapped stream must land
	// on the joiner (anything else would be gratuitous movement).
	remapped := 0
	for _, id := range ids {
		if from, to := ring3.owner(id), ring4.owner(id); from != to {
			remapped++
			if to != "10.0.0.4:7365" {
				t.Fatalf("stream %s remapped %s -> %s on a join; only moves onto the joiner are allowed", id, from, to)
			}
		}
	}
	if frac := float64(remapped) / streams; frac < 0.10 || frac > 0.45 {
		t.Fatalf("join remapped %.1f%% of streams, want ~25%%", frac*100)
	}

	// Leave: removing a member moves exactly its streams — every stream it
	// did not own keeps its owner.
	ring2 := newHashRing(members[:2], 64)
	for _, id := range ids {
		if from := ring3.owner(id); from != members[2] && ring2.owner(id) != from {
			t.Fatalf("stream %s remapped %s -> %s although its owner stayed in the fleet", id, from, ring2.owner(id))
		}
	}

	// Determinism: member order must not matter.
	shuffled := []string{members[2], members[0], members[1]}
	alt := newHashRing(shuffled, 64)
	for _, id := range ids[:1000] {
		if ring3.owner(id) != alt.owner(id) {
			t.Fatalf("owner of %s depends on member order", id)
		}
	}
}

// TestClusterMigrationEquivalence is the acceptance gate over real TCP:
// drive a stream through a two-member fleet, live-migrate it mid-workload,
// and require the drift decisions (count and sequence positions) and the
// final detector bytes to be identical to an unmigrated single-monitor
// reference.
func TestClusterMigrationEquivalence(t *testing.T) {
	const n, cut = 2400, 1237
	obs := shiftObs(9, n)

	// Reference: one uninterrupted in-process monitor, same template.
	cm, err := monitor.New(monitor.Config{Detector: clusterDetectorConfig(), Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	controlSub := subscribeMonitor(t, cm, n)
	for _, o := range obs {
		if err := cm.Ingest("sensor-42", o); err != nil {
			t.Fatal(err)
		}
	}
	if err := cm.FlushCheckpoints(); err != nil {
		t.Fatal(err)
	}
	control := seqsByStream(drainEvents(t, controlSub))["sensor-42"]
	controlState, err := cm.ExportStream("sensor-42")
	if err != nil {
		t.Fatal(err)
	}
	cm.Close()

	addrs, byAddr := newFleet(t, 2)
	subs := make(map[string]*monitor.Subscription, len(addrs))
	for _, addr := range addrs {
		subs[addr] = subscribeMonitor(t, byAddr[addr], n)
	}
	cc, err := Dial(ClientConfig{Addrs: addrs, Window: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()

	for _, o := range obs[:cut] {
		if err := cc.Ingest("sensor-42", o); err != nil {
			t.Fatal(err)
		}
	}
	src, err := cc.Owner("sensor-42")
	if err != nil {
		t.Fatal(err)
	}
	target := addrs[0]
	if target == src {
		target = addrs[1]
	}
	if err := cc.Migrate("sensor-42", target); err != nil {
		t.Fatal(err)
	}
	if got, _ := cc.Owner("sensor-42"); got != target {
		t.Fatalf("post-migration owner = %s, want %s", got, target)
	}
	if cc.Migrations() != 1 {
		t.Fatalf("Migrations = %d, want 1", cc.Migrations())
	}
	for _, o := range obs[cut:] {
		if err := cc.Ingest("sensor-42", o); err != nil {
			t.Fatal(err)
		}
	}
	if err := cc.FlushCheckpoints(); err != nil {
		t.Fatal(err)
	}

	// The source must no longer host the stream; the target must have
	// installed it via the rehydration path.
	if ids, err := byAddr[src].StreamIDs(); err != nil || len(ids) != 0 {
		t.Fatalf("source still hosts %v after migration (err %v)", ids, err)
	}
	if got := byAddr[target].Snapshot().Rehydrated; got != 1 {
		t.Fatalf("target Rehydrated = %d, want 1", got)
	}

	// The source served everything before the migration, the target
	// everything after.
	migrated := seqsByStream(drainEvents(t, subs[src]))["sensor-42"]
	migrated = append(migrated, seqsByStream(drainEvents(t, subs[target]))["sensor-42"]...)
	if len(control) == 0 {
		t.Fatal("reference run detected no drifts; the test stream is too tame")
	}
	if len(migrated) != len(control) {
		t.Fatalf("drift counts differ: migrated %d vs reference %d", len(migrated), len(control))
	}
	for i := range control {
		if control[i] != migrated[i] {
			t.Fatalf("drift %d at seq %d migrated vs %d reference", i, migrated[i], control[i])
		}
	}
	migratedState, err := byAddr[target].ExportStream("sensor-42")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(controlState, migratedState) {
		t.Fatal("final detector states differ: cluster migration is not bit-identical")
	}
}

// TestClusterMigrationUnderConcurrentIngest hammers migrations against live
// traffic (the -race half of the acceptance gate): producers batch-ingest a
// stream population through the cluster client while every stream is
// migrated to its ring neighbor mid-run. The striped gates plus per-member
// exactly-once tables must conserve every observation.
func TestClusterMigrationUnderConcurrentIngest(t *testing.T) {
	const (
		streams   = 24
		producers = 4
		rounds    = 6
		block     = 25
	)
	addrs, _ := newFleet(t, 3)
	cc, err := Dial(ClientConfig{Addrs: addrs, Window: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	members := cc.Members()

	obs := shiftObs(10, rounds*block)
	var wg sync.WaitGroup
	errs := make(chan error, producers+1)
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for s := p; s < streams; s += producers {
					id := fmt.Sprintf("stream-%03d", s)
					if err := cc.IngestBatch(id, obs[r*block:(r+1)*block]); err != nil {
						errs <- err
						return
					}
				}
			}
		}(p)
	}
	// The migrator walks every stream once, concurrently with the producers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for s := 0; s < streams; s++ {
			id := fmt.Sprintf("stream-%03d", s)
			owner, err := cc.Owner(id)
			if err != nil {
				errs <- err
				return
			}
			next := members[0]
			for i, m := range members {
				if m == owner {
					next = members[(i+1)%len(members)]
					break
				}
			}
			if err := cc.Migrate(id, next); err != nil {
				errs <- fmt.Errorf("migrating %s: %w", id, err)
				return
			}
		}
	}()
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if err := cc.FlushCheckpoints(); err != nil {
		t.Fatal(err)
	}
	sn, err := cc.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(streams * rounds * block)
	if sn.Ingested != want {
		t.Fatalf("fleet ingested %d observations, sent %d — migration lost or double-applied traffic", sn.Ingested, want)
	}
	if sn.Streams != streams {
		t.Fatalf("fleet hosts %d streams, want %d", sn.Streams, streams)
	}
	if sn.Rehydrated < cc.Migrations() {
		t.Fatalf("Rehydrated = %d < %d migrations; handoffs degenerated to fresh detectors", sn.Rehydrated, cc.Migrations())
	}
}

// TestClusterRebalance pins topology changes: growing and shrinking the
// fleet moves only remapped streams, drains leavers completely, and
// conserves every observation across the transition.
func TestClusterRebalance(t *testing.T) {
	const streams = 40
	addrs, byAddr := newFleet(t, 3)
	cc, err := Dial(ClientConfig{Addrs: addrs[:2], Window: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()

	obs := shiftObs(11, 60)
	feed := func(lo, hi int) {
		t.Helper()
		for s := 0; s < streams; s++ {
			if err := cc.IngestBatch(fmt.Sprintf("stream-%03d", s), obs[lo:hi]); err != nil {
				t.Fatal(err)
			}
		}
	}
	feed(0, 30)
	if err := cc.FlushCheckpoints(); err != nil {
		t.Fatal(err)
	}

	// Count residents on the member about to leave.
	leaving, err := byAddr[addrs[1]].StreamIDs()
	if err != nil {
		t.Fatal(err)
	}
	if len(leaving) == 0 {
		t.Fatal("no streams landed on the leaver; the test proves nothing")
	}

	// Swap member 2 for member 3 in one transition.
	moved, err := cc.Rebalance([]string{addrs[0], addrs[2]})
	if err != nil {
		t.Fatal(err)
	}
	if moved < len(leaving) {
		t.Fatalf("Rebalance moved %d streams, but the leaver alone hosted %d", moved, len(leaving))
	}
	if moved >= streams {
		t.Fatalf("Rebalance moved all %d streams; consistent hashing should keep unremapped streams put", moved)
	}
	if ids, err := byAddr[addrs[1]].StreamIDs(); err != nil || len(ids) != 0 {
		t.Fatalf("leaver still hosts %v after rebalance (err %v)", ids, err)
	}
	got := cc.Members()
	if len(got) != 2 || got[0] > got[1] || byAddr[got[0]] == byAddr[addrs[1]] {
		t.Fatalf("Members = %v after rebalance", got)
	}

	feed(30, 60)
	if err := cc.FlushCheckpoints(); err != nil {
		t.Fatal(err)
	}
	sns, err := cc.MemberSnapshots()
	if err != nil {
		t.Fatal(err)
	}
	var merged []monitor.Snapshot
	for _, m := range sns {
		merged = append(merged, m.Snapshot)
	}
	sn := monitor.MergeSnapshots(merged...)
	// The leaver's counters left the fleet with it, so conservation is
	// checked against what the surviving members saw: everything after the
	// rebalance plus whatever they ingested before it.
	want := uint64(streams * 30)
	if sn.Ingested < want {
		t.Fatalf("surviving members ingested %d, want at least the %d post-rebalance observations", sn.Ingested, want)
	}
	if sn.Streams != streams {
		t.Fatalf("fleet hosts %d streams after rebalance, want %d", sn.Streams, streams)
	}
	if sn.Rehydrated < uint64(len(leaving)) {
		t.Fatalf("Rehydrated = %d < %d drained streams", sn.Rehydrated, len(leaving))
	}
}

// TestMergeSnapshots pins the fold arithmetic MergeSnapshots applies.
func TestMergeSnapshots(t *testing.T) {
	a := monitor.Snapshot{
		Shards: 2, Streams: 3, Ingested: 100, Received: 120, Rejected: 20,
		Drifts: 4, DriftsByClass: []uint64{1, 3},
		QueueCap: 64, QueueHighWater: 10, Rehydrated: 1,
		ShardIngested: []uint64{60, 40}, Uptime: 2 * time.Second,
	}
	b := monitor.Snapshot{
		Shards: 1, Streams: 2, Ingested: 50, Received: 50,
		Drifts: 1, DriftsByClass: []uint64{0, 0, 2},
		QueueCap: 32, QueueHighWater: 30, Rehydrated: 2,
		ShardIngested: []uint64{50}, Uptime: 4 * time.Second,
	}
	got := monitor.MergeSnapshots(a, b)
	if got.Shards != 3 || got.Streams != 5 || got.Ingested != 150 || got.Received != 170 || got.Rejected != 20 {
		t.Fatalf("counter sums wrong: %+v", got)
	}
	if got.Drifts != 5 || len(got.DriftsByClass) != 3 || got.DriftsByClass[0] != 1 || got.DriftsByClass[1] != 3 || got.DriftsByClass[2] != 2 {
		t.Fatalf("drift merge wrong: %+v", got.DriftsByClass)
	}
	if got.QueueCap != 64 || got.QueueHighWater != 30 || got.Uptime != 4*time.Second {
		t.Fatalf("max fields wrong: %+v", got)
	}
	if got.Rehydrated != 3 || len(got.ShardIngested) != 3 {
		t.Fatalf("concat/sum fields wrong: %+v", got)
	}
	if want := 150.0 / 4.0; got.InstancesPerSec != want {
		t.Fatalf("InstancesPerSec = %v, want %v", got.InstancesPerSec, want)
	}
	// One input is the identity: a one-member Client's Snapshot goes through
	// the merge, so every field of a fully populated server snapshot must
	// come back unchanged.
	var rtt, wait telemetry.Histogram
	for _, ns := range []int64{900, 1500, 1600, 40000, 2e6} {
		rtt.Observe(ns)
		wait.Observe(ns / 3)
	}
	one := monitor.Snapshot{
		Shards: 2, Streams: 7, Ingested: 5000, Drifts: 4, Warnings: 9,
		DriftsByClass: []uint64{1, 0, 3}, Dropped: 2, IdleEvicted: 1, StreamErrors: 3,
		Received: 5010, Rejected: 6, Queued: 4, QueueCap: 64, QueueHighWater: 12,
		Checkpoints: 11, CheckpointErrors: 1, Rehydrated: 2,
		Subscribers: 3, SubscriberDropped: 5, SubscribersEvicted: 1,
		InFlightHighWater: 16, RepliesCoalesced: 40, Shedded: 2, DedupHits: 8,
		ShardStreams: []int{3, 4}, ShardIngested: []uint64{2600, 2400},
		Uptime:  3 * time.Second,
		Latency: []telemetry.Stage{rtt.Load("queue_wait"), wait.Load("serve_ingest_batch")},
	}
	one.InstancesPerSec = float64(one.Ingested) / one.Uptime.Seconds()
	fields := reflect.ValueOf(one)
	for i := 0; i < fields.NumField(); i++ {
		if fields.Field(i).IsZero() {
			t.Fatalf("identity input leaves %s zero; populate every field", fields.Type().Field(i).Name)
		}
	}
	if got := monitor.MergeSnapshots(one); !reflect.DeepEqual(got, one) {
		t.Fatalf("MergeSnapshots of one snapshot is not the identity:\n got %+v\nwant %+v", got, one)
	}
}

// TestDialConfig pins Dial's config defaults and Subscribe's member bound:
// a zero Window gives every connection of every member DefaultWindow, and
// Subscribe on a two-member client errors without dialing anything.
func TestDialConfig(t *testing.T) {
	addrs, _ := newFleet(t, 2)
	var dials atomic.Int64
	counting := func(addr string) (net.Conn, error) {
		dials.Add(1)
		return net.Dial("tcp", addr)
	}
	c, err := dialClient(ClientConfig{Addrs: addrs, Conns: 2}, counting)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ms, _ := c.sortedMembers()
	if len(ms) != 2 || dials.Load() != 4 {
		t.Fatalf("%d members over %d dials, want 2 over 4", len(ms), dials.Load())
	}
	for _, m := range ms {
		for i, cn := range m.conns {
			if cn.window != DefaultWindow || len(cn.calls) != DefaultWindow {
				t.Fatalf("member %s conn %d: window %d with %d slots, want DefaultWindow %d",
					m.addr, i, cn.window, len(cn.calls), DefaultWindow)
			}
		}
	}
	if sub, err := c.Subscribe(0); err == nil {
		sub.Close()
		t.Fatal("Subscribe on a two-member client succeeded, want an error")
	}
	if n := dials.Load(); n != 4 {
		t.Fatalf("Subscribe on a two-member client dialed %d connections, want none", n-4)
	}
}

// TestPprofSidecar pins the -pprof satellite: the profiling handlers are
// mounted only when Config.Pprof is set.
func TestPprofSidecar(t *testing.T) {
	get := func(pprof bool) int {
		t.Helper()
		m, err := monitor.New(monitor.Config{Detector: clusterDetectorConfig(), Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		srv, err := New(Config{Monitor: m, HTTPAddr: "127.0.0.1:0", Pprof: pprof})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		resp, err := http.Get("http://" + srv.HTTPAddr() + "/debug/pprof/")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get(true); code != http.StatusOK {
		t.Fatalf("GET /debug/pprof/ with Pprof on = %d, want 200", code)
	}
	if code := get(false); code != http.StatusNotFound {
		t.Fatalf("GET /debug/pprof/ with Pprof off = %d, want 404", code)
	}
}
