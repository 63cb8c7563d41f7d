// Command monitorbench is a wire load generator for driftserver: it fans a
// population of independent RBF streams, each with a sudden concept change
// halfway through, across one server or a fleet from several load
// goroutines sharing one rbmim.Client, then reports throughput, drift-event
// counts, per-shard balance and client-observed ingest latency — and exits
// non-zero unless the servers processed every observation sent.
//
// Usage:
//
//	monitorbench -remote ADDR[,ADDR...] [-streams 256] [-instances 4000]
//	             [-features 20] [-classes 5] [-batch 0] [-clients N]
//	             [-conns K] [-inflight W] [-churn S] [-retry] [-migrate M]
//	             [-chaosreset N] [-chaosdelay D] [-chaosdup P]
//	             [-chaosdrop P] [-chaosseed S]
//
// Every run takes the same steps: dial a control Client on the real
// addresses, take each member's pre-run snapshot, replay the workload with
// IngestBatch blocks of -batch observations (0 = per-observation Ingest),
// run the fleet-wide FlushCheckpoints barrier, take the post-run snapshots,
// and check that the members' Ingested counters rose by exactly what was
// sent. Deltas keep the figures right on long-lived servers.
//
// The load knobs:
//
//   - -clients N load goroutines (default NumCPU) feed disjoint stream
//     subsets through one Client;
//   - -conns K is that Client's connection count per member (0 = the
//     Client default);
//   - -inflight W is the pipelined in-flight window per connection (1 = the
//     serial stop-and-wait client, the default);
//   - -churn S runs S subscriber churners that connect, drain a few drift
//     events, and disconnect in a loop for the whole run — the
//     slow-subscriber/eviction path exercised while the ingest path is
//     saturated.
//
// Sweeping -clients x -inflight is the saturation experiment in
// EXPERIMENTS.md: obs/s as a function of offered concurrency and window
// depth.
//
// With -migrate M (two or more addresses) the run pauses halfway and
// live-migrates M streams to their next member in sorted order via
// checkpoint handoff, then replays the second half on the new placement;
// the fleet must then have rehydrated at least M streams.
//
// The degraded-network knobs (one address only): -retry dials the senders
// with the default retry policy (reconnect with backoff, busy retries,
// stall watchdog), and any non-zero -chaos* flag interposes the
// internal/chaos fault proxy between the senders and the server —
// -chaosreset N hard-resets each connection after ~N frames, -chaosdelay
// adds a per-frame forwarding delay, -chaosdup and -chaosdrop duplicate and
// drop frames with the given probability, -chaosseed fixes the fault
// schedule. A chaos run forces the retry policy on, prints the proxy's
// injection tally alongside the client's reconnect count and the server's
// dedup/shed deltas, and under -chaosreset also requires at least one
// reconnect, so the resilience claim is never vacuously green. The control
// client bypasses the proxy.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"rbmim"
	"rbmim/internal/chaos"
	"rbmim/internal/synth"
)

// Argument sets that cannot work, rejected before any load.
var (
	errNoAddr       = errors.New("-remote needs at least one address")
	errChurnFleet   = errors.New("-churn needs a single -remote address: a fleet-wide subscription is not offered")
	errChaosFleet   = errors.New("-chaos* needs a single -remote address: the fault proxy fronts one server")
	errMigrateAlone = errors.New("-migrate needs at least two -remote addresses")
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(os.Stderr, "monitorbench:", err)
			os.Exit(1)
		}
	}
}

// options are the parsed flags.
type options struct {
	addrs    []string
	clients  int // load goroutines
	conns    int // connections per member; 0 = the Client default
	inflight int // in-flight window per connection; 1 = serial
	batch    int
	churn    int // subscriber churners
	migrate  int
	retry    bool
	// faults are the -chaos* knobs; any non-zero fault interposes the
	// proxy and forces the retry policy on (a faulted run without retries
	// just fails).
	faults chaos.Config
}

func (o options) chaosEnabled() bool {
	f := o.faults
	return f.ResetEvery > 0 || f.Delay > 0 || f.DuplicateRate > 0 || f.DropRate > 0
}

// run parses args, replays the workload against the -remote servers and
// returns an error when the argument set cannot work, the load fails, or a
// post-run check does not hold.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("monitorbench", flag.ContinueOnError)
	streams := fs.Int("streams", 256, "independent streams to multiplex")
	instances := fs.Int("instances", 4000, "observations per stream")
	features := fs.Int("features", 20, "features per stream")
	classes := fs.Int("classes", 5, "classes per stream")
	remote := fs.String("remote", "", "comma-separated driftserver addresses: one server or a fleet")
	var o options
	fs.IntVar(&o.batch, "batch", 0, "IngestBatch block size (0 = per-observation Ingest)")
	fs.IntVar(&o.clients, "clients", runtime.NumCPU(), "load goroutines")
	fs.IntVar(&o.conns, "conns", 0, "connections per member (0 = the Client default)")
	fs.IntVar(&o.inflight, "inflight", 1, "pipelined in-flight requests per connection (1 = serial)")
	fs.IntVar(&o.churn, "churn", 0, "subscriber churners connecting/draining/disconnecting for the whole run (one address only)")
	fs.BoolVar(&o.retry, "retry", false, "dial with the default retry policy (reconnect, backoff, busy retries)")
	fs.IntVar(&o.migrate, "migrate", 0, "live-migrate this many streams to their next member halfway through the run (two or more addresses)")
	fs.IntVar(&o.faults.ResetEvery, "chaosreset", 0, "fault proxy hard-resets each connection after ~this many frames (0 disables; one address only)")
	fs.DurationVar(&o.faults.Delay, "chaosdelay", 0, "fault-proxy per-frame forwarding delay")
	fs.Float64Var(&o.faults.DuplicateRate, "chaosdup", 0, "fault-proxy frame duplication probability")
	fs.Float64Var(&o.faults.DropRate, "chaosdrop", 0, "fault-proxy frame drop probability")
	fs.Int64Var(&o.faults.Seed, "chaosseed", 1, "fault-proxy schedule seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	o.addrs = splitAddrs(*remote)
	o.clients, o.inflight = max(o.clients, 1), max(o.inflight, 1)
	switch {
	case len(o.addrs) == 0:
		return errNoAddr
	case o.churn > 0 && len(o.addrs) > 1:
		return errChurnFleet
	case o.chaosEnabled() && len(o.addrs) > 1:
		return errChaosFleet
	case o.migrate > 0 && len(o.addrs) < 2:
		return errMigrateAlone
	}

	fmt.Fprintf(stdout, "monitorbench: %d streams x %d instances, %d features, %d classes, %d clients, GOMAXPROCS %d\n\n",
		*streams, *instances, *features, *classes, o.clients, runtime.GOMAXPROCS(0))
	// Pre-draw every stream's observations so the run measures the servers,
	// not the generators.
	workload, err := buildWorkload(*streams, *instances, *features, *classes)
	if err != nil {
		return err
	}
	return runLoad(stdout, workload, o)
}

type workloadStream struct {
	id  string
	obs []rbmim.Observation
}

// runLoad replays the workload against the servers, prints one result row,
// and checks the run: exact conservation, at least one reconnect under
// -chaosreset, and at least as many rehydrations as migrations.
func runLoad(stdout io.Writer, workload []workloadStream, o options) error {
	// The control client (snapshots, flush barrier, churner subscribes)
	// always dials the servers directly: the proxy degrades the load path,
	// not the measurement.
	ctl, err := rbmim.Dial(rbmim.ClientConfig{Addrs: o.addrs})
	if err != nil {
		return err
	}
	defer ctl.Close()
	before, err := mergedSnapshot(ctl)
	if err != nil {
		return err
	}

	sendAddrs := o.addrs
	var px *chaos.Proxy
	if o.chaosEnabled() {
		cfg := o.faults
		cfg.Target = o.addrs[0]
		if px, err = chaos.New(cfg); err != nil {
			return err
		}
		defer px.Close()
		sendAddrs = []string{px.Addr()}
	}
	sender, err := rbmim.Dial(rbmim.ClientConfig{
		Addrs: sendAddrs, Conns: o.conns, Window: o.inflight,
		Retry: retryPolicy(o.retry || px != nil),
	})
	if err != nil {
		return err
	}
	defer sender.Close()

	stopChurn := churnSubscribers(ctl, o.churn)
	start := time.Now()
	half := func(n int) int { return n }
	if o.migrate > 0 {
		half = func(n int) int { return n / 2 }
	}
	migrated := uint64(0)
	err = replay(sender, workload, o, func(n int) (int, int) { return 0, half(n) })
	if err == nil && o.migrate > 0 {
		if migrated, err = migrateStreams(sender, workload, o.migrate); err == nil {
			err = replay(sender, workload, o, func(n int) (int, int) { return half(n), n })
		}
	}
	// Barrier: every acked observation is enqueued, so one fleet-wide flush
	// makes all of it applied (and checkpoints, where a server has a store,
	// durable) before the clock stops.
	if err == nil {
		err = ctl.FlushCheckpoints()
	}
	wall := time.Since(start)
	stopChurn()
	if err != nil {
		return err
	}
	after, err := mergedSnapshot(ctl)
	if err != nil {
		return err
	}

	perShard := make([]uint64, len(after.ShardIngested))
	for i := range perShard {
		perShard[i] = after.ShardIngested[i]
		if i < len(before.ShardIngested) {
			perShard[i] -= before.ShardIngested[i]
		}
	}
	mode := "single"
	if o.batch > 0 {
		mode = fmt.Sprintf("batch%d", o.batch)
	}
	fmt.Fprintf(stdout, "%-8s %-10s %-14s %-12s %-10s %-10s %s\n", "shards", "mode", "instances/s", "wall", "drifts", "streams", "shard balance (ingested)")
	fmt.Fprintf(stdout, "%-8d %-10s %-14s %-12s %-10d %-10d %s  [members=%d clients=%d conns=%d inflight=%d churn=%d migrated=%d]\n",
		after.Shards, mode, fmt.Sprintf("%.0f", float64(after.Ingested-before.Ingested)/wall.Seconds()),
		wall.Round(time.Millisecond), after.Drifts-before.Drifts, after.Streams, balanceString(perShard),
		len(o.addrs), o.clients, o.conns, o.inflight, o.churn, migrated)
	if p50, p95, p99, ok := ingestLatency(sender.Latency()); ok {
		fmt.Fprintf(stdout, "ingest latency (client-observed rtt): p50=%.3fms p95=%.3fms p99=%.3fms\n", p50, p95, p99)
	}
	reconnects := sender.Reconnects()
	if px != nil {
		f := px.Stats()
		fmt.Fprintf(stdout, "chaos: conns=%d frames=%d dropped=%d duplicated=%d resets=%d blackholed=%d  reconnects=%d dedup_hits=%d shedded=%d\n",
			f.Conns, f.Frames, f.Dropped, f.Duplicated, f.Resets, f.Blackholed,
			reconnects, after.DedupHits-before.DedupHits, after.Shedded-before.Shedded)
	}

	// Ingests block, so nothing may be dropped: the members must have
	// processed exactly what was sent, wherever each stream or half of its
	// life landed.
	want := uint64(0)
	for _, ws := range workload {
		want += uint64(len(ws.obs))
	}
	if got := after.Ingested - before.Ingested; got != want {
		return fmt.Errorf("ingested %d observations, sent %d", got, want)
	}
	// With -chaosreset the run must actually have exercised the reconnect
	// path — a zero count means the proxy never fired and the "survived a
	// degraded network" claim is vacuous.
	if o.faults.ResetEvery > 0 && reconnects == 0 {
		return fmt.Errorf("chaos run with -chaosreset %d recorded zero reconnects", o.faults.ResetEvery)
	}
	// Every handoff installs via the rehydration path on its target, so a
	// migrating run must show at least as many rehydrations as migrations —
	// otherwise the handoff silently degenerated to fresh detectors.
	if rehydrated := after.Rehydrated - before.Rehydrated; rehydrated < migrated {
		return fmt.Errorf("migrated %d streams but the fleet rehydrated only %d", migrated, rehydrated)
	}
	return nil
}

// mergedSnapshot folds the members' snapshots, in Members() order, through
// MergeSnapshots, which concatenates their ShardIngested counters.
func mergedSnapshot(c *rbmim.Client) (rbmim.MonitorSnapshot, error) {
	members, err := c.MemberSnapshots()
	if err != nil {
		return rbmim.MonitorSnapshot{}, err
	}
	sns := make([]rbmim.MonitorSnapshot, len(members))
	for i, m := range members {
		sns[i] = m.Snapshot
	}
	return rbmim.MergeSnapshots(sns...), nil
}

// migrateStreams moves the first n streams to the member after their
// current owner in sorted order, between the replay halves: the producers
// are joined, and each stream's first-half state rides the handoff.
func migrateStreams(c *rbmim.Client, workload []workloadStream, n int) (uint64, error) {
	members := c.Members()
	migrated := uint64(0)
	for _, ws := range workload[:min(n, len(workload))] {
		owner, err := c.Owner(ws.id)
		if err != nil {
			return migrated, err
		}
		next := members[0]
		for i, m := range members {
			if m == owner {
				next = members[(i+1)%len(members)]
				break
			}
		}
		if err := c.Migrate(ws.id, next); err != nil {
			return migrated, fmt.Errorf("migrating %s to %s: %w", ws.id, next, err)
		}
		migrated++
	}
	return migrated, nil
}

// churnSubscribers starts n subscriber churners on c — connect, drain a
// handful of events (or time out), disconnect, repeat — exercising the
// reconnect/eviction path while the ingest path is under load. The returned
// function stops them and waits for them to exit.
func churnSubscribers(c *rbmim.Client, n int) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	for s := 0; s < n; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				sub, err := c.Subscribe(8)
				if err != nil {
					return // server shutting down; the load loop reports errors
				}
				timeout := time.After(5 * time.Millisecond)
			drain:
				for i := 0; i < 16; i++ {
					select {
					case _, ok := <-sub.Events():
						if !ok {
							break drain
						}
					case <-timeout:
						break drain
					case <-done:
						break drain
					}
				}
				sub.Close()
			}
		}()
	}
	return func() {
		close(done)
		wg.Wait()
	}
}

// splitAddrs expands the -remote flag into its addresses.
func splitAddrs(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// retryPolicy is the senders' retry policy: none, or the default policy
// with backoff and stall timeout tightened to loopback scale.
func retryPolicy(on bool) rbmim.RetryPolicy {
	if !on {
		return rbmim.RetryPolicy{}
	}
	policy := rbmim.DefaultRetryPolicy()
	policy.BackoffBase = 5 * time.Millisecond
	policy.StallTimeout = time.Second
	return policy
}

// replay sends obs[lo:hi) of every stream through c, with span choosing
// (lo, hi) from the stream's length. o.clients producers feed disjoint
// stream subsets; with o.inflight > 1 each producer keeps a ring of async
// requests pipelined instead of idling a round trip per block.
func replay(c *rbmim.Client, workload []workloadStream, o options, span func(n int) (lo, hi int)) error {
	step := max(o.batch, 1)
	var wg sync.WaitGroup
	errs := make(chan error, o.clients)
	for p := 0; p < o.clients; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			// ring bounds this producer's outstanding async requests to the
			// in-flight window.
			ring := make([]rbmim.ClientPending, o.inflight)
			n := 0
			send := func(id string, block []rbmim.Observation) error {
				if o.inflight <= 1 {
					if o.batch > 0 {
						return c.IngestBatch(id, block)
					}
					return c.Ingest(id, block[0])
				}
				if n >= len(ring) {
					if err := ring[n%len(ring)].Wait(); err != nil {
						return err
					}
				}
				var pd rbmim.ClientPending
				var err error
				if o.batch > 0 {
					pd, err = c.IngestBatchAsync(id, block)
				} else {
					pd, err = c.IngestAsync(id, block[0])
				}
				if err != nil {
					return err
				}
				ring[n%len(ring)] = pd
				n++
				return nil
			}
			for s := p; s < len(workload); s += o.clients {
				ws := workload[s]
				lo, hi := span(len(ws.obs))
				for i := lo; i < hi; i += step {
					if err := send(ws.id, ws.obs[i:min(i+step, hi)]); err != nil {
						errs <- err
						return
					}
				}
			}
			for i := 0; i < n && i < len(ring); i++ {
				if err := ring[i].Wait(); err != nil {
					errs <- err
					return
				}
			}
		}(p)
	}
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
		return nil
	}
}

// ingestLatency folds the client-observed rtt_ingest* stages (single and
// batch ingests) into one p50/p95/p99 summary in milliseconds; ok is false
// when nothing was timed.
func ingestLatency(stages []rbmim.TelemetryStage) (p50, p95, p99 float64, ok bool) {
	var group []rbmim.TelemetryStage
	for _, st := range stages {
		if strings.HasPrefix(st.Stage, "rtt_ingest") {
			st.Stage = "ingest" // common name so the merge folds them together
			group = append(group, st)
		}
	}
	merged := rbmim.MergeTelemetryStages(group)
	if len(merged) == 0 || merged[0].Count == 0 {
		return 0, 0, 0, false
	}
	m := merged[0]
	return float64(m.P50NS) / 1e6, float64(m.P95NS) / 1e6, float64(m.P99NS) / 1e6, true
}

// buildWorkload pre-generates every stream's observation sequence: two RBF
// concepts with a sudden switch halfway, so every stream carries a real
// drift for the churners and migrations to see.
func buildWorkload(streams, instances, features, classes int) ([]workloadStream, error) {
	out := make([]workloadStream, streams)
	for s := range out {
		cfg := synth.Config{Features: features, Classes: classes, Seed: int64(1000 + s)}
		before, err := synth.NewRBF(cfg, 3, 0.08)
		if err != nil {
			return nil, err
		}
		afterCfg := cfg
		afterCfg.Seed = cfg.Seed + 500000
		after, err := synth.NewRBF(afterCfg, 3, 0.08)
		if err != nil {
			return nil, err
		}
		src := rbmim.NewDriftStream(before, after, rbmim.SuddenDrift, instances/2, 0, cfg.Seed)
		obs := make([]rbmim.Observation, instances)
		for i := range obs {
			in := src.Next()
			obs[i] = rbmim.Observation{X: in.X, TrueClass: in.Y, Predicted: in.Y}
		}
		out[s] = workloadStream{id: fmt.Sprintf("stream-%04d", s), obs: obs}
	}
	return out, nil
}

// balanceString compacts the per-shard ingest counts into min/median/max.
func balanceString(loads []uint64) string {
	if len(loads) == 0 {
		return "-"
	}
	sorted := append([]uint64(nil), loads...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return fmt.Sprintf("min=%d med=%d max=%d", sorted[0], sorted[len(sorted)/2], sorted[len(sorted)-1])
}
