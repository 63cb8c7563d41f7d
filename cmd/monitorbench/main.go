// Command monitorbench stress-tests the sharded multi-stream Monitor: it
// fans a population of independent RBF streams (each with its own drift
// schedule) across the monitor's shards from several producer goroutines,
// then reports per-shard balance, throughput, and drift-event counts for
// each shard count in the sweep. The throughput table demonstrates shard
// scaling — per-stream detectors are independent, so ingestion parallelizes
// until the producers or the memory bus saturate.
//
// Usage:
//
//	monitorbench [-streams 256] [-instances 4000] [-features 20] [-classes 5]
//	             [-shards 1,2,4,8|auto] [-producers 0] [-procs 1,4,8] [-drift]
//	             [-batch 256] [-json BENCH_monitor.json]
//	             [-checkpoint mem|DIR] [-ckptint 500ms]
//	             [-remote ADDR] [-clients N] [-conns K] [-inflight W] [-churn S]
//	             [-retry] [-chaosreset N] [-chaosdelay D] [-chaosdup P]
//	             [-chaosdrop P] [-chaosseed S]
//	             [-cluster ADDR1,ADDR2,...] [-migrate M]
//
// With -drift every stream undergoes a sudden concept change halfway
// through, so the drift-event column should be non-zero for most streams.
// With -batch N > 0 every shard count is swept twice — per-instance Ingest
// and N-observation IngestBatch — and each batched row reports its speedup
// over the per-instance row. With -json the run is appended as one record
// to the given trajectory file (an array of runs, one per invocation).
// With -checkpoint the monitor persists every stream's detector state on the
// -ckptint cadence ("mem" = in-memory store, anything else = filesystem
// store rooted at that directory, one fresh subdirectory per sweep), so the
// throughput table shows what checkpointing costs the ingest path.
//
// With -procs the whole sweep repeats under each GOMAXPROCS value — the
// multi-core scaling table: the instances/s column is aggregate throughput
// across all producers and shards, and each row beyond the first core count
// reports its speedup over the same shard/mode row at the first core count.
// Each core count appends its own record to the -json trajectory (the
// config's gomaxprocs field keys them). "-shards auto" resolves to the
// monitor's autotuner (one shard per schedulable core at each -procs step).
//
// With -remote ADDR monitorbench becomes a load generator for a running
// driftserver: the shard sweep is skipped (sharding is the server's
// business) and the workload is driven over the wire with IngestBatch
// (-batch > 0) or per-observation Ingest. The run ends with a
// FlushCheckpoints barrier and verifies through the wire snapshot that the
// server processed every observation sent — a non-zero exit otherwise,
// which is what the CI smoke asserts. JSON rows embed the server's
// canonical snapshot encoding.
//
// The remote saturation knobs:
//
//   - -clients N overrides -producers as the number of load goroutines;
//   - -inflight W opens a pipelined in-flight window of W requests per
//     connection (1 = the serial stop-and-wait client, the default);
//   - -conns K > 0 multiplexes all clients over one rbmim.Client with K
//     pipelined connections and consistent-hash stream affinity (0 = one
//     single-connection Client per load goroutine, the historical shape);
//   - -churn S runs S subscriber churners that connect, drain a few drift
//     events, and disconnect in a loop for the whole run — the
//     slow-subscriber/eviction path exercised while the ingest path is
//     saturated.
//
// Sweeping -clients x -inflight is the saturation experiment in
// EXPERIMENTS.md: obs/s as a function of offered concurrency and window
// depth.
//
// The degraded-network knobs: -retry dials every sender with the default
// retry policy (reconnect with backoff, busy retries, stall watchdog), and
// any non-zero -chaos* flag interposes the internal/chaos fault proxy
// between the senders and the server — -chaosreset N hard-resets each
// connection after ~N frames, -chaosdelay adds a per-frame forwarding
// delay, -chaosdup and -chaosdrop duplicate/drop frames with the given
// probability, -chaosseed fixes the fault schedule. A chaos run forces the
// retry policy on, prints the proxy's injection tally alongside the
// client's reconnect count and the server's dedup/shed deltas, and still
// enforces the exact-conservation exit check — plus, under -chaosreset, a
// ≥ 1 reconnect check so the resilience claim is never vacuously green.
// The control connection (snapshots, flush barrier) bypasses the proxy.
//
// With -cluster ADDR1,ADDR2,... monitorbench drives a driftserver fleet
// through one rbmim.Client dialed to every address: streams route to
// members by its consistent-hash ring, -conns/-inflight shape each member's
// connection set,
// and the run ends with a fleet-wide flush barrier and an exact
// conservation check against the merged snapshot. With -migrate M the run
// pauses halfway and live-migrates M streams to their next ring neighbor
// via checkpoint handoff, then finishes the second half of the workload on
// the new placement — the merged counters must still account for every
// observation, and every migrated stream must have rehydrated on its
// target. The chaos and churn knobs are single-server-mode only and are
// rejected with -cluster.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"rbmim"
	"rbmim/internal/chaos"
	"rbmim/internal/synth"
)

func main() {
	streams := flag.Int("streams", 256, "independent streams to multiplex")
	instances := flag.Int("instances", 4000, "observations per stream")
	features := flag.Int("features", 20, "features per stream")
	classes := flag.Int("classes", 5, "classes per stream")
	shardList := flag.String("shards", "", "comma-separated shard counts to sweep (default 1,2,4,...,NumCPU)")
	producers := flag.Int("producers", 0, "producer goroutines (default NumCPU)")
	drift := flag.Bool("drift", false, "inject a sudden drift halfway through every stream")
	queue := flag.Int("queue", 4096, "per-shard queue capacity in observations (envelopes for batch mode are sized accordingly)")
	batch := flag.Int("batch", 0, "IngestBatch block size; > 0 additionally sweeps the batched path against per-instance Ingest")
	jsonPath := flag.String("json", "", "append this run's rows to the given JSON trajectory file")
	checkpoint := flag.String("checkpoint", "", `enable checkpointing: "mem" or a directory for a filesystem store`)
	ckptInt := flag.Duration("ckptint", 500*time.Millisecond, "periodic snapshot cadence when -checkpoint is set")
	remote := flag.String("remote", "", "drive a running driftserver at this address instead of an in-process monitor")
	clients := flag.Int("clients", 0, "remote mode: load goroutines (overrides -producers; 0 = use -producers)")
	conns := flag.Int("conns", 0, "remote mode: multiplex all clients over one client with this many pipelined connections (0 = one connection per client)")
	inflight := flag.Int("inflight", 1, "remote mode: pipelined in-flight requests per connection (1 = serial)")
	churn := flag.Int("churn", 0, "remote mode: subscriber churners connecting/draining/disconnecting for the whole run")
	retry := flag.Bool("retry", false, "remote mode: dial with the default retry policy (reconnect, backoff, busy retries)")
	chaosReset := flag.Int("chaosreset", 0, "remote mode: fault proxy hard-resets each connection after ~this many frames (0 disables)")
	chaosDelay := flag.Duration("chaosdelay", 0, "remote mode: fault-proxy per-frame forwarding delay")
	chaosDup := flag.Float64("chaosdup", 0, "remote mode: fault-proxy frame duplication probability")
	chaosDrop := flag.Float64("chaosdrop", 0, "remote mode: fault-proxy frame drop probability")
	chaosSeed := flag.Int64("chaosseed", 1, "remote mode: fault-proxy schedule seed")
	cluster := flag.String("cluster", "", "drive a driftserver fleet at these comma-separated addresses via the consistent-hash cluster client")
	migrateN := flag.Int("migrate", 0, "cluster mode: live-migrate this many streams to their next ring neighbor halfway through the run")
	procsList := flag.String("procs", "", "comma-separated GOMAXPROCS values to sweep (multi-core scaling mode; default: current setting only)")
	flag.Parse()

	shardCounts := parseShards(*shardList)
	procs := parseProcs(*procsList)
	if *producers <= 0 {
		*producers = runtime.NumCPU()
	}

	fmt.Printf("monitorbench: %d streams x %d instances, %d features, %d classes, %d producers (GOMAXPROCS sweep %v)\n\n",
		*streams, *instances, *features, *classes, *producers, procs)

	// Pre-draw every stream's observations so the sweep measures the monitor,
	// not the generators.
	workload, err := buildWorkload(*streams, *instances, *features, *classes, *drift)
	if err != nil {
		fail(err)
	}

	if *cluster != "" {
		opts := remoteOpts{
			clients: *clients, conns: *conns, inflight: *inflight,
			batch: *batch, retry: *retry,
			chaosReset: *chaosReset, chaosDelay: *chaosDelay,
			chaosDup: *chaosDup, chaosDrop: *chaosDrop,
		}
		if opts.chaosEnabled() || *churn > 0 {
			fail(fmt.Errorf("-chaos* and -churn are single-server knobs; they cannot be combined with -cluster"))
		}
		if opts.clients <= 0 {
			opts.clients = *producers
		}
		if opts.inflight < 1 {
			opts.inflight = 1
		}
		addrs := splitAddrs(*cluster)
		runClusterMode(workload, opts, addrs, *migrateN, *jsonPath, runConfig{
			Streams: *streams, Instances: *instances, Features: *features,
			Classes: *classes, Producers: opts.clients, Drift: *drift,
			GOMAXPROCS: runtime.GOMAXPROCS(0), Cluster: *cluster,
			Conns: opts.conns, Inflight: opts.inflight,
			Retry: opts.retry, Migrate: *migrateN,
		})
		return
	}

	if *remote != "" {
		opts := remoteOpts{
			clients: *clients, conns: *conns, inflight: *inflight,
			batch: *batch, churn: *churn, addr: *remote, retry: *retry,
			chaosReset: *chaosReset, chaosDelay: *chaosDelay,
			chaosDup: *chaosDup, chaosDrop: *chaosDrop, chaosSeed: *chaosSeed,
		}
		if opts.clients <= 0 {
			opts.clients = *producers
		}
		if opts.inflight < 1 {
			opts.inflight = 1
		}
		runRemoteMode(workload, opts, *jsonPath, runConfig{
			Streams: *streams, Instances: *instances, Features: *features,
			Classes: *classes, Producers: opts.clients, Drift: *drift,
			GOMAXPROCS: runtime.GOMAXPROCS(0), Remote: *remote,
			Conns: opts.conns, Inflight: opts.inflight, Churn: opts.churn,
			Retry: opts.retry || opts.chaosEnabled(), ChaosReset: opts.chaosReset,
			ChaosDelayMS: float64(opts.chaosDelay.Microseconds()) / 1000,
			ChaosDup:     opts.chaosDup, ChaosDrop: opts.chaosDrop,
		})
		return
	}

	modes := []int{0}
	if *batch > 0 {
		modes = []int{0, *batch}
	}
	prevProcs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prevProcs)
	// coreBase remembers the aggregate rate of each shard/mode row at the
	// first core count, so later core counts print their scaling factor.
	type rowKey struct{ shards, batch int }
	coreBase := map[rowKey]float64{}
	for pi, p := range procs {
		runtime.GOMAXPROCS(p)
		if len(procs) > 1 {
			fmt.Printf("--- GOMAXPROCS=%d ---\n", p)
		}
		fmt.Printf("%-8s %-10s %-14s %-12s %-10s %-10s %s\n", "shards", "mode", "instances/s", "wall", "drifts", "streams", "shard balance (ingested)")
		var rows []runRow
		base := map[int]float64{} // per-instance rate per shard count
		var firstRate float64
		for _, shardSel := range shardCounts {
			shards := shardSel
			if shards == 0 { // "auto": one shard per schedulable core
				shards = p
			}
			for _, b := range modes {
				res, err := runSweep(workload, *features, *classes, shards, *producers, *queue, b, *checkpoint, *ckptInt)
				if err != nil {
					fail(err)
				}
				mode := "single"
				note := ""
				if b > 0 {
					mode = fmt.Sprintf("batch%d", b)
					if s := base[shards]; s > 0 {
						note = fmt.Sprintf("  (%.2fx vs single)", res.rate/s)
					}
				} else {
					base[shards] = res.rate
					if firstRate == 0 {
						firstRate = res.rate
					} else {
						note = fmt.Sprintf("  (%.2fx vs 1 shard)", res.rate/firstRate)
					}
				}
				k := rowKey{shardSel, b}
				if pi == 0 {
					coreBase[k] = res.rate
				} else if s := coreBase[k]; s > 0 {
					note += fmt.Sprintf("  (%.2fx vs %d cores)", res.rate/s, procs[0])
				}
				fmt.Printf("%-8d %-10s %-14s %-12s %-10d %-10d %s%s\n",
					shards, mode, fmt.Sprintf("%.0f", res.rate), res.wall.Round(time.Millisecond),
					res.drifts, res.streams, res.balance, note)
				sn := res.sn
				rows = append(rows, runRow{
					Shards: shards, Batch: b, InstancesPerSec: res.rate,
					WallMS: float64(res.wall.Microseconds()) / 1000,
					Drifts: res.drifts, Streams: res.streams, Snapshot: &sn,
				})
			}
		}
		if *jsonPath != "" {
			rec := runRecord{
				Generated: time.Now().UTC().Format(time.RFC3339),
				Config: runConfig{
					Streams: *streams, Instances: *instances, Features: *features,
					Classes: *classes, Producers: *producers, Queue: *queue,
					Drift: *drift, GOMAXPROCS: p,
					Checkpoint: *checkpoint,
				},
				Rows: rows,
			}
			if err := appendRecord(*jsonPath, rec); err != nil {
				fail(err)
			}
			fmt.Printf("\nappended run record to %s\n", *jsonPath)
		}
		if len(procs) > 1 {
			fmt.Println()
		}
	}
}

// runRecord is one monitorbench invocation in the JSON trajectory file.
type runRecord struct {
	Generated string    `json:"generated"`
	Config    runConfig `json:"config"`
	Rows      []runRow  `json:"rows"`
}

type runConfig struct {
	Streams    int  `json:"streams"`
	Instances  int  `json:"instances"`
	Features   int  `json:"features"`
	Classes    int  `json:"classes"`
	Producers  int  `json:"producers"`
	Queue      int  `json:"queue"`
	Drift      bool `json:"drift"`
	GOMAXPROCS int  `json:"gomaxprocs"`
	// Checkpoint records the -checkpoint mode of the run ("" = disabled) so
	// trajectory rows with and without state persistence stay comparable.
	Checkpoint string `json:"checkpoint,omitempty"`
	// Remote records the driftserver address of a -remote loadgen run
	// ("" = in-process monitor).
	Remote string `json:"remote,omitempty"`
	// Cluster records the comma-separated fleet addresses of a -cluster run,
	// and Migrate how many streams were live-migrated mid-run.
	Cluster string `json:"cluster,omitempty"`
	Migrate int    `json:"migrate,omitempty"`
	// Conns/Inflight/Churn record the remote saturation knobs: pooled
	// connections (0 = one per client), in-flight window per connection,
	// and subscriber churners running alongside the load.
	Conns    int `json:"conns,omitempty"`
	Inflight int `json:"inflight,omitempty"`
	Churn    int `json:"churn,omitempty"`
	// Retry and the Chaos* fields record degraded-network runs: the client's
	// retry policy and the fault-proxy schedule (see internal/chaos), so
	// clean and degraded rows in the trajectory stay distinguishable.
	Retry        bool    `json:"retry,omitempty"`
	ChaosReset   int     `json:"chaos_reset,omitempty"`
	ChaosDelayMS float64 `json:"chaos_delay_ms,omitempty"`
	ChaosDup     float64 `json:"chaos_dup,omitempty"`
	ChaosDrop    float64 `json:"chaos_drop,omitempty"`
}

type runRow struct {
	Shards          int     `json:"shards"`
	Batch           int     `json:"batch"` // 0 = per-instance Ingest
	InstancesPerSec float64 `json:"instances_per_sec"`
	WallMS          float64 `json:"wall_ms"`
	Drifts          uint64  `json:"drifts"`
	Streams         int     `json:"streams"`
	// Client-observed ingest latency quantiles in milliseconds (submit to
	// reply matched, merged across the run's connections); present on
	// -remote and -cluster rows.
	IngestP50MS float64 `json:"ingest_p50_ms,omitempty"`
	IngestP95MS float64 `json:"ingest_p95_ms,omitempty"`
	IngestP99MS float64 `json:"ingest_p99_ms,omitempty"`
	// Snapshot is the monitor's end-of-run state in the canonical
	// stable-field-order encoding (monitor.Snapshot.MarshalJSON) — the same
	// bytes the server's Snapshot reply and /metrics pipeline carry.
	Snapshot *rbmim.MonitorSnapshot `json:"snapshot,omitempty"`
}

// appendRecord appends rec to the JSON array at path (creating it when
// missing), keeping the file a growing benchmark trajectory.
func appendRecord(path string, rec runRecord) error {
	var records []runRecord
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &records); err != nil {
			return fmt.Errorf("existing %s is not a run-record array: %w", path, err)
		}
	}
	records = append(records, rec)
	data, err := json.MarshalIndent(records, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

type workloadStream struct {
	id  string
	obs []rbmim.Observation
}

type sweepResult struct {
	rate    float64
	wall    time.Duration
	drifts  uint64
	streams int
	balance string
	sn      rbmim.MonitorSnapshot
}

// remoteOpts bundles the -remote saturation knobs.
type remoteOpts struct {
	clients  int // load goroutines
	conns    int // pooled connections; 0 = one private connection per client
	inflight int // in-flight window per connection; 1 = serial
	batch    int
	churn    int // subscriber churners
	addr     string
	retry    bool // dial with the default retry policy

	// The -chaos* fault-proxy knobs; any non-zero fault interposes the
	// proxy and forces the retry policy on (a faulted run without retries
	// just fails).
	chaosReset int
	chaosDelay time.Duration
	chaosDup   float64
	chaosDrop  float64
	chaosSeed  int64
}

func (o remoteOpts) chaosEnabled() bool {
	return o.chaosReset > 0 || o.chaosDelay > 0 || o.chaosDup > 0 || o.chaosDrop > 0
}

// runRemoteMode is the -remote loadgen path: it drives a running
// driftserver over loopback/network, prints one result row, optionally
// appends it to the JSON trajectory, and fails the process when the
// server-side counters do not account for every observation sent.
func runRemoteMode(workload []workloadStream, opts remoteOpts, jsonPath string, cfg runConfig) {
	res, err := runRemote(workload, opts)
	if err != nil {
		fail(err)
	}
	report(res.wireResult, opts.batch, "shard balance (ingested)",
		fmt.Sprintf("clients=%d conns=%d inflight=%d churn=%d", opts.clients, opts.conns, opts.inflight, opts.churn),
		jsonPath, cfg)
	if res.faults != nil {
		f := res.faults
		fmt.Printf("chaos: conns=%d frames=%d dropped=%d duplicated=%d resets=%d blackholed=%d  reconnects=%d dedup_hits=%d shedded=%d\n",
			f.Conns, f.Frames, f.Dropped, f.Duplicated, f.Resets, f.Blackholed,
			res.reconnects, res.dedupHits, res.shedded)
	}
	checkConserved(workload, res.wireResult)
	// With -chaosreset the run must actually have exercised the reconnect
	// path — a zero count means the proxy never fired and the "survived a
	// degraded network" claim is vacuous.
	if opts.chaosReset > 0 && res.reconnects == 0 {
		fail(fmt.Errorf("chaos run with -chaosreset %d recorded zero reconnects", opts.chaosReset))
	}
}

// wireResult is a sweepResult measured over the wire, plus the pre-run
// Ingested counter (a long-lived server accumulates) and the client-observed
// rtt_* latency stages.
type wireResult struct {
	sweepResult
	before  uint64
	latency []rbmim.TelemetryStage
}

// report prints a -remote or -cluster run's result row (wire describes the
// client shape) and its client-observed ingest latency, and appends the
// row to the JSON trajectory when one is given.
func report(res wireResult, batch int, balanceCol, wire, jsonPath string, cfg runConfig) {
	mode := "single"
	if batch > 0 {
		mode = fmt.Sprintf("batch%d", batch)
	}
	fmt.Printf("%-8s %-10s %-14s %-12s %-10s %-10s %s\n", "shards", "mode", "instances/s", "wall", "drifts", "streams", balanceCol)
	fmt.Printf("%-8d %-10s %-14s %-12s %-10d %-10d %s  [%s]\n",
		res.sn.Shards, mode, fmt.Sprintf("%.0f", res.rate), res.wall.Round(time.Millisecond),
		res.drifts, res.streams, res.balance, wire)
	p50, p95, p99, haveLat := ingestLatency(res.latency)
	if haveLat {
		fmt.Printf("ingest latency (client-observed rtt): p50=%.3fms p95=%.3fms p99=%.3fms\n", p50, p95, p99)
	}
	if jsonPath == "" {
		return
	}
	rec := runRecord{
		Generated: time.Now().UTC().Format(time.RFC3339),
		Config:    cfg,
		Rows: []runRow{{
			Shards: res.sn.Shards, Batch: batch, InstancesPerSec: res.rate,
			WallMS: float64(res.wall.Microseconds()) / 1000,
			Drifts: res.drifts, Streams: res.streams,
			IngestP50MS: p50, IngestP95MS: p95, IngestP99MS: p99,
			Snapshot: &res.sn,
		}},
	}
	if err := appendRecord(jsonPath, rec); err != nil {
		fail(err)
	}
	fmt.Printf("\nappended run record to %s\n", jsonPath)
}

// checkConserved is the smoke assertion: the server (or the merged fleet)
// must have processed exactly what was sent — ingests block, so nothing may
// be dropped, wherever each stream or half of its life landed.
func checkConserved(workload []workloadStream, res wireResult) {
	want := uint64(0)
	for _, ws := range workload {
		want += uint64(len(ws.obs))
	}
	if got := res.sn.Ingested - res.before; got != want {
		fail(fmt.Errorf("ingested %d observations, sent %d", got, want))
	}
}

// splitAddrs expands the -cluster flag into its member addresses.
func splitAddrs(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	if len(out) == 0 {
		fail(fmt.Errorf("-cluster needs at least one address"))
	}
	return out
}

// runClusterMode is the -cluster loadgen path: it drives a driftserver
// fleet through one client over every member, optionally live-migrating
// streams mid-run, prints one result row with the per-member balance, and
// fails the process unless the merged fleet counters account for every
// observation sent — and, with -migrate, unless every migrated stream
// actually rehydrated on its target.
func runClusterMode(workload []workloadStream, opts remoteOpts, addrs []string, migrate int, jsonPath string, cfg runConfig) {
	res, err := runCluster(workload, opts, addrs, migrate)
	if err != nil {
		fail(err)
	}
	report(res.wireResult, opts.batch, "member balance (ingested)",
		fmt.Sprintf("members=%d clients=%d conns=%d inflight=%d migrated=%d", len(addrs), opts.clients, opts.conns, opts.inflight, res.migrated),
		jsonPath, cfg)
	checkConserved(workload, res.wireResult)
	// Every handoff installs via the rehydration path on its target, so a
	// migrating run must show at least as many rehydrations as migrations —
	// otherwise the handoff silently degenerated to fresh detectors.
	if migrate > 0 && res.rehydrated < res.migrated {
		fail(fmt.Errorf("migrated %d streams but the fleet rehydrated only %d", res.migrated, res.rehydrated))
	}
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

// replay sends obs[lo:hi) of every stream, with span choosing (lo, hi) from
// the stream's length. opts.clients producers feed disjoint stream subsets;
// producer p sends through senders[p % len(senders)], so one shared Client
// multiplexes every producer and one Client per producer gives each a
// private connection. With opts.inflight > 1 each producer keeps a ring of
// async requests pipelined instead of idling a round trip per block.
func replay(senders []*rbmim.Client, workload []workloadStream, opts remoteOpts, span func(n int) (lo, hi int)) error {
	step := opts.batch
	if step <= 0 {
		step = 1
	}
	var wg sync.WaitGroup
	errs := make(chan error, opts.clients)
	for p := 0; p < opts.clients; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			c := senders[p%len(senders)]
			// ring bounds this producer's outstanding async requests to the
			// in-flight window.
			ring := make([]rbmim.ClientPending, opts.inflight)
			n := 0
			send := func(id string, block []rbmim.Observation) error {
				if opts.inflight <= 1 {
					if opts.batch > 0 {
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
				if opts.batch > 0 {
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
			for s := p; s < len(workload); s += opts.clients {
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

// runCluster replays the workload against the fleet. With migrate > 0 the
// run is two-phase: the first half of every stream, then migrate streams
// hop to their next ring neighbor via checkpoint handoff, then the second
// half lands on the new placement.
func runCluster(workload []workloadStream, opts remoteOpts, addrs []string, migrate int) (clusterResult, error) {
	cc, err := rbmim.Dial(rbmim.ClientConfig{
		Addrs: addrs, Conns: opts.conns, Window: opts.inflight, Retry: retryPolicy(opts.retry),
	})
	if err != nil {
		return clusterResult{}, err
	}
	defer cc.Close()
	// Per-member pre-run snapshots keep both the merged deltas and the
	// balance column correct against a long-lived fleet.
	beforeMembers, err := cc.MemberSnapshots()
	if err != nil {
		return clusterResult{}, err
	}
	beforeByAddr := map[string]rbmim.MonitorSnapshot{}
	merged := make([]rbmim.MonitorSnapshot, 0, len(beforeMembers))
	for _, m := range beforeMembers {
		beforeByAddr[m.Addr] = m.Snapshot
		merged = append(merged, m.Snapshot)
	}
	before := rbmim.MergeSnapshots(merged...)

	senders := []*rbmim.Client{cc}
	start := time.Now()
	if err := replay(senders, workload, opts, func(n int) (int, int) { return 0, n / 2 }); err != nil {
		return clusterResult{}, err
	}
	// Live migration between the halves: each chosen stream hops to the
	// member after its current owner in sorted order, concurrently with
	// nothing (the producers are joined) but with its first-half state
	// trained — the handoff carries it.
	members := cc.Members()
	migrated := uint64(0)
	for s := 0; s < migrate && s < len(workload); s++ {
		id := workload[s].id
		owner, err := cc.Owner(id)
		if err != nil {
			return clusterResult{}, err
		}
		next := members[0]
		for i, m := range members {
			if m == owner {
				next = members[(i+1)%len(members)]
				break
			}
		}
		if next == owner {
			continue // single-member fleet: nowhere to go
		}
		if err := cc.Migrate(id, next); err != nil {
			return clusterResult{}, fmt.Errorf("migrating %s to %s: %w", id, next, err)
		}
		migrated++
	}
	if err := replay(senders, workload, opts, func(n int) (int, int) { return n / 2, n }); err != nil {
		return clusterResult{}, err
	}
	if err := cc.FlushCheckpoints(); err != nil {
		return clusterResult{}, err
	}
	wall := time.Since(start)

	after, err := cc.Snapshot()
	if err != nil {
		return clusterResult{}, err
	}
	perMember, err := cc.MemberSnapshots()
	if err != nil {
		return clusterResult{}, err
	}
	loads := make([]uint64, 0, len(perMember))
	for _, m := range perMember {
		loads = append(loads, m.Ingested-beforeByAddr[m.Addr].Ingested)
	}
	return clusterResult{
		wireResult: wireResult{
			sweepResult: sweepResult{
				rate:    float64(after.Ingested-before.Ingested) / wall.Seconds(),
				wall:    wall,
				drifts:  after.Drifts - before.Drifts,
				streams: after.Streams,
				balance: balanceString(loads),
				sn:      after,
			},
			before:  before.Ingested,
			latency: cc.Latency(),
		},
		migrated:   migrated,
		rehydrated: after.Rehydrated - before.Rehydrated,
	}, nil
}

// clusterResult is a wireResult over the merged fleet snapshot, plus the
// migration tally the -migrate assertions need.
type clusterResult struct {
	wireResult
	migrated   uint64
	rehydrated uint64
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

// runRemote replays the workload against a driftserver, clients feeding
// disjoint stream subsets — each over a private connection, or all
// multiplexed over one Client with opts.conns connections. Deltas against
// the pre-run snapshot keep the numbers correct on a long-lived server.
func runRemote(workload []workloadStream, opts remoteOpts) (remoteResult, error) {
	// The control connection (snapshots, flush barrier, churner subscribes)
	// always dials the server directly: the proxy degrades the load path,
	// not the measurement.
	ctl, err := rbmim.Dial(rbmim.ClientConfig{Addrs: []string{opts.addr}})
	if err != nil {
		return remoteResult{}, err
	}
	defer ctl.Close()
	before, err := ctl.Snapshot()
	if err != nil {
		return remoteResult{}, err
	}

	// With any -chaos* fault set, senders dial through an in-process fault
	// proxy and the retry policy is forced on (a degraded run without
	// retries just fails).
	sendAddr := opts.addr
	var px *chaos.Proxy
	if opts.chaosEnabled() {
		px, err = chaos.New(chaos.Config{
			Target:        opts.addr,
			Seed:          opts.chaosSeed,
			Delay:         opts.chaosDelay,
			DropRate:      opts.chaosDrop,
			DuplicateRate: opts.chaosDup,
			ResetEvery:    opts.chaosReset,
		})
		if err != nil {
			return remoteResult{}, err
		}
		defer px.Close()
		sendAddr = px.Addr()
	}

	// -conns K > 0: one Client with K connections shared by every producer;
	// -conns 0: one single-connection Client per producer.
	nSenders := 1
	if opts.conns == 0 {
		nSenders = opts.clients
	}
	senders := make([]*rbmim.Client, 0, nSenders)
	for len(senders) < nSenders {
		c, err := rbmim.Dial(rbmim.ClientConfig{
			Addrs: []string{sendAddr}, Conns: opts.conns, Window: opts.inflight,
			Retry: retryPolicy(opts.retry || px != nil),
		})
		if err != nil {
			return remoteResult{}, err
		}
		defer c.Close()
		senders = append(senders, c)
	}

	// Subscriber churners: connect, drain a handful of events (or time out),
	// disconnect, repeat — the reconnect/eviction path exercised while the
	// ingest path is under load.
	churnDone := make(chan struct{})
	var churnWG sync.WaitGroup
	for s := 0; s < opts.churn; s++ {
		churnWG.Add(1)
		go func() {
			defer churnWG.Done()
			for {
				select {
				case <-churnDone:
					return
				default:
				}
				sub, err := ctl.Subscribe(8)
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
					case <-churnDone:
						break drain
					}
				}
				sub.Close()
			}
		}()
	}
	stopChurn := func() {
		close(churnDone)
		churnWG.Wait()
	}

	start := time.Now()
	if err := replay(senders, workload, opts, func(n int) (int, int) { return 0, n }); err != nil {
		stopChurn()
		return remoteResult{}, err
	}
	// Barrier: every acked observation is enqueued, so one monitor-wide
	// flush makes all of it applied (and checkpoints, if the server has a
	// store, durable) before the clock stops.
	if err := ctl.FlushCheckpoints(); err != nil {
		stopChurn()
		return remoteResult{}, err
	}
	wall := time.Since(start)
	stopChurn()
	after, err := ctl.Snapshot()
	if err != nil {
		return remoteResult{}, err
	}
	delta := after.Ingested - before.Ingested
	perShard := make([]uint64, len(after.ShardIngested))
	for i := range perShard {
		perShard[i] = after.ShardIngested[i]
		if i < len(before.ShardIngested) {
			perShard[i] -= before.ShardIngested[i]
		}
	}
	var reconnects uint64
	var latency [][]rbmim.TelemetryStage
	for _, c := range senders {
		reconnects += c.Reconnects()
		latency = append(latency, c.Latency())
	}
	res := remoteResult{
		wireResult: wireResult{
			sweepResult: sweepResult{
				rate:    float64(delta) / wall.Seconds(),
				wall:    wall,
				drifts:  after.Drifts - before.Drifts,
				streams: after.Streams,
				balance: balanceString(perShard),
				sn:      after,
			},
			before:  before.Ingested,
			latency: rbmim.MergeTelemetryStages(latency...),
		},
		reconnects: reconnects,
		dedupHits:  after.DedupHits - before.DedupHits,
		shedded:    after.Shedded - before.Shedded,
	}
	if px != nil {
		faults := px.Stats()
		res.faults = &faults
	}
	return res, nil
}

// remoteResult is a wireResult plus, on degraded runs, the client-side
// reconnect count, the server's dedup/shed deltas, and the fault proxy's
// injection tally.
type remoteResult struct {
	wireResult
	reconnects uint64
	dedupHits  uint64
	shedded    uint64
	faults     *chaos.Stats
}

// buildWorkload pre-generates every stream's observation sequence.
func buildWorkload(streams, instances, features, classes int, drift bool) ([]workloadStream, error) {
	out := make([]workloadStream, streams)
	for s := range out {
		cfg := synth.Config{Features: features, Classes: classes, Seed: int64(1000 + s)}
		var src rbmim.Stream
		src, err := synth.NewRBF(cfg, 3, 0.08)
		if err != nil {
			return nil, err
		}
		if drift {
			afterCfg := cfg
			afterCfg.Seed = cfg.Seed + 500000
			after, err := synth.NewRBF(afterCfg, 3, 0.08)
			if err != nil {
				return nil, err
			}
			src = rbmim.NewDriftStream(src, after, rbmim.SuddenDrift, instances/2, 0, cfg.Seed)
		}
		obs := make([]rbmim.Observation, instances)
		for i := range obs {
			in := src.Next()
			obs[i] = rbmim.Observation{X: in.X, TrueClass: in.Y, Predicted: in.Y}
		}
		out[s] = workloadStream{id: fmt.Sprintf("stream-%04d", s), obs: obs}
	}
	return out, nil
}

// runSweep replays the whole workload through a fresh monitor with the given
// shard count, producers feeding disjoint stream subsets. batch > 0 sends
// the workload in IngestBatch blocks of that size; the queue capacity is
// then scaled down so both modes bound the same number of in-flight
// observations.
func runSweep(workload []workloadStream, features, classes, shards, producers, queue, batch int, checkpoint string, ckptInt time.Duration) (sweepResult, error) {
	qs := queue
	if batch > 0 {
		if qs = queue / batch; qs < 1 {
			qs = 1
		}
	}
	// A fresh store per sweep — and a unique directory per sweep AND per
	// invocation: reusing one would let later sweeps (or later runs against
	// the same -checkpoint dir) rehydrate earlier trained detectors,
	// silently changing the measured workload.
	var ckpt rbmim.CheckpointConfig
	switch checkpoint {
	case "":
	case "mem":
		ckpt = rbmim.CheckpointConfig{Store: rbmim.NewMemStore(), Interval: ckptInt}
	default:
		if err := os.MkdirAll(checkpoint, 0o755); err != nil {
			return sweepResult{}, err
		}
		dir, err := os.MkdirTemp(checkpoint, fmt.Sprintf("shards%d-batch%d-", shards, batch))
		if err != nil {
			return sweepResult{}, err
		}
		store, err := rbmim.NewFSStore(dir)
		if err != nil {
			return sweepResult{}, err
		}
		ckpt = rbmim.CheckpointConfig{Store: store, Interval: ckptInt}
	}
	m, err := rbmim.NewMonitor(rbmim.MonitorConfig{
		Detector: rbmim.DetectorConfig{
			Features: features,
			Classes:  classes,
			Seed:     7,
		},
		Shards:     shards,
		QueueSize:  qs,
		Checkpoint: ckpt,
	})
	if err != nil {
		return sweepResult{}, err
	}
	start := time.Now()
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for s := p; s < len(workload); s += producers {
				ws := workload[s]
				if batch > 0 {
					for i := 0; i < len(ws.obs); i += batch {
						end := i + batch
						if end > len(ws.obs) {
							end = len(ws.obs)
						}
						if err := m.IngestBatch(ws.id, ws.obs[i:end]); err != nil {
							return
						}
					}
					continue
				}
				for i := range ws.obs {
					if err := m.Ingest(ws.id, ws.obs[i]); err != nil {
						return
					}
				}
			}
		}(p)
	}
	wg.Wait()
	m.Close()
	wall := time.Since(start)

	sn := m.Snapshot()
	return sweepResult{
		rate:    float64(sn.Ingested) / wall.Seconds(),
		wall:    wall,
		drifts:  sn.Drifts,
		streams: sn.Streams,
		balance: balanceString(sn.ShardIngested),
		sn:      sn,
	}, nil
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

// parseShards expands the -shards flag, defaulting to powers of two up to
// NumCPU. The entry "auto" becomes the sentinel 0, resolved to the current
// GOMAXPROCS at sweep time (the monitor autotuner's choice).
func parseShards(s string) []int {
	if s == "" {
		var out []int
		for n := 1; n <= runtime.NumCPU(); n *= 2 {
			out = append(out, n)
		}
		if last := out[len(out)-1]; last != runtime.NumCPU() {
			out = append(out, runtime.NumCPU())
		}
		return out
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "auto" {
			out = append(out, 0)
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			fail(fmt.Errorf("bad -shards entry %q", part))
		}
		out = append(out, n)
	}
	return out
}

// parseProcs expands the -procs flag into the GOMAXPROCS sweep; empty means
// a single pass at the current setting.
func parseProcs(s string) []int {
	if s == "" {
		return []int{runtime.GOMAXPROCS(0)}
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			fail(fmt.Errorf("bad -procs entry %q", part))
		}
		out = append(out, n)
	}
	return out
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "monitorbench:", err)
	os.Exit(1)
}
