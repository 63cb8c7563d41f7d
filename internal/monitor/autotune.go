package monitor

// Shard-count autotuning. Shards are the monitor's unit of parallelism —
// each one is a goroutine that owns its streams' detectors — so the right
// count is keyed off how many cores the Go scheduler may actually use
// (runtime.GOMAXPROCS), not the machine's nominal CPU count: more shards
// than cores only adds context switching and spreads cache footprint
// without adding parallelism.

import "runtime"

// AutotuneShards returns the shard count New selects when Config.Shards is
// zero: one worker per schedulable core (runtime.GOMAXPROCS at call time).
// Producers live on the caller's goroutines, so with every core busy the
// workers and producers time-share — which is the throughput-optimal shape
// for a saturated monitor, and harmless for an idle one because parked
// shards cost nothing.
func AutotuneShards() int {
	if p := runtime.GOMAXPROCS(0); p > 1 {
		return p
	}
	return 1
}
