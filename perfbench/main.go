// Command perfbench is the repository's benchmark. Given a workload and a
// seed it generates the inputs, runs the workload against the program's
// public functions, checks the outputs, and prints every metric by name with
// its unit; the last line of standard output is one JSON object:
//
//	go build -o perfbench-bin . && ./perfbench-bin --workload wire-batch --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
// (see README.md). Timed metrics are reported at the speed meter's nominal
// host speed (meter.go).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// workloads maps each workload name to its stream mix.
var workloads = map[string]shape{
	// Table III families at V=20, Z=5 plus the Fig. 8 m=1 local drift and
	// the drift-free role-switch stream.
	"detect-replay": replayShape,
	"wire-batch":    replayShape,
	// 4-feature, 3-class streams, sent one observation per frame.
	"wire-single": {features: 4, classes: 3, perFamily: [numFamilies]int{2, 2, 2, 2, 2}, segLen: 6400, period: 9600, qualitySegs: 10, ir: 20},
}

var replayShape = shape{features: 20, classes: 5, perFamily: [numFamilies]int{2, 2, 2, 2, 2}, segLen: 6400, period: 9600, qualitySegs: 10, ir: 50}

// setupReps is how many times a run builds its stack; setup_s is the median.
const setupReps = 41

func main() {
	workload := flag.String("workload", "", "workload: detect-replay, wire-batch or wire-single")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	traceFlag := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run")
	flag.Parse()
	sh, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	cfg := runConfig{workload: *workload, seed: *seed, seconds: *seconds, trace: *traceFlag == 1}
	var (
		res *result
		err error
	)
	if cfg.workload == "detect-replay" {
		res, err = runReplay(cfg, sh)
	} else {
		res, err = runWire(cfg, sh)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res.print()
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output object.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	notes     []string
}

func newResult(h *harness) *result {
	return &result{Correct: h.failed == 0, Attempted: h.attempted, Failed: h.failed, Metrics: map[string]metric{}}
}

func (r *result) set(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// print writes the human-readable notes and metrics, then the JSON line.
func (r *result) print() {
	for _, n := range r.notes {
		fmt.Println(n)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-36s %14.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	line, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// setEndToEnd fills the end-to-end metrics of an untraced run.
func (r *result) setEndToEnd(s summary, setupS float64, q quality) {
	r.set("obs_per_s", s.obsPerS, "1/s")
	r.set("ack_p50_ms", s.ackP50, "ms")
	r.set("ack_p99_ms", s.ackP99, "ms")
	r.set("alert_lag_p50_ms", s.lagP50, "ms")
	r.set("alert_lag_p90_ms", s.lagP90, "ms")
	r.set("cpu_us_per_obs", s.cpuUSPerObs, "us")
	r.set("alloc_bytes_per_obs", s.allocPerObs, "B")
	r.set("rss_mb", rssMB(), "MB")
	r.set("setup_s", setupS, "s")
	r.set("drift_recall", q.driftRecall, "ratio")
	r.set("local_drift_recall", q.localRecall, "ratio")
	r.set("detect_delay_obs", q.delayObs, "obs")
	r.set("false_alarms_per_1k", q.falsePer1k, "1/kobs")
	r.set("attribution_precision", q.attrPrecision, "ratio")
	r.set("attribution_recall", q.attrRecall, "ratio")
}

// noteRun records the meter readings and raw speed beside the metrics.
func (r *result) noteRun(h *harness, s summary) {
	var rd []string
	for _, v := range h.mt.readings {
		rd = append(rd, fmt.Sprintf("%.0f", v))
	}
	r.note("host.meter_ns readings (nominal %.0f): %s", meterNominalNS, strings.Join(rd, " "))
	var acts []string
	for a, ns := range h.untimedNS {
		acts = append(acts, fmt.Sprintf("%s %.2f s", a, float64(ns)/1e9))
	}
	sort.Strings(acts)
	r.note("untimed: %s", strings.Join(acts, ", "))
	r.note("segments %d, measured %.2f s, host slowness %.4f, raw obs_per_s %.0f, nominal obs_per_s %.0f", len(h.segs), float64(h.elapsedNS)/1e9, h.mt.slowness(), s.rawObsPerS, s.obsPerS)
}
