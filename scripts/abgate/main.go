// Command abgate is the repository's performance gate. Run at the root of a
// checkout, `go run ./scripts/abgate <base-rev>` checks <base-rev> out into a
// temporary git worktree and runs perfbench/run.sh there and in the working
// tree, each workload in alternating pairs (base first in odd pairs). A
// BENCHMARK.json end-to-end metric fails when the change's median is worse
// than the base's by more than its bound, relative to the base median. One
// that reads the same in every base run is exact and may not get worse at
// all; one whose base interquartile range exceeds the bound is unresolved and
// does not fail. Incorrect runs, or a larger failed share of operations, fail
// too. Beside obs_per_s the report shows raw obs_per_s, host slowness and the
// meter kernel's alignment (EXPERIMENTS.md, "Speed meter layout artifact").
package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// pairs of base and change runs per workload, each --seconds 3 at --seed 1;
// a run (7-11 s here, plus the first build) that exceeds runTimeout fails.
const pairs, seconds, runTimeout = 5, "3", 3 * time.Minute

var workloads = []string{"detect-replay", "wire-batch", "wire-single"}

// spec is one end_to_end entry of BENCHMARK.json.
type spec struct {
	Name, Better string
	Bound        float64
}

type metric struct{ Value float64 }

// run is one perfbench result, its JSON line. parseRun adds the raw-speed
// note's "raw obs_per_s" and "host slowness" to Metrics.
type run struct {
	Correct           bool
	Attempted, Failed int64
	Metrics           map[string]metric
}

var speedNote = regexp.MustCompile(`host slowness (\d+(?:\.\d+)?), raw obs_per_s (\d+(?:\.\d+)?)`)
var nmPass = regexp.MustCompile(`(?m)^\s*([0-9a-f]+) T main\.\(\*meterState\)\.pass$`)

func main() {
	log.SetFlags(0)
	if len(os.Args) != 2 {
		log.Fatal("usage: go run ./scripts/abgate <base-rev>")
	}
	if ok, err := gate(os.Args[1]); err != nil {
		log.Fatal("abgate: ", err)
	} else if !ok {
		fmt.Println("\nabgate: FAIL")
		os.Exit(1)
	}
	fmt.Println("\nabgate: ok")
}

// gate runs both trees, prints the report and returns the verdict.
func gate(rev string) (bool, error) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var bench struct {
		EndToEnd []spec `json:"end_to_end"`
	}
	data, err := os.ReadFile("BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(data, &bench)
	}
	if err != nil {
		return false, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	base := filepath.Join(os.TempDir(), fmt.Sprintf("abgate-%d", os.Getpid()))
	defer func() {
		if err := errors.Join(os.RemoveAll(base), exec.Command("git", "worktree", "prune").Run()); err != nil {
			log.Printf("abgate: removing worktree %s: %v", base, err)
		}
	}()
	if out, err := exec.CommandContext(ctx, "git", "worktree", "add", "--detach", base, rev).CombinedOutput(); err != nil {
		return false, fmt.Errorf("git worktree add %s: %v\n%s", rev, err, out)
	}
	runs := make([][2][]run, len(workloads))
	for p := 0; p < pairs; p++ {
		for i, w := range workloads {
			for k := 0; k < 2; k++ {
				side := k ^ p%2 // p is even in odd pairs: base first
				r, err := perfbench(ctx, [2]string{base, "."}[side], w)
				if err != nil {
					return false, err
				}
				runs[i][side] = append(runs[i][side], r)
			}
		}
	}
	ab, ac := meterAlign(base), meterAlign(".")
	align := fmt.Sprintf("meter pass mod 64 %d -> %d", ab, ac)
	if ab != ac {
		align += "  UNEQUAL: nominal timed metrics may move with the alignment alone"
	}
	ok := true
	for i, w := range workloads {
		fmt.Printf("\n== %s: %d pairs of %s s runs, seed 1\n", w, pairs, seconds)
		lines, pass := verdict(bench.EndToEnd, runs[i][0], runs[i][1], align)
		fmt.Println(strings.Join(lines, "\n"))
		ok = ok && pass
	}
	return ok, nil
}

// perfbench runs one workload in tree.
func perfbench(ctx context.Context, tree, w string) (run, error) {
	ctx, cancel := context.WithTimeout(ctx, runTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, "bash", "perfbench/run.sh", "--workload", w, "--seed", "1", "--seconds", seconds, "--trace", "0")
	cmd.Dir, cmd.Stderr = tree, os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return run{}, fmt.Errorf("perfbench %s in %s: %w", w, tree, err)
	}
	return parseRun(string(out))
}

// parseRun reads perfbench's stdout: the JSON object on the last line and
// the note that carries host slowness and raw obs_per_s.
func parseRun(out string) (run, error) {
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r run
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return r, fmt.Errorf("last line is not the result object: %w", err)
	}
	if m := speedNote.FindStringSubmatch(out); m != nil && r.Metrics != nil {
		slow, _ := strconv.ParseFloat(m[1], 64) // speedNote admits only decimals
		raw, _ := strconv.ParseFloat(m[2], 64)
		r.Metrics["host slowness"], r.Metrics["raw obs_per_s"] = metric{slow}, metric{raw}
	}
	return r, nil
}

// verdict judges one workload's base and change runs and returns the
// report lines and whether the change passes; align describes the meter.
func verdict(specs []spec, base, change []run, align string) ([]string, bool) {
	lines := []string{fmt.Sprintf("%-22s %-36s %-14s %s", "metric", "parent median [q1, q3]", "change median", "verdict")}
	ok := true
	med := func(rs []run, name string) float64 { return quantile(values(rs, name), .5) }
	for _, s := range specs {
		b, c := values(base, s.Name), values(change, s.Name)
		word := judge(s, b, c)
		ok = ok && (word == "ok" || word == "unresolved")
		lines = append(lines, fmt.Sprintf("%-22s %-36s %-14.6g %s", s.Name,
			fmt.Sprintf("%.6g [%.6g, %.6g]", quantile(b, .5), quantile(b, .25), quantile(b, .75)), quantile(c, .5), word))
		if s.Name == "obs_per_s" {
			lines = append(lines, fmt.Sprintf("  raw obs_per_s %.0f -> %.0f, host slowness %.4f -> %.4f, %s",
				med(base, "raw obs_per_s"), med(change, "raw obs_per_s"),
				med(base, "host slowness"), med(change, "host slowness"), align))
		}
	}
	var failed, attempted [2]int64
	for i, side := range [2][]run{base, change} {
		for _, r := range side {
			if !r.Correct {
				lines, ok = append(lines, fmt.Sprintf("FAIL: a %s run is not correct", [2]string{"parent", "change"}[i])), false
			}
			failed[i], attempted[i] = failed[i]+r.Failed, attempted[i]+r.Attempted
		}
	}
	if failed[1]*max(attempted[0], 1) > failed[0]*max(attempted[1], 1) {
		lines, ok = append(lines, fmt.Sprintf("FAIL: the change fails %d of %d operations, the parent %d of %d",
			failed[1], attempted[1], failed[0], attempted[0])), false
	}
	return lines, ok
}

// judge compares one metric's sorted samples: "ok", "FAIL", "FAIL (exact)"
// or "unresolved".
func judge(s spec, b, c []float64) string {
	mb := quantile(b, .5)
	worse := quantile(c, .5) - mb
	if s.Better == "higher" {
		worse = -worse
	}
	limit, exact := s.Bound*math.Abs(mb), b[0] == b[len(b)-1]
	switch {
	case exact && worse > 0:
		return "FAIL (exact)"
	case !exact && quantile(b, .75)-quantile(b, .25) > limit:
		return "unresolved"
	case worse > limit:
		return "FAIL"
	}
	return "ok"
}

// values returns a metric's sorted samples; a run without it reads 0.
func values(rs []run, name string) []float64 {
	v := make([]float64, len(rs))
	for i, r := range rs {
		v[i] = r.Metrics[name].Value
	}
	sort.Float64s(v)
	return v
}

// quantile interpolates the q-quantile of sorted samples.
func quantile(v []float64, q float64) float64 {
	pos := q * float64(len(v)-1)
	lo, hi := int(pos), min(int(pos)+1, len(v)-1)
	return v[lo] + (v[hi]-v[lo])*(pos-float64(lo))
}

// meterAlign is the address of main.(*meterState).pass mod 64 in the tree's
// perfbench binary, or -1 when it cannot be read.
func meterAlign(tree string) int {
	out, _ := exec.Command("go", "tool", "nm", filepath.Join(tree, ".bench_build", "perfbench")).Output()
	if m := nmPass.FindSubmatch(out); m != nil {
		a, _ := strconv.ParseUint(string(m[1]), 16, 64)
		return int(a % 64)
	}
	return -1
}
