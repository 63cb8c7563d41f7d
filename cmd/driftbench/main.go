// Command driftbench is the one command that reproduces the paper's
// artefacts: Tables I-II (benchmark streams and detector grids), the Table
// III detector comparison with Friedman / Bonferroni-Dunn rank analysis
// (Figures 4-5), the Bayesian signed tests (Figures 6-7), the local-drift
// sweep (Figure 8), and the imbalance-ratio robustness sweep (Figure 9).
// Each experiment honours the shared -scale and -seed flags; individual
// experiments can be selected with -run, and -benchmarks restricts Table
// III and both sweeps to a stream subset (the sweeps skip real-world names,
// as Figures 8-9 use the artificial streams only).
//
// Usage:
//
//	driftbench [-run all|tables|table3|ranks|bayes|fig8|fig9|resume] [-scale 0.02]
//	           [-seed 42] [-benchmarks EEG,RBF5] [-extras] [-block 1]
//	           [-cpuprofile cpu.out] [-memprofile mem.out]
//	           [-checkpoint ck.bin] [-resume ck.bin]
//
// A full run at -scale 0.02 finishes in a few minutes on a laptop; use
// -scale 1.0 for the paper's full stream lengths. The -cpuprofile and
// -memprofile flags write pprof profiles of the selected experiments so
// performance PRs can ship before/after evidence (see EXPERIMENTS.md,
// "Profiling the reproduction").
//
// -run resume demonstrates kill-and-resume mid-stream on a drifting
// benchmark stream. Three invocations tell the whole story:
//
//	driftbench -run resume                       # uninterrupted reference
//	driftbench -run resume -checkpoint ck.bin    # train half, save, "die"
//	driftbench -run resume -resume ck.bin        # load, finish the stream
//
// The resumed invocation reports the same drift decisions and the same
// final RBM weight checksum as the uninterrupted reference — the detector
// state round-trips bit for bit (the checkpoint is taken mid-mini-batch on
// purpose).
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"rbmim"
	"rbmim/internal/eval"
)

// modes lists the -run experiment names in the order they are printed.
var modes = []string{"resume", "tables", "table3", "ranks", "bayes", "fig8", "fig9"}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(os.Stderr, "driftbench:", err)
			os.Exit(1)
		}
	}
}

// run parses args and runs the selected experiments, writing every report
// to stdout. Profiles are written on every return path, so a failed run
// still leaves its truncated CPU profile behind.
func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("driftbench", flag.ContinueOnError)
	runList := fs.String("run", "all", "experiments: all, or a comma list of "+strings.Join(modes, ", "))
	scale := fs.Float64("scale", 0.02, "fraction of each benchmark's full length (1.0 = Table I size)")
	seed := fs.Int64("seed", 42, "random seed")
	window := fs.Int("window", 1000, "prequential metric window")
	parallel := fs.Int("parallel", 0, "worker goroutines (default: NumCPU)")
	rope := fs.Float64("rope", 1.0, "Bayesian signed test rope (metric points)")
	benchmarks := fs.String("benchmarks", "", "comma-separated benchmark subset for table3 and the sweeps (default: all)")
	extras := fs.Bool("extras", false, "include the DDM/EDDM/ADWIN/HDDM-A extra baselines in table3")
	blockSize := fs.Int("block", 1, "prequential block length fed to every pipeline (1 = classic per-instance loop)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile at exit to this file")
	checkpoint := fs.String("checkpoint", "", "with -run resume: save the detector mid-stream to this file and stop")
	resume := fs.String("resume", "", "with -run resume: load the detector from this file and run the second half")
	if err := fs.Parse(args); err != nil {
		return err
	}

	want := map[string]bool{}
	for _, r := range splitList(*runList) {
		if r != "all" && !slices.Contains(modes, r) {
			return fmt.Errorf("unknown -run experiment %q (want all or %s)", r, strings.Join(modes, ", "))
		}
		want[r] = true
	}
	if want["all"] {
		for _, m := range modes {
			want[m] = true
		}
	}
	subset := splitList(*benchmarks)
	// The sweeps' subset rule, checked before any experiment runs, so a
	// selection with no artificial stream fails before Table III does its
	// work, not after.
	if want["fig8"] || want["fig9"] {
		if _, err := eval.SelectArtificial(subset); err != nil {
			return err
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}()
	}
	if *memprofile != "" {
		defer func() {
			if herr := writeHeapProfile(*memprofile); err == nil {
				err = herr
			}
		}()
	}

	started := time.Now()
	if want["resume"] {
		if err := runResumeDemo(stdout, *seed, *checkpoint, *resume); err != nil {
			return err
		}
	}
	if want["tables"] {
		fmt.Fprintf(stdout, "== Tables I-II: benchmark streams and parameter grids, scale=%.3f ==\n", *scale)
		eval.WriteTables(stdout, *scale)
		fmt.Fprintln(stdout)
	}

	var table3 *eval.Table3Output
	if want["table3"] || want["ranks"] || want["bayes"] {
		fmt.Fprintf(stdout, "== Experiment 1 (Table III), scale=%.3f ==\n", *scale)
		out, err := eval.RunTable3(eval.Table3Config{
			Scale:         *scale,
			Seed:          *seed,
			MetricWindow:  *window,
			Parallelism:   *parallel,
			Benchmarks:    subset,
			IncludeExtras: *extras,
			BlockSize:     *blockSize,
		})
		if err != nil {
			return err
		}
		table3 = out
		eval.WriteTable3(stdout, out)
		fmt.Fprintln(stdout)
	}
	if want["ranks"] {
		fmt.Fprintln(stdout, "== Figures 4-5: Bonferroni-Dunn rank analysis ==")
		eval.WriteRankAnalysis(stdout, table3, "pmauc")
		fmt.Fprintln(stdout)
		eval.WriteRankAnalysis(stdout, table3, "pmgm")
		fmt.Fprintln(stdout)
	}
	if want["bayes"] {
		fmt.Fprintln(stdout, "== Figures 6-7: Bayesian signed tests ==")
		for _, metric := range []string{"pmauc", "pmgm"} {
			for _, baseline := range []string{"PerfSim", "DDM-OCI"} {
				if err := eval.WriteBayesianComparison(stdout, table3, baseline, "RBM-IM", metric, *rope, *seed); err != nil {
					return err
				}
				fmt.Fprintln(stdout)
			}
		}
	}
	sweep := eval.SweepConfig{
		Scale:        *scale,
		Seed:         *seed,
		MetricWindow: *window,
		Parallelism:  *parallel,
		Benchmarks:   subset,
		BlockSize:    *blockSize,
	}
	if want["fig8"] {
		fmt.Fprintf(stdout, "== Experiment 2 (Figure 8): local drift sweep, scale=%.3f ==\n", *scale)
		out, err := eval.RunLocalDriftSweep(sweep)
		if err != nil {
			return err
		}
		eval.WriteSweep(stdout, out, "classes")
		fmt.Fprintln(stdout)
	}
	if want["fig9"] {
		fmt.Fprintf(stdout, "== Experiment 3 (Figure 9): imbalance-ratio sweep, scale=%.3f ==\n", *scale)
		out, err := eval.RunImbalanceSweep(sweep)
		if err != nil {
			return err
		}
		eval.WriteSweep(stdout, out, "IR")
		fmt.Fprintln(stdout)
	}
	fmt.Fprintf(stdout, "done in %s\n", time.Since(started).Round(time.Millisecond))
	return nil
}

// splitList splits a comma-separated flag value into its trimmed entries
// (nil for an empty value).
func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

// writeHeapProfile writes the steady-state live set to path.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // materialize the steady-state live set
	err = pprof.WriteHeapProfile(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// resumeDemo parameters: a drifting stream long enough for several
// mini-batches on each side of the cut, with the cut deliberately mid-batch
// so the partial mini-batch rides through the checkpoint.
const (
	resumeTotal = 20000
	resumeCut   = 10177
)

// resumeStream rebuilds the demo stream deterministically: two RBF concepts
// with a sudden switch shortly after the cut, so the interesting detection
// work happens in the resumed half.
func resumeStream(seed int64) (rbmim.Stream, error) {
	cfg := rbmim.GeneratorConfig{Features: 12, Classes: 5, Seed: seed + 1}
	before, err := rbmim.NewRBF(cfg, 3, 0.08)
	if err != nil {
		return nil, err
	}
	afterCfg := cfg
	afterCfg.Seed = seed + 2
	after, err := rbmim.NewRBF(afterCfg, 3, 0.08)
	if err != nil {
		return nil, err
	}
	return rbmim.NewDriftStream(before, after, rbmim.SuddenDrift, resumeTotal*3/5, 0, seed+3), nil
}

// runResumeDemo is the -run resume experiment (kill-and-resume mid-stream);
// see the package comment for the three-invocation walkthrough.
func runResumeDemo(w io.Writer, seed int64, checkpointPath, resumePath string) error {
	fmt.Fprintln(w, "== Kill-and-resume demo (checkpointable detector state) ==")
	s, err := resumeStream(seed)
	if err != nil {
		return err
	}
	det, err := rbmim.NewDetector(rbmim.DetectorConfig{Features: 12, Classes: 5, Seed: seed})
	if err != nil {
		return err
	}
	feed := func(from, to int, drifts int) int {
		for i := from; i < to; i++ {
			in := s.Next()
			if det.Update(rbmim.Observation{X: in.X, TrueClass: in.Y, Predicted: in.Y}) == rbmim.Drift {
				drifts++
			}
		}
		return drifts
	}

	start, drifts := 0, 0
	if resumePath != "" {
		data, err := os.ReadFile(resumePath)
		if err != nil {
			return err
		}
		if err := rbmim.LoadDetector(det, bytes.NewReader(data)); err != nil {
			return err
		}
		// Position the stream at the cut: the generator is seeded, so
		// replaying (and discarding) the consumed prefix reproduces it.
		for i := 0; i < resumeCut; i++ {
			s.Next()
		}
		start = resumeCut
		fmt.Fprintf(w, "resumed from %s (%d bytes) at observation %d\n", resumePath, len(data), resumeCut)
	}

	if checkpointPath != "" && resumePath == "" {
		drifts = feed(0, resumeCut, drifts)
		f, err := os.Create(checkpointPath)
		if err != nil {
			return err
		}
		err = rbmim.SaveDetector(det, f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		info, _ := os.Stat(checkpointPath)
		fmt.Fprintf(w, "trained %d/%d observations, saved checkpoint to %s (%d bytes); rerun with -resume %s\n",
			resumeCut, resumeTotal, checkpointPath, info.Size(), checkpointPath)
		return nil
	}

	if start == 0 {
		// Uninterrupted reference: run the prefix too, but report the
		// post-cut half separately so the number is directly comparable to a
		// resumed invocation.
		drifts = feed(0, resumeCut, drifts)
	}
	post := feed(resumeCut, resumeTotal, 0)
	fmt.Fprintf(w, "finished at observation %d: drifts after the cut %d (total %d), final weight checksum %#016x\n",
		resumeTotal, post, drifts+post, det.RBM().WeightChecksum())
	if resumePath != "" {
		fmt.Fprintln(w, "compare against `driftbench -run resume` (uninterrupted): post-cut drifts and checksum match bit for bit")
	}
	return nil
}
