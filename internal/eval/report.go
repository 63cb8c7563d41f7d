package eval

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"

	"rbmim/internal/realworld"
	"rbmim/internal/stats"
)

// WriteTables renders Table I (the 24 benchmark streams, with the length
// each one is built with at the given scale) and Table II (the examined
// detectors' hyper-parameter grids).
func WriteTables(w io.Writer, scale float64) {
	fmt.Fprintln(w, "Table I: properties of real-world-surrogate (top) and artificial (bottom) streams")
	const rowFormat = "%-14s %12v %12v %9v %8v %8.2f  %s\n"
	fmt.Fprintf(w, "%-14s %12s %12s %9s %8s %8s  %s\n",
		"Dataset", "Instances", "(scaled)", "Features", "Classes", "IR", "Drift")
	for _, s := range realworld.All() {
		fmt.Fprintf(w, rowFormat, s.Name, s.Instances, s.ScaledInstances(scale), s.Features, s.Classes, s.IR, s.Drift)
	}
	for _, s := range artificial() {
		scaled := BuildOptions{Scale: scale}.scaled(s.Instances)
		fmt.Fprintf(w, rowFormat, s.Name, s.Instances, scaled, s.Features, s.Classes, s.IR, s.Drift)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Table II: examined detectors and their parameter grids")
	for _, g := range DefaultGrids() {
		fmt.Fprintf(w, "%-8s\n", g.Detector)
		for _, p := range g.Params {
			fmt.Fprintf(w, "    %-18s %v\n", p.Name, p.Values)
		}
	}
}

// WriteTable3 renders the Experiment 1 output in the layout of Table III:
// one row per stream with pmAUC and pmGM per detector, then average ranks
// and timing rows.
func WriteTable3(w io.Writer, out *Table3Output) {
	cols := out.Detectors
	fmt.Fprintf(w, "%-14s |", "Dataset")
	for _, c := range cols {
		fmt.Fprintf(w, " %9s", c)
	}
	fmt.Fprintf(w, " |")
	for _, c := range cols {
		fmt.Fprintf(w, " %9s", c)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-14s |%s|%s\n", "", strings.Repeat(" [pmAUC] -", len(cols)), strings.Repeat(" [pmGM] --", len(cols)))
	for _, row := range out.Rows {
		fmt.Fprintf(w, "%-14s |", row.Stream)
		for _, r := range row.Results {
			fmt.Fprintf(w, " %9.2f", r.PMAUC)
		}
		fmt.Fprintf(w, " |")
		for _, r := range row.Results {
			fmt.Fprintf(w, " %9.2f", r.PMGM)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-14s |", "ranks")
	for _, r := range out.RanksAUC {
		fmt.Fprintf(w, " %9.2f", r)
	}
	fmt.Fprintf(w, " |")
	for _, r := range out.RanksGM {
		fmt.Fprintf(w, " %9.2f", r)
	}
	fmt.Fprintln(w)

	// Timing rows: average detector seconds per 1k instances across streams.
	fmt.Fprintf(w, "%-14s |", "det s/1k inst")
	for j := range cols {
		sum, n := 0.0, 0.0
		for _, row := range out.Rows {
			r := row.Results[j]
			if r.Instances > 0 {
				sum += r.DetectorSeconds / float64(r.Instances) * 1000
				n++
			}
		}
		fmt.Fprintf(w, " %9.4f", sum/maxFloat(n, 1))
	}
	fmt.Fprintln(w, " |")
	fmt.Fprintf(w, "%-14s |", "adapt s/1k")
	for j := range cols {
		sum, n := 0.0, 0.0
		for _, row := range out.Rows {
			r := row.Results[j]
			if r.Instances > 0 {
				sum += r.AdaptSeconds / float64(r.Instances) * 1000
				n++
			}
		}
		fmt.Fprintf(w, " %9.4f", sum/maxFloat(n, 1))
	}
	fmt.Fprintln(w, " |")

	// Warning chattiness: average Warning states per 1k instances across
	// streams (drift signals are already visible via the ranks and the
	// sweep tables; warnings were previously discarded).
	fmt.Fprintf(w, "%-14s |", "warn/1k inst")
	for j := range cols {
		sum, n := 0.0, 0.0
		for _, row := range out.Rows {
			r := row.Results[j]
			if r.Instances > 0 {
				sum += float64(r.Warnings) / float64(r.Instances) * 1000
				n++
			}
		}
		fmt.Fprintf(w, " %9.2f", sum/maxFloat(n, 1))
	}
	fmt.Fprintln(w, " |")
}

// WriteRankAnalysis renders the Friedman test and the Bonferroni-Dunn
// critical-distance diagram of Figures 4-5 as text.
func WriteRankAnalysis(w io.Writer, out *Table3Output, metric string) {
	fr := out.FriedmanAUC
	ranks := out.RanksAUC
	if metric == "pmgm" {
		fr = out.FriedmanGM
		ranks = out.RanksGM
	}
	fmt.Fprintf(w, "Friedman (%s): chi2=%.3f p=%.4g  CD(Bonferroni-Dunn, a=0.05)=%.3f\n",
		metric, fr.ChiSquare, fr.PValue, out.CriticalDifference)

	type dr struct {
		name string
		rank float64
	}
	items := make([]dr, len(out.Detectors))
	for i := range items {
		items[i] = dr{out.Detectors[i], ranks[i]}
	}
	sort.Slice(items, func(a, b int) bool { return items[a].rank < items[b].rank })
	best := items[0].rank
	fmt.Fprintln(w, "rank axis (lower = better; * within CD of best):")
	for _, it := range items {
		marker := " "
		if it.rank-best <= out.CriticalDifference {
			marker = "*"
		}
		bar := int((it.rank - 1) * 8)
		fmt.Fprintf(w, "  %-9s %s %5.2f |%s\n", it.name, marker, it.rank, strings.Repeat("-", bar)+"o")
	}
}

// WriteBayesianComparison renders the Bayesian signed test of Figures 6-7
// for one detector pair and metric: the posterior probabilities of
// left / rope / right plus a coarse ASCII simplex of the sample cloud.
func WriteBayesianComparison(w io.Writer, out *Table3Output, baseline, challenger, metric string, rope float64, seed int64) error {
	a, err := out.ScoresFor(baseline, metric)
	if err != nil {
		return err
	}
	b, err := out.ScoresFor(challenger, metric)
	if err != nil {
		return err
	}
	res := stats.BayesianSignedTest(a, b, rope, 20000, rand.New(rand.NewSource(seed)))
	fmt.Fprintf(w, "Bayesian signed test (%s): %s vs %s, rope=+-%.2f\n", metric, baseline, challenger, rope)
	fmt.Fprintf(w, "  P(%s better) = %.3f  P(rope) = %.3f  P(%s better) = %.3f\n",
		baseline, res.Left, res.Rope, challenger, res.Right)

	// Coarse triangle: bucket samples by (pLeft, pRight) into a 10x10 grid.
	const gridN = 10
	grid := [gridN][gridN]int{}
	for _, s := range res.Samples {
		li := int(s[0] * gridN)
		ri := int(s[2] * gridN)
		if li >= gridN {
			li = gridN - 1
		}
		if ri >= gridN {
			ri = gridN - 1
		}
		grid[li][ri]++
	}
	fmt.Fprintln(w, "  sample density (rows: P(left) 0..1, cols: P(right) 0..1):")
	for li := gridN - 1; li >= 0; li-- {
		fmt.Fprint(w, "    ")
		for ri := 0; ri < gridN; ri++ {
			c := grid[li][ri]
			switch {
			case c == 0:
				fmt.Fprint(w, ".")
			case c < 50:
				fmt.Fprint(w, "+")
			case c < 500:
				fmt.Fprint(w, "o")
			default:
				fmt.Fprint(w, "#")
			}
		}
		fmt.Fprintln(w)
	}
	return nil
}

// WriteSweep renders one figure panel (Figure 8 or 9) as a column-per-
// detector text table: pmAUC, then pmGM, then the drift-detection rate
// (true positives over injected events — the most direct view of the
// paper's local-drift sensitivity claim).
func WriteSweep(w io.Writer, panels []SweepOutput, xLabel string) {
	for _, p := range panels {
		if len(p.Series) == 0 {
			continue
		}
		fmt.Fprintf(w, "== %s (pmAUC vs %s) ==\n", p.Stream, xLabel)
		writeSweepHeader(w, p, xLabel)
		for i := range p.Series[0].Points {
			fmt.Fprintf(w, "%-8d", p.Series[0].Points[i].X)
			for _, s := range p.Series {
				fmt.Fprintf(w, " %9.2f", s.Points[i].PMAUC)
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "-- %s (pmGM) --\n", p.Stream)
		writeSweepHeader(w, p, xLabel)
		for i := range p.Series[0].Points {
			fmt.Fprintf(w, "%-8d", p.Series[0].Points[i].X)
			for _, s := range p.Series {
				fmt.Fprintf(w, " %9.2f", s.Points[i].PMGM)
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "-- %s (drift detection rate TP/(TP+miss), false alarms in parens) --\n", p.Stream)
		writeSweepHeader(w, p, xLabel)
		for i := range p.Series[0].Points {
			fmt.Fprintf(w, "%-8d", p.Series[0].Points[i].X)
			for _, s := range p.Series {
				r := s.Points[i].Result
				total := r.TruePositives + r.MissedDrifts
				rate := 0.0
				if total > 0 {
					rate = float64(r.TruePositives) / float64(total)
				}
				fmt.Fprintf(w, " %5.2f(%2d)", rate, r.FalseAlarms)
			}
			fmt.Fprintln(w)
		}
	}
}

func writeSweepHeader(w io.Writer, p SweepOutput, xLabel string) {
	fmt.Fprintf(w, "%-8s", xLabel)
	for _, s := range p.Series {
		fmt.Fprintf(w, " %9s", s.Detector)
	}
	fmt.Fprintln(w)
}
