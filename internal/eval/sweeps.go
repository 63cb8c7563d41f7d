package eval

import (
	"fmt"
	"runtime"
	"sync"

	"rbmim/internal/realworld"
)

// SweepPoint is one (x, detector) cell of a sweep figure: the pmAUC achieved
// by the detector at the swept parameter value.
type SweepPoint struct {
	X      int
	PMAUC  float64
	PMGM   float64
	Result Result
}

// SweepSeries is one detector's curve over the swept parameter.
type SweepSeries struct {
	Detector string
	Points   []SweepPoint
}

// SweepOutput is one benchmark's figure panel.
type SweepOutput struct {
	Stream string
	Series []SweepSeries
}

// SweepConfig configures the Figure 8 / Figure 9 runners.
type SweepConfig struct {
	// Scale, Seed, MetricWindow as in Table3Config.
	Scale        float64
	Seed         int64
	MetricWindow int
	Parallelism  int
	// Benchmarks restricts the sweep to the named artificial streams
	// (nil = all 12).
	Benchmarks []string
	// Values overrides the swept values (Figure 8: class counts 1..K;
	// Figure 9: IRs 50..500).
	Values []int
	// BlockSize is the prequential block length forwarded to every pipeline
	// (see PipelineConfig.BlockSize; default 1 = per-instance loop).
	BlockSize int
}

func (c *SweepConfig) fill() {
	if c.MetricWindow <= 0 {
		c.MetricWindow = 1000
	}
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.NumCPU()
	}
}

// SelectArtificial resolves the benchmark subset (nil = all 12). Figures
// 8-9 are defined on the artificial streams only, so a real-world name is
// skipped; a name that is not a benchmark at all, or a selection that
// leaves no artificial stream, is an error. The sweep runners apply it
// first; cmd/driftbench applies it before any experiment starts.
func SelectArtificial(names []string) ([]ArtificialSpec, error) {
	if names == nil {
		return artificial(), nil
	}
	var out []ArtificialSpec
	for _, want := range names {
		if spec, err := ArtificialByName(want); err == nil {
			out = append(out, spec)
		} else if _, err := realworld.ByName(want); err != nil {
			return nil, fmt.Errorf("eval: unknown benchmark %q", want)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("eval: no artificial benchmark in %q (the sweeps run on the artificial streams only)", names)
	}
	return out, nil
}

// RunLocalDriftSweep reproduces Experiment 2 (Figure 8): for each artificial
// benchmark, inject a local real drift into 1..K of the smallest classes and
// measure each detector's pmAUC. The fewer classes drift, the harder the
// detection.
func RunLocalDriftSweep(cfg SweepConfig) ([]SweepOutput, error) {
	cfg.fill()
	specs, err := SelectArtificial(cfg.Benchmarks)
	if err != nil {
		return nil, err
	}
	return runSweep(cfg, specs, func(spec ArtificialSpec) []int {
		if cfg.Values != nil {
			var vals []int
			for _, v := range cfg.Values {
				if v >= 1 && v <= spec.Classes {
					vals = append(vals, v)
				}
			}
			return vals
		}
		// Default: every class count 1..K for small K, strided for K = 20
		// (matching the x-axes of Figure 8).
		if spec.Classes <= 10 {
			vals := make([]int, spec.Classes)
			for i := range vals {
				vals[i] = i + 1
			}
			return vals
		}
		var vals []int
		for v := 1; v <= spec.Classes; v += 2 {
			vals = append(vals, v)
		}
		return vals
	}, func(spec ArtificialSpec, v int) BuildOptions {
		return BuildOptions{
			Scale:             cfg.Scale,
			Seed:              cfg.Seed,
			LocalDriftClasses: v,
		}
	})
}

// RunImbalanceSweep reproduces Experiment 3 (Figure 9): for each artificial
// benchmark, scale the multi-class imbalance ratio across {50, 100, 200,
// 300, 400, 500} and measure each detector's pmAUC.
func RunImbalanceSweep(cfg SweepConfig) ([]SweepOutput, error) {
	cfg.fill()
	specs, err := SelectArtificial(cfg.Benchmarks)
	if err != nil {
		return nil, err
	}
	return runSweep(cfg, specs, func(spec ArtificialSpec) []int {
		if cfg.Values != nil {
			return cfg.Values
		}
		return []int{50, 100, 200, 300, 400, 500}
	}, func(spec ArtificialSpec, v int) BuildOptions {
		return BuildOptions{
			Scale:      cfg.Scale,
			Seed:       cfg.Seed,
			IROverride: float64(v),
		}
	})
}

// runSweep executes the generic (benchmark x value x detector) grid.
func runSweep(cfg SweepConfig, specs []ArtificialSpec,
	values func(ArtificialSpec) []int,
	options func(ArtificialSpec, int) BuildOptions) ([]SweepOutput, error) {

	type job struct {
		spec     int
		valueIdx int
		value    int
		detector int
	}
	type done struct {
		job
		res Result
		err error
	}

	// Column names from a probe.
	probe := PaperDetectors(1)
	names := make([]string, len(probe))
	for i, f := range probe {
		names[i] = f.Name
	}

	var jobList []job
	valueLists := make([][]int, len(specs))
	for si, spec := range specs {
		vals := values(spec)
		valueLists[si] = vals
		for vi, v := range vals {
			for di := range probe {
				jobList = append(jobList, job{spec: si, valueIdx: vi, value: v, detector: di})
			}
		}
	}

	jobs := make(chan job)
	results := make(chan done)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				spec := specs[j.spec]
				s, n, err := spec.Build(options(spec, j.value))
				if err != nil {
					results <- done{job: j, err: err}
					continue
				}
				schema := s.Schema()
				det := PaperDetectors(schema.Features)[j.detector].New(schema.Classes)
				res := RunPipeline(s, det, PipelineConfig{
					Instances:    n,
					MetricWindow: cfg.MetricWindow,
					Seed:         cfg.Seed + int64(j.detector),
					BlockSize:    cfg.BlockSize,
				})
				res.Stream = spec.Name
				results <- done{job: j, res: res}
			}
		}()
	}
	go func() {
		for _, j := range jobList {
			jobs <- j
		}
		close(jobs)
		wg.Wait()
		close(results)
	}()

	out := make([]SweepOutput, len(specs))
	for si, spec := range specs {
		out[si] = SweepOutput{Stream: spec.Name, Series: make([]SweepSeries, len(names))}
		for di, n := range names {
			out[si].Series[di] = SweepSeries{
				Detector: n,
				Points:   make([]SweepPoint, len(valueLists[si])),
			}
		}
	}
	for d := range results {
		if d.err != nil {
			return nil, d.err
		}
		out[d.spec].Series[d.detector].Points[d.valueIdx] = SweepPoint{
			X:      d.value,
			PMAUC:  d.res.PMAUC,
			PMGM:   d.res.PMGM,
			Result: d.res,
		}
	}
	return out, nil
}
