package eval

import (
	"fmt"

	"rbmim/internal/realworld"
	"rbmim/internal/stream"
	"rbmim/internal/synth"
)

// ArtificialSpec describes one of the 12 artificial benchmarks of Table I.
type ArtificialSpec struct {
	// Name as printed in Table I (e.g. "Aggrawal10").
	Name string
	// Family is the generator family.
	Family string
	// Instances, Features, Classes, IR follow Table I.
	Instances int
	Features  int
	Classes   int
	IR        float64
	// Drift is the drift speed of Table I (incremental/gradual/sudden).
	Drift stream.DriftKind
}

// artificial returns the 12 artificial benchmarks in Table I order
// (SelectArtificial(nil) outside this package).
func artificial() []ArtificialSpec {
	return []ArtificialSpec{
		{Name: "Aggrawal5", Family: "agrawal", Instances: 1000000, Features: 20, Classes: 5, IR: 50, Drift: stream.Incremental},
		{Name: "Aggrawal10", Family: "agrawal", Instances: 1000000, Features: 40, Classes: 10, IR: 80, Drift: stream.Incremental},
		{Name: "Aggrawal20", Family: "agrawal", Instances: 2000000, Features: 80, Classes: 20, IR: 100, Drift: stream.Incremental},
		{Name: "Hyperplane5", Family: "hyperplane", Instances: 1000000, Features: 20, Classes: 5, IR: 100, Drift: stream.Gradual},
		{Name: "Hyperplane10", Family: "hyperplane", Instances: 1000000, Features: 40, Classes: 10, IR: 200, Drift: stream.Gradual},
		{Name: "Hyperplane20", Family: "hyperplane", Instances: 2000000, Features: 80, Classes: 20, IR: 300, Drift: stream.Gradual},
		{Name: "RBF5", Family: "rbf", Instances: 1000000, Features: 20, Classes: 5, IR: 100, Drift: stream.Sudden},
		{Name: "RBF10", Family: "rbf", Instances: 1000000, Features: 40, Classes: 10, IR: 200, Drift: stream.Sudden},
		{Name: "RBF20", Family: "rbf", Instances: 2000000, Features: 80, Classes: 20, IR: 300, Drift: stream.Sudden},
		{Name: "RandomTree5", Family: "randomtree", Instances: 1000000, Features: 20, Classes: 5, IR: 100, Drift: stream.Sudden},
		{Name: "RandomTree10", Family: "randomtree", Instances: 1000000, Features: 40, Classes: 10, IR: 200, Drift: stream.Sudden},
		{Name: "RandomTree20", Family: "randomtree", Instances: 2000000, Features: 80, Classes: 20, IR: 300, Drift: stream.Sudden},
	}
}

// ArtificialByName returns the named artificial spec.
func ArtificialByName(name string) (ArtificialSpec, error) {
	for _, s := range artificial() {
		if s.Name == name {
			return s, nil
		}
	}
	return ArtificialSpec{}, fmt.Errorf("eval: unknown artificial benchmark %q", name)
}

// BuildOptions customize artificial stream construction for the sweep
// experiments.
type BuildOptions struct {
	// Scale multiplies the Table I instance count (default 0.05; 1 = full).
	Scale float64
	// Seed drives all stream randomness.
	Seed int64
	// IROverride, when positive, replaces the Table I imbalance ratio
	// (Figure 9 sweeps 50..500).
	IROverride float64
	// LocalDriftClasses, when positive, switches the stream to Scenario 3:
	// instead of global concept transitions, a local drift affecting the
	// given number of *smallest* classes is injected at mid-stream
	// (Figure 8 sweeps this from 1 to K).
	LocalDriftClasses int
	// RoleSwitch enables class-role rotation in the skew schedule
	// (Scenario 2/3).
	RoleSwitch bool
}

// scaled returns the effective instance count.
func (o BuildOptions) scaled(full int) int {
	s := o.Scale
	if s <= 0 || s > 1 {
		s = 0.05
	}
	n := int(float64(full) * s)
	if n < 3000 {
		n = 3000
	}
	return n
}

// concept builds one concept of the spec's family.
func (a ArtificialSpec) concept(seed int64, variant int) (stream.Stream, error) {
	cfg := synth.Config{Features: a.Features, Classes: a.Classes, Seed: seed, Noise: 0.005}
	switch a.Family {
	case "agrawal":
		return synth.NewAgrawal(cfg, variant%10)
	case "hyperplane":
		return synth.NewHyperplane(cfg, 0)
	case "rbf":
		return synth.NewRBF(cfg, 3, 0.07)
	case "randomtree":
		return synth.NewRandomTree(cfg, 0)
	default:
		return nil, fmt.Errorf("eval: unknown family %q", a.Family)
	}
}

// Build constructs the benchmark stream and returns it with its effective
// instance count.
//
// Global-drift mode (Table III): three concepts with two transitions at n/3
// and 2n/3 using the spec's drift kind, under an oscillating imbalance
// schedule peaking at the spec's IR.
//
// Local-drift mode (Figure 8): one stationary concept with a local real
// drift injected at n/2 into the requested number of smallest classes.
func (a ArtificialSpec) Build(opt BuildOptions) (stream.Stream, int, error) {
	n := opt.scaled(a.Instances)
	ir := a.IR
	if opt.IROverride > 0 {
		ir = opt.IROverride
	}
	sched := stream.NewDynamicSkew(a.Classes, maxFloat(1, ir/2), ir, n/2)
	if opt.RoleSwitch {
		sched.RoleSwitchEvery = n / 4
	}

	if opt.LocalDriftClasses > 0 {
		base, err := a.concept(opt.Seed, 0)
		if err != nil {
			return nil, 0, err
		}
		// The geometric skew makes higher class indices smaller, so the m
		// smallest classes are K-1, K-2, ..., K-m (the paper injects into
		// the smallest classes first).
		m := opt.LocalDriftClasses
		if m > a.Classes {
			m = a.Classes
		}
		classes := make([]int, m)
		for i := 0; i < m; i++ {
			classes[i] = a.Classes - 1 - i
		}
		kind := a.Drift
		width := n / 10
		if kind == stream.Sudden {
			width = 0
		}
		// Scenario 3 keeps the class roles evolving alongside the local
		// drift.
		sched.RoleSwitchEvery = n / 4
		// Skew first, inject the local drift on the emitted stream: the
		// transform then applies at serve time, so the drift position is
		// exact in emission coordinates and buffered minority instances
		// cannot leak the old concept past the drift point. Three chained
		// events (n/4, n/2, 3n/4) keep the affected classes evolving, so a
		// detector that misses them pays for the whole remaining stream.
		var st stream.Stream = stream.NewImbalanceWrapper(base, sched, opt.Seed+11)
		for i, pos := range []int{n / 4, n / 2, 3 * n / 4} {
			st = stream.NewLocalDriftInjector(st, classes, kind, pos, width, opt.Seed+3+int64(i)*101)
		}
		return stream.NewLimit(st, n), n, nil
	}

	concepts := make([]stream.Stream, 3)
	for i := range concepts {
		c, err := a.concept(opt.Seed+int64(i)*977, i)
		if err != nil {
			return nil, 0, err
		}
		concepts[i] = c
	}
	width := 0
	switch a.Drift {
	case stream.Gradual:
		width = n / 10
	case stream.Incremental:
		width = n / 5
	}
	multi := stream.NewMultiDriftStream(concepts, a.Drift, []int{n / 3, 2 * n / 3}, width, opt.Seed+7)
	skewed := stream.NewImbalanceWrapper(multi, sched, opt.Seed+11)
	return stream.NewLimit(skewed, n), n, nil
}

// BenchmarkStream is a uniform handle over the 24 Table I benchmarks.
type BenchmarkStream struct {
	// Name as in Table I.
	Name string
	// Real marks the 12 real-world surrogates.
	Real bool
	// Build constructs the stream at the given scale and seed, returning
	// the stream and its instance count.
	Build func(scale float64, seed int64) (stream.Stream, int, error)
}

// AllBenchmarks returns all 24 benchmarks (12 real-world surrogates followed
// by 12 artificial streams) in Table I order.
func AllBenchmarks() []BenchmarkStream {
	var out []BenchmarkStream
	for _, spec := range realworld.All() {
		spec := spec
		out = append(out, BenchmarkStream{
			Name: spec.Name,
			Real: true,
			Build: func(scale float64, seed int64) (stream.Stream, int, error) {
				return spec.Build(scale, seed)
			},
		})
	}
	for _, spec := range artificial() {
		spec := spec
		out = append(out, BenchmarkStream{
			Name: spec.Name,
			Build: func(scale float64, seed int64) (stream.Stream, int, error) {
				return spec.Build(BuildOptions{Scale: scale, Seed: seed})
			},
		})
	}
	return out
}

func maxFloat(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
