package main

import (
	"fmt"
	"sync"

	"rbmim/internal/core"
	"rbmim/internal/detectors"
	"rbmim/internal/monitor"
	"rbmim/internal/stream"
	"rbmim/internal/synth"
)

// family is one stream type of the workload mix.
type family int

const (
	famSudden      family = iota // Table III sudden drift (RBF)
	famGradual                   // Table III gradual drift (RBF)
	famIncremental               // Table III incremental drift (Agrawal at V>=9, else Hyperplane)
	famLocal                     // Fig. 8 m=1 local minority drift
	famRoleSwitch                // class-role rotation only: no real drift
	numFamilies
)

var familyNames = [numFamilies]string{"sudden", "gradual", "incremental", "local", "roleswitch"}

// shape fixes a workload's stream mix and its segmentation. Every size is in
// observations per stream.
type shape struct {
	features, classes int
	perFamily         [numFamilies]int // streams per family in each group
	segLen            int              // observations per stream per segment
	period            int              // distance between injected drifts
	qualitySegs       int              // segments in the scored prefix
	ir                float64
}

// qualitySeed generates the quality group and the detectors' template seed.
const qualitySeed = 2021

// groupSize is the stream count of one group.
func (sh shape) groupSize() int {
	n := 0
	for _, c := range sh.perFamily {
		n += c
	}
	return n
}

// qualityLen is the scored prefix length per stream.
func (sh shape) qualityLen() int { return sh.qualitySegs * sh.segLen }

// driftSegs is how many segments of each drifting stream carry injected
// drifts; a run rarely gets further, and a stream is stationary afterwards.
// Drifts past the scored prefix still produce events for the alert-lag
// samples.
const driftSegs = 48

// drifts is the number of drifts injected into each drifting stream.
func (sh shape) drifts() int { return driftSegs * sh.segLen / sh.period }

// source is one generated stream of the mix.
type source struct {
	id     string
	gen    stream.Stream
	truths []stream.DriftEvent
	// scored marks the quality group, whose drifts the quality metrics score.
	scored bool
	// detSeed is the RBM-IM seed the monitor derives for this stream ID
	// (template seed ^ Hash64(id)); the replay uses the same one.
	detSeed int64
}

// detectorConfig is the RBM-IM template shared by the replay and the
// monitor; its seed is fixed, so a stream's detector depends on its ID only.
func (sh shape) detectorConfig() core.Config {
	return core.Config{Features: sh.features, Classes: sh.classes, AdaptiveWindow: true, Seed: qualitySeed}
}

// buildSources generates the stream mix: a quality group whose inputs and
// IDs are the same in every run, so the detection-quality metrics scored on
// it are exact and identical across seeds, and a group of the same shape
// drawn from seed. Stream IDs are chosen with monitor.ShardFor so that, with
// the given shard count, stream i lands on shard i%shards: every shard hosts
// the same number of streams of every family and group.
func buildSources(sh shape, seed int64, shards int) ([]*source, error) {
	tmpl := sh.detectorConfig()
	var out []*source
	for g, gseed := range []int64{qualitySeed, seed} {
		prefix := "q"
		if g == 1 {
			prefix = fmt.Sprintf("s%d", seed)
		}
		for f := family(0); f < numFamilies; f++ {
			for j := 0; j < sh.perFamily[f]; j++ {
				i := len(out)
				gen, err := sh.generator(f, gseed*1_000_003+int64(i%sh.groupSize())*7919)
				if err != nil {
					return nil, fmt.Errorf("stream %d (%s): %w", i, familyNames[f], err)
				}
				id := placedID(fmt.Sprintf("%s-%s%d", prefix, familyNames[f], j), i%shards, shards)
				src := &source{id: id, gen: gen, scored: g == 0, detSeed: tmpl.Seed ^ int64(monitor.Hash64(id))}
				if td, ok := gen.(interface{ TrueDrifts() []stream.DriftEvent }); ok {
					src.truths = td.TrueDrifts()
				}
				out = append(out, src)
			}
		}
	}
	return out, nil
}

// placedID appends the smallest suffix that places base on the wanted shard.
func placedID(base string, want, shards int) string {
	for k := 0; ; k++ {
		id := fmt.Sprintf("%s.%d", base, k)
		if monitor.ShardFor(id, shards) == want {
			return id
		}
	}
}

// generator builds one stream of family f: one concept family per drift
// type under dynamic imbalance, the m=1 local drift on the smallest class,
// and the drift-free role-switch stream that counts false alarms.
func (sh shape) generator(f family, seed int64) (stream.Stream, error) {
	cfg := synth.Config{Features: sh.features, Classes: sh.classes, Seed: seed, Noise: 0.005}
	concept := func(f family, k int) (stream.Stream, error) {
		c := cfg
		c.Seed = seed + int64(k)*977
		switch f {
		case famIncremental:
			if sh.features >= 9 {
				return synth.NewAgrawal(c, k%10)
			}
			return synth.NewHyperplane(c, 0)
		default:
			// Gradual drift blends RBF concepts rather than Hyperplane ones:
			// under the imbalance wrapper a V=20 Hyperplane stream costs
			// about 50 us per emitted observation, which would make input
			// generation dominate the run.
			return synth.NewRBF(c, 3, 0.07)
		}
	}
	n := sh.drifts()
	positions := make([]int, n)
	for i := range positions {
		positions[i] = (i + 1) * sh.period
	}
	sched := stream.NewDynamicSkew(sh.classes, sh.ir/2, sh.ir, 2*sh.period)
	switch f {
	case famLocal, famRoleSwitch:
		base, err := concept(f, 0)
		if err != nil {
			return nil, err
		}
		// Roles rotate off the drift grid, so a rotation never coincides
		// with an injected drift.
		sched.RoleSwitchEvery = sh.period + sh.period/2
		var st stream.Stream = stream.NewImbalanceWrapper(base, sched, seed+11)
		if f == famLocal {
			for i, pos := range positions {
				st = stream.NewLocalDriftInjector(st, []int{sh.classes - 1}, stream.Sudden, pos, 0, seed+3+int64(i)*101)
			}
		}
		return st, nil
	}
	concepts := make([]stream.Stream, n+1)
	for k := range concepts {
		c, err := concept(f, k)
		if err != nil {
			return nil, err
		}
		concepts[k] = c
	}
	kind, width := stream.Sudden, 0
	switch f {
	case famGradual:
		kind, width = stream.Gradual, sh.period/8
	case famIncremental:
		kind, width = stream.Incremental, sh.period/4
	}
	multi := stream.NewMultiDriftStream(concepts, kind, positions, width, seed+7)
	return stream.NewImbalanceWrapper(multi, sched, seed+11), nil
}

// block is one stream's observations for one segment; X slices view slab.
type block struct {
	obs  []detectors.Observation
	slab []float64
}

// fill draws the next segment of src into b, reusing b's buffers.
func (b *block) fill(src *source, n, features int) {
	if cap(b.obs) < n {
		b.obs = make([]detectors.Observation, n)
		b.slab = make([]float64, n*features)
	}
	b.obs = b.obs[:n]
	for i := range b.obs {
		in := src.gen.Next()
		x := b.slab[i*features : (i+1)*features : (i+1)*features]
		copy(x, in.X)
		b.obs[i] = detectors.Observation{X: x, TrueClass: in.Y, Predicted: in.Y}
	}
}

// segment is one segment's input: a block per source, generated outside the
// timed region.
type segment struct {
	blocks []block
}

func newSegment(n int) *segment { return &segment{blocks: make([]block, n)} }

// generate fills seg with the next segment of every source, on two
// goroutines (sources are independent).
func (seg *segment) generate(srcs []*source, sh shape) {
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(srcs); i += 2 {
				seg.blocks[i].fill(srcs[i], sh.segLen, sh.features)
			}
		}()
	}
	wg.Wait()
}
