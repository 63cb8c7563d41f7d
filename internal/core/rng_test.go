package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// rngTestSeeds include 0 and negative seeds, which math/rand folds into its
// seeding range in its own way.
var rngTestSeeds = []int64{0, 1, -1, 11, 2021, -987654321, math.MaxInt64, math.MinInt64}

// rngStep is one call on both generators; it reports a mismatch.
type rngStep func(t *testing.T, want *rand.Rand, got *countedSource, gotRand *rand.Rand, label string)

func stepUint64(t *testing.T, want *rand.Rand, got *countedSource, _ *rand.Rand, label string) {
	t.Helper()
	if w, g := want.Uint64(), got.Uint64(); w != g {
		t.Fatalf("%s: Uint64 %#x, math/rand %#x", label, g, w)
	}
}

func stepInt63(t *testing.T, want *rand.Rand, got *countedSource, _ *rand.Rand, label string) {
	t.Helper()
	if w, g := want.Int63(), got.Int63(); w != g {
		t.Fatalf("%s: Int63 %#x, math/rand %#x", label, g, w)
	}
}

func stepFloat64(t *testing.T, want *rand.Rand, _ *countedSource, gotRand *rand.Rand, label string) {
	t.Helper()
	if w, g := want.Float64(), gotRand.Float64(); math.Float64bits(w) != math.Float64bits(g) {
		t.Fatalf("%s: Float64 %v, math/rand %v", label, g, w)
	}
}

func stepNorm(t *testing.T, want *rand.Rand, _ *countedSource, gotRand *rand.Rand, label string) {
	t.Helper()
	if w, g := want.NormFloat64(), gotRand.NormFloat64(); math.Float64bits(w) != math.Float64bits(g) {
		t.Fatalf("%s: NormFloat64 %v, math/rand %v", label, g, w)
	}
}

// stepFill returns a step that bulk-fills n uniforms and checks them
// against n calls of math/rand's Float64.
func stepFill(n int) rngStep {
	return func(t *testing.T, want *rand.Rand, got *countedSource, _ *rand.Rand, label string) {
		t.Helper()
		buf := make([]float64, n)
		got.fillFloat64(buf)
		for i, g := range buf {
			if w := want.Float64(); math.Float64bits(w) != math.Float64bits(g) {
				t.Fatalf("%s: fillFloat64(%d)[%d] = %v, math/rand Float64 %v", label, n, i, g, w)
			}
		}
	}
}

// TestCountedSourceMatchesMathRand runs mixed single calls and bulk fills on
// the owned stream and on rand.New(rand.NewSource(seed)) side by side. The
// single calls cover every way rand.Rand reaches the source; the fills
// start at every ring position class (before, at and after both lags) and
// cross the seam where the seeded outputs end and the recurrence begins.
func TestCountedSourceMatchesMathRand(t *testing.T) {
	singles := []rngStep{stepUint64, stepInt63, stepFloat64, stepNorm}
	for _, seed := range rngTestSeeds {
		// Fills that start at draw offsets around both lags and the seam.
		for _, lead := range []int{0, 1, 272, 273, 274, 333, 334, 335, 600, 606, 607, 608, 880, 1213, 1214} {
			want := rand.New(rand.NewSource(seed))
			got := newCountedSource(seed)
			label := fmt.Sprintf("seed %d lead %d", seed, lead)
			for i := 0; i < lead; i++ {
				stepUint64(t, want, got, nil, label)
			}
			for _, n := range []int{700, 1, 273, 334, 607, 1500} {
				stepFill(n)(t, want, got, nil, label)
			}
			if got.calls != uint64(lead+700+1+273+334+607+1500) {
				t.Fatalf("%s: %d draws counted", label, got.calls)
			}
		}
		// A long random mix of single calls and fills.
		want := rand.New(rand.NewSource(seed))
		got := newCountedSource(seed)
		gotRand := rand.New(got)
		pick := rand.New(rand.NewSource(seed ^ 0x5eed))
		for op := 0; op < 4000; op++ {
			label := fmt.Sprintf("seed %d op %d", seed, op)
			if pick.Intn(5) == 0 {
				stepFill(pick.Intn(90))(t, want, got, gotRand, label)
				continue
			}
			singles[pick.Intn(len(singles))](t, want, got, gotRand, label)
		}
	}
}

// TestCountedSourceSkipTo replays to counts before, at and after the seam
// and checks that the stream then continues as math/rand does.
func TestCountedSourceSkipTo(t *testing.T) {
	for _, seed := range rngTestSeeds {
		for _, n := range []uint64{0, 1, 272, 273, 334, 606, 607, 608, 1214, 5000} {
			got := newCountedSource(seed ^ 1) // a different stream, overwritten by skipTo
			got.Uint64()
			got.skipTo(seed, n)
			if got.calls != n {
				t.Fatalf("seed %d: skipTo(%d) left the count at %d", seed, n, got.calls)
			}
			want := rand.New(rand.NewSource(seed))
			for i := uint64(0); i < n; i++ {
				want.Uint64()
			}
			label := fmt.Sprintf("seed %d skipTo %d", seed, n)
			for i := 0; i < 700; i++ {
				stepUint64(t, want, got, nil, label)
			}
			stepFill(650)(t, want, got, nil, label)
		}
	}
}

// TestFillFloat64RedrawsOne plants raw draws that Float64 maps to 1.0 and
// checks that fillFloat64 discards them as rand.Rand.Float64 does: in the
// seeded prefix and in the recurrence, at the first value of a fill and
// inside one.
func TestFillFloat64RedrawsOne(t *testing.T) {
	if uniform(1<<63-512) != 1 || uniform(1<<64-1) != 1 {
		t.Fatal("raw draws within 512 of 2^63 must map to 1.0")
	}
	if uniform(1<<63-513) >= 1 {
		t.Fatal("the largest draw below the rounding boundary must map below 1.0")
	}
	for _, start := range []uint64{10, 606, 607, 2000} {
		for _, at := range []int{0, 3} {
			for _, raw := range []uint64{1<<63 - 512, 1<<64 - 1} {
				label := fmt.Sprintf("start %d, 1.0 at fill position %d, raw %#x", start, at, raw)
				c := newCountedSource(7)
				c.skipTo(7, start)
				// Plant the raw value `at` draws ahead.
				ahead := *c
				for i := 0; i < at; i++ {
					ahead.Uint64()
				}
				slot := ahead.pos
				if ahead.calls < rngLen {
					c.ring[slot] = raw
				} else {
					c.ring[slot] = raw - c.ring[tapSlot(slot)]
				}
				ref := *c
				refRand := rand.New(&ref)
				buf := make([]float64, 8)
				c.fillFloat64(buf)
				for i, g := range buf {
					if w := refRand.Float64(); math.Float64bits(w) != math.Float64bits(g) {
						t.Fatalf("%s: fillFloat64[%d] = %v, rand.Rand.Float64 %v", label, i, g, w)
					}
					if g == 1 {
						t.Fatalf("%s: fillFloat64 returned 1.0", label)
					}
				}
				if c.calls != ref.calls || c.calls != start+9 {
					t.Fatalf("%s: %d draws counted, rand.Rand consumed %d, want %d", label, c.calls, ref.calls, start+9)
				}
			}
		}
	}
}
