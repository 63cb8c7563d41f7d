package detectors

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// batchObs draws a deterministic prequential outcome sequence over four
// classes whose error rate jumps halfway, so detectors traverse warning and
// drift states during the comparison (not just None) and DDM-OCI attributes
// its drifts to different classes.
func batchObs(n int, seed int64) []Observation {
	rng := rand.New(rand.NewSource(seed))
	obs := make([]Observation, n)
	for i := range obs {
		k := rng.Intn(4)
		rate := 0.1
		if i >= n/2 {
			rate = 0.6
		}
		pred := k
		if rng.Float64() < rate {
			pred = (k + 1) % 4
		}
		obs[i] = Observation{TrueClass: k, Predicted: pred}
	}
	return obs
}

// driftClasses is a ClassAttributor's DriftClasses, or nil for a detector
// without attribution.
func driftClasses(d Detector) []int {
	if attr, ok := d.(ClassAttributor); ok {
		return slices.Clone(attr.DriftClasses())
	}
	return nil
}

// TestUpdateBatchAdapterMatchesSequential is the update-path contract for
// every bundled detector: for every chunking, looping UpdateBatch on its
// returned count emits the sequential Update loop's states, stops at each
// drift, and reports there the classes the sequential run reports at that
// index.
func TestUpdateBatchAdapterMatchesSequential(t *testing.T) {
	const n = 12000
	obs := batchObs(n, 11)
	for _, chunk := range []int{1, 7, 64, 256} {
		seq := allDetectors()
		bat := allDetectors()
		for di := range seq {
			want := make([]State, n)
			wantClasses := make(map[int][]int)
			for i := range obs {
				want[i] = seq[di].Update(obs[i])
				if want[i] == Drift {
					wantClasses[i] = driftClasses(seq[di])
				}
			}
			got := make([]State, n)
			for start := 0; start < n; start += chunk {
				end := min(start+chunk, n)
				for off := start; off < end; {
					k := UpdateBatch(bat[di], obs[off:end], got[off:end])
					run := got[off : off+k]
					off += k
					if slices.Contains(run[:k-1], Drift) {
						t.Fatalf("%s chunk=%d: UpdateBatch ran past a drift before %d", seq[di].Name(), chunk, off)
					}
					if i := off - 1; got[i] == Drift {
						if c := driftClasses(bat[di]); !reflect.DeepEqual(c, wantClasses[i]) {
							t.Fatalf("%s chunk=%d: drift at %d names classes %v, %v sequentially",
								seq[di].Name(), chunk, i, c, wantClasses[i])
						}
					}
				}
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s chunk=%d: state[%d] = %v via UpdateBatch, %v sequentially",
						seq[di].Name(), chunk, i, got[i], want[i])
				}
			}
			if _, ok := seq[di].(ClassAttributor); ok && distinctClassLists(wantClasses) < 2 {
				t.Fatalf("%s: sequential drifts name fewer than two distinct class lists; the attribution check is vacuous", seq[di].Name())
			}
		}
	}
}

// distinctClassLists counts the distinct class lists among the drifts.
func distinctClassLists(byDrift map[int][]int) int {
	var seen [][]int
	for _, c := range byDrift {
		if !slices.ContainsFunc(seen, func(s []int) bool { return slices.Equal(s, c) }) {
			seen = append(seen, c)
		}
	}
	return len(seen)
}

func TestUpdateBatchEmptyIsNoop(t *testing.T) {
	d := NewDDM()
	if k := UpdateBatch(d, nil, nil); k != 0 {
		t.Fatalf("empty batch consumed %d observations", k)
	}
	if got := d.Update(Observation{TrueClass: 0, Predicted: 0}); got != None {
		t.Fatalf("state after empty batch = %v, want None", got)
	}
}
