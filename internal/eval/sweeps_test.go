package eval

import (
	"reflect"
	"strings"
	"testing"
)

// TestSweepBenchmarkSelection pins how the Figure 8-9 runners resolve
// SweepConfig.Benchmarks: artificial names are kept in order, real-world
// names are skipped (the sweeps are defined on the artificial streams), and
// an unknown name or a selection with no artificial stream fails before any
// pipeline runs.
func TestSweepBenchmarkSelection(t *testing.T) {
	cases := []struct {
		names   []string
		want    []string // nil: all 12
		wantErr string
	}{
		{names: nil},
		{names: []string{"RBF5", "Hyperplane10"}, want: []string{"RBF5", "Hyperplane10"}},
		{names: []string{"EEG", "RBF5"}, want: []string{"RBF5"}},
		{names: []string{"RBFX"}, wantErr: `unknown benchmark "RBFX"`},
		{names: []string{"RBF5", "rbf10"}, wantErr: `unknown benchmark "rbf10"`},
		{names: []string{"EEG"}, wantErr: "no artificial benchmark"},
		{names: []string{}, wantErr: "no artificial benchmark"},
	}
	for _, c := range cases {
		specs, err := SelectArtificial(c.names)
		if c.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("%q: err = %v, want %q", c.names, err, c.wantErr)
			}
			for _, run := range []func(SweepConfig) ([]SweepOutput, error){RunLocalDriftSweep, RunImbalanceSweep} {
				if _, err := run(SweepConfig{Scale: 0.002, Benchmarks: c.names}); err == nil {
					t.Errorf("%q: sweep ran, want an error", c.names)
				}
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: %v", c.names, err)
			continue
		}
		var got []string
		for _, s := range specs {
			got = append(got, s.Name)
		}
		want := c.want
		if want == nil {
			for _, s := range artificial() {
				want = append(want, s.Name)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%q: selected %q, want %q", c.names, got, want)
		}
	}
}
