package main

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
)

var testSpecs = []spec{
	{Name: "obs_per_s", Better: "higher", Bound: 0.25},
	{Name: "ack_p50_ms", Better: "lower", Bound: 0.25},
	{Name: "drift_recall", Better: "higher", Bound: 0.02},
}

const recall = 0.9411764705882353

// output is a synthetic perfbench stdout: the raw-speed note, then the JSON
// result line.
func output(t *testing.T, correct bool, failed int64, obs, ack, drift float64) string {
	t.Helper()
	type m struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": 100, "failed": failed,
		"metrics": map[string]m{"obs_per_s": {obs, "1/s"}, "ack_p50_ms": {ack, "ms"}, "drift_recall": {drift, "ratio"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("segments 9, measured 3.00 s, host slowness 1.0500, raw obs_per_s %.0f, nominal obs_per_s %.0f\nobs_per_s %g 1/s\n%s\n", obs*1.05, obs, obs, line)
}

// runs parses one synthetic run per obs_per_s value, with the ack_p50_ms
// value of the same index and one drift_recall for all.
func runs(t *testing.T, obs []float64, ack []float64, drift float64, correct bool, failed int64) []run {
	t.Helper()
	var rs []run
	for i := range obs {
		r, err := parseRun(output(t, correct, failed, obs[i], ack[i], drift))
		if err != nil {
			t.Fatal(err)
		}
		rs = append(rs, r)
	}
	return rs
}

func same(v float64) []float64 { return []float64{v, v, v, v, v} }

func TestVerdict(t *testing.T) {
	baseObs := []float64{98, 99, 100, 101, 102} // median 100, IQR 2
	baseAck := []float64{9.8, 9.9, 10, 10.1, 10.2}
	base := runs(t, baseObs, baseAck, recall, true, 0)
	cases := []struct {
		name   string
		base   []run
		change []run
		ok     bool
		row    string // metric row to check, "" for none
		word   string
	}{
		{"A vs A", base, base, true, "obs_per_s", "ok"},
		{"higher-better just inside", base, runs(t, same(75), baseAck, recall, true, 0), true, "obs_per_s", "ok"},
		{"higher-better just outside", base, runs(t, same(74.99), baseAck, recall, true, 0), false, "obs_per_s", "FAIL"},
		{"lower-better just inside", base, runs(t, baseObs, same(12.5), recall, true, 0), true, "ack_p50_ms", "ok"},
		{"lower-better just outside", base, runs(t, baseObs, same(12.51), recall, true, 0), false, "ack_p50_ms", "FAIL"},
		{"exact one ulp worse", base, runs(t, baseObs, baseAck, math.Nextafter(recall, 0), true, 0), false, "drift_recall", "FAIL (exact)"},
		{"exact one ulp better", base, runs(t, baseObs, baseAck, math.Nextafter(recall, 1), true, 0), true, "drift_recall", "ok"},
		{"unresolved", runs(t, []float64{60, 80, 100, 120, 140}, baseAck, recall, true, 0),
			runs(t, same(10), baseAck, recall, true, 0), true, "obs_per_s", "unresolved"},
		{"incorrect change run", base, runs(t, baseObs, baseAck, recall, false, 0), false, "", ""},
		{"incorrect parent run", runs(t, baseObs, baseAck, recall, false, 0), base, false, "", ""},
		{"larger failed share", base, runs(t, baseObs, baseAck, recall, true, 1), false, "", ""},
		{"equal failed share", runs(t, baseObs, baseAck, recall, true, 1), runs(t, baseObs, baseAck, recall, true, 1), true, "", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			lines, ok := verdict(testSpecs, tc.base, tc.change, "meter pass mod 64 32 -> 32")
			report := strings.Join(lines, "\n")
			if ok != tc.ok {
				t.Fatalf("ok = %v, want %v\n%s", ok, tc.ok, report)
			}
			if tc.row == "" {
				return
			}
			for _, l := range lines {
				if strings.HasPrefix(l, tc.row+" ") {
					if !strings.HasSuffix(l, " "+tc.word) {
						t.Fatalf("%s row %q, want verdict %q", tc.row, l, tc.word)
					}
					return
				}
			}
			t.Fatalf("no %s row in\n%s", tc.row, report)
		})
	}
}

func TestParseRunReadsRawSpeed(t *testing.T) {
	r, err := parseRun(output(t, true, 0, 200000, 1, recall))
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Metrics["raw obs_per_s"].Value; got != 210000 {
		t.Fatalf("raw obs_per_s = %v, want 210000", got)
	}
	if got := r.Metrics["host slowness"].Value; got != 1.05 {
		t.Fatalf("host slowness = %v, want 1.05", got)
	}
	if _, err := parseRun("perfbench: no result\n"); err == nil {
		t.Fatal("parseRun accepted output without a result line")
	}
}
