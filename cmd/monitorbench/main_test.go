package main

import (
	"errors"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"rbmim"
)

// The test workload: small enough that every case finishes in about a
// second, with each stream long enough to cross its halfway drift.
const (
	testStreams   = 8
	testInstances = 300
	testFeatures  = 8
	testClasses   = 3
	testSent      = testStreams * testInstances
)

var workloadArgs = []string{
	"-streams", strconv.Itoa(testStreams), "-instances", strconv.Itoa(testInstances),
	"-features", strconv.Itoa(testFeatures), "-classes", strconv.Itoa(testClasses),
}

// startServers starts n in-process driftservers on loopback ports, each
// with an in-memory checkpoint store (a migration's handoff target), and
// returns their addresses and monitors. factory, when non-nil, replaces the
// RBM-IM detector factory.
func startServers(t *testing.T, n int, factory rbmim.DetectorFactory) ([]string, []*rbmim.Monitor) {
	t.Helper()
	var addrs []string
	var mons []*rbmim.Monitor
	for i := 0; i < n; i++ {
		m, err := rbmim.NewMonitor(rbmim.MonitorConfig{
			Detector:    rbmim.DetectorConfig{Features: testFeatures, Classes: testClasses, Seed: 7},
			NewDetector: factory,
			Shards:      2,
			Checkpoint:  rbmim.CheckpointConfig{Store: rbmim.NewMemStore(), Interval: time.Hour},
		})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := rbmim.NewServer(rbmim.ServerConfig{Monitor: m})
		if err != nil {
			m.Close()
			t.Fatal(err)
		}
		t.Cleanup(func() {
			srv.Close()
			m.Close()
		})
		addrs = append(addrs, srv.Addr())
		mons = append(mons, m)
	}
	return addrs, mons
}

// ingested sums the monitors' Ingested and Rehydrated counters: the
// servers' own account of the run, read without the wire.
func ingested(mons []*rbmim.Monitor) (obs, rehydrated uint64) {
	for _, m := range mons {
		sn := m.Snapshot()
		obs += sn.Ingested
		rehydrated += sn.Rehydrated
	}
	return obs, rehydrated
}

// TestRunConservesEveryObservation drives the three CI traffic shapes —
// pipelined load with subscriber churn, a migrating fleet, and a chaos
// proxy — and checks each against the servers' own counters.
func TestRunConservesEveryObservation(t *testing.T) {
	cases := []struct {
		name    string
		servers int
		args    []string
		check   func(t *testing.T, out string, rehydrated uint64)
	}{
		{name: "churn", servers: 1,
			args: []string{"-clients", "4", "-conns", "2", "-inflight", "8", "-batch", "16", "-churn", "2"}},
		{name: "fleet-migrate", servers: 3,
			args: []string{"-clients", "4", "-inflight", "4", "-batch", "50", "-migrate", "4"},
			check: func(t *testing.T, out string, rehydrated uint64) {
				if !strings.Contains(out, "members=3 ") || !strings.Contains(out, "migrated=4]") {
					t.Errorf("result row does not report 3 members and 4 migrations:\n%s", out)
				}
				if rehydrated < 4 {
					t.Errorf("fleet rehydrated %d streams after 4 migrations", rehydrated)
				}
			}},
		{name: "chaos", servers: 1,
			args: []string{"-clients", "4", "-conns", "2", "-inflight", "8", "-batch", "16",
				"-chaosreset", "40", "-chaosdup", "0.1", "-chaosdrop", "0.02", "-chaosseed", "42"},
			check: func(t *testing.T, out string, _ uint64) {
				m := regexp.MustCompile(`reconnects=(\d+)`).FindStringSubmatch(out)
				if m == nil || m[1] == "0" {
					t.Errorf("chaos run reports no reconnect:\n%s", out)
				}
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			addrs, mons := startServers(t, tc.servers, nil)
			args := append([]string{"-remote", strings.Join(addrs, ",")}, workloadArgs...)
			var out strings.Builder
			if err := run(append(args, tc.args...), &out); err != nil {
				t.Fatalf("monitorbench %s: %v\n%s", strings.Join(tc.args, " "), err, out.String())
			}
			t.Log(out.String())
			obs, rehydrated := ingested(mons)
			if obs != testSent {
				t.Errorf("servers ingested %d observations, sent %d", obs, testSent)
			}
			if tc.check != nil {
				tc.check(t, out.String(), rehydrated)
			}
		})
	}
}

// TestRunFailsItsChecks shows that the post-run checks can fail: a server
// that refuses one stream's detector rejects that stream's observations,
// and a reset schedule too sparse to fire leaves zero reconnects.
func TestRunFailsItsChecks(t *testing.T) {
	refuse := func(id string) (rbmim.Detector, error) {
		if id == "stream-0003" {
			return nil, errors.New("refused")
		}
		return rbmim.NewDetector(rbmim.DetectorConfig{Features: testFeatures, Classes: testClasses, Seed: 7})
	}
	for _, tc := range []struct {
		name    string
		factory rbmim.DetectorFactory
		args    []string
		want    string
	}{
		{"conservation", refuse, []string{"-batch", "50"},
			"ingested 2100 observations, sent 2400"},
		{"reconnects", nil, []string{"-batch", "50", "-chaosreset", "1000000"},
			"recorded zero reconnects"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addrs, _ := startServers(t, 1, tc.factory)
			args := append([]string{"-remote", addrs[0]}, workloadArgs...)
			var out strings.Builder
			err := run(append(args, tc.args...), &out)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got error %v, want one containing %q\n%s", err, tc.want, out.String())
			}
		})
	}
}

// TestRunRejectsArguments checks that argument sets that cannot work fail
// with a named error before any load: nothing is printed and no address is
// dialed (the addresses here have no server behind them).
func TestRunRejectsArguments(t *testing.T) {
	const two = "127.0.0.1:1,127.0.0.1:2"
	for _, tc := range []struct {
		args []string
		want error
	}{
		{[]string{"-remote", two, "-churn", "1"}, errChurnFleet},
		{[]string{"-remote", two, "-chaosreset", "40"}, errChaosFleet},
		{[]string{"-remote", "127.0.0.1:1", "-migrate", "4"}, errMigrateAlone},
		{[]string{"-remote", ""}, errNoAddr},
		{[]string{"-streams", "4"}, errNoAddr},
		{[]string{"-remote", "127.0.0.1:1", "-shards", "1,2"}, nil},
	} {
		var out strings.Builder
		err := run(tc.args, &out)
		switch {
		case err == nil:
			t.Errorf("monitorbench %s succeeded", strings.Join(tc.args, " "))
		case tc.want != nil && !errors.Is(err, tc.want):
			t.Errorf("monitorbench %s: got %v, want %v", strings.Join(tc.args, " "), err, tc.want)
		case tc.want == nil && !strings.Contains(err.Error(), "flag provided but not defined"):
			t.Errorf("monitorbench %s: got %v, want an undefined-flag error", strings.Join(tc.args, " "), err)
		}
		if out.Len() != 0 {
			t.Errorf("monitorbench %s printed before rejecting:\n%s", strings.Join(tc.args, " "), out.String())
		}
	}
}
