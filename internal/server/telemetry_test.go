package server

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"rbmim/internal/codec"
	"rbmim/internal/core"
	"rbmim/internal/detectors"
	"rbmim/internal/monitor"
	"rbmim/internal/telemetry"
	"rbmim/internal/telemetry/telemetrytest"
)

// recordingDriftEveryN is wireDriftEveryN plus the flight-recorder
// capability the monitor attaches to events: a deterministic record built
// from the update counter, so the test can assert exact round-trip bytes.
type recordingDriftEveryN struct {
	wireDriftEveryN
}

func (d *recordingDriftEveryN) LastDriftRecord() *core.DriftRecord {
	return &core.DriftRecord{
		Batch:   d.updates,
		Classes: []int{d.class},
		Samples: []core.DriftSample{
			{Batch: d.updates - 1, Class: d.class, Err: 0.75, Slope: 0.0625, Width: d.updates},
		},
	}
}

// TestServerReadyz covers the readiness split: /readyz answers 200 while
// serving, 503 once the server starts draining, and /healthz stays a
// liveness-only 200 throughout.
func TestServerReadyz(t *testing.T) {
	srv, _, _ := newTestServer(t, monitor.Config{
		NewDetector: func(string) (detectors.Detector, error) { return nullDetector{}, nil },
	}, Config{HTTPAddr: "127.0.0.1:0"})

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + srv.HTTPAddr() + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	if code, body := get("/readyz"); code != http.StatusOK || !strings.Contains(body, "ready") {
		t.Fatalf("/readyz while serving = %d %q, want 200 ready", code, body)
	}
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz while serving = %d, want 200", code)
	}

	// Flip the readiness gate the way Close does (Close's first store),
	// with the sidecar still up: the draining window a load balancer sees.
	srv.ready.Store(false)
	if code, body := get("/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Fatalf("/readyz while draining = %d %q, want 503 draining", code, body)
	}
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz while draining = %d, want 200 (liveness is not readiness)", code)
	}
}

// TestFlightRecorderWire round-trips a drift flight record end to end: the
// event frame carries the record to subscribers, and LastDrift retrieves
// the same report on demand — including from a different connection.
func TestFlightRecorderWire(t *testing.T) {
	srv, _, c := newTestServer(t, monitor.Config{
		Shards: 2,
		NewDetector: func(string) (detectors.Detector, error) {
			return &recordingDriftEveryN{wireDriftEveryN{n: 10, class: 2}}, nil
		},
	}, Config{})
	sub, err := c.Subscribe(64)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	obs := testObs(4, 25)
	if err := c.IngestBatch("drifty", obs); err != nil {
		t.Fatal(err)
	}
	if err := c.IngestBatch("calm", obs[:5]); err != nil {
		t.Fatal(err)
	}
	for _, wantSeq := range []uint64{10, 20} {
		select {
		case ev := <-sub.Events():
			if ev.StreamID != "drifty" || ev.Seq != wantSeq {
				t.Fatalf("event = %q/%d, want drifty/%d", ev.StreamID, ev.Seq, wantSeq)
			}
			rec := ev.Record
			if rec == nil {
				t.Fatalf("event seq %d carries no flight record", wantSeq)
			}
			if rec.Batch != int(wantSeq) || len(rec.Classes) != 1 || rec.Classes[0] != 2 {
				t.Fatalf("record = batch %d classes %v, want batch %d classes [2]", rec.Batch, rec.Classes, wantSeq)
			}
			want := core.DriftSample{Batch: int(wantSeq) - 1, Class: 2, Err: 0.75, Slope: 0.0625, Width: int(wantSeq)}
			if len(rec.Samples) != 1 || rec.Samples[0] != want {
				t.Fatalf("record samples = %+v, want [%+v]", rec.Samples, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out waiting for event seq %d", wantSeq)
		}
	}

	// LastDrift from a second connection: the report is server state, not
	// subscription state.
	c2, err := Dial(ClientConfig{Addrs: []string{srv.Addr()}})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	rep, found, err := c2.LastDrift("drifty")
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("LastDrift(drifty) found nothing after two drift events")
	}
	if rep.StreamID != "drifty" || rep.Seq != 20 {
		t.Fatalf("report = %q/%d, want drifty/20", rep.StreamID, rep.Seq)
	}
	if len(rep.Classes) != 1 || rep.Classes[0] != 2 {
		t.Fatalf("report classes = %v, want [2]", rep.Classes)
	}
	if rep.Record == nil || rep.Record.Batch != 20 || len(rep.Record.Samples) != 1 {
		t.Fatalf("report record = %+v, want batch 20 with one sample", rep.Record)
	}
	if rep.At.IsZero() || time.Since(rep.At) > time.Minute {
		t.Fatalf("report timestamp %v did not survive the wire", rep.At)
	}
	if _, found, err := c2.LastDrift("calm"); err != nil || found {
		t.Fatalf("LastDrift(calm) = found %v err %v, want not found on an undrifted stream", found, err)
	}
	if _, found, err := c2.LastDrift("no-such-stream"); err != nil || found {
		t.Fatalf("LastDrift(no-such-stream) = found %v err %v, want not found", found, err)
	}
}

// TestServerTelemetryStages checks the full telemetry path over the wire:
// server-side serve_* stages land in the snapshot, client-side rtt_* stages
// land in Client.Latency, and the HTTP sidecar exports both as conformant
// Prometheus histogram series.
func TestServerTelemetryStages(t *testing.T) {
	srv, _, c := newTestServer(t, monitor.Config{
		Detector: core.Config{Features: 8, Classes: 3, Seed: 7},
		Shards:   2,
	}, Config{HTTPAddr: "127.0.0.1:0"})

	obs := testObs(8, 48)
	if err := c.Ingest("alpha", obs[0]); err != nil {
		t.Fatal(err)
	}
	if err := c.IngestBatch("alpha", obs[1:]); err != nil {
		t.Fatal(err)
	}
	// An ack means enqueued; the flush barrier means applied, so the
	// monitor-side stages have observed both ingests.
	if err := c.FlushCheckpoints(); err != nil {
		t.Fatal(err)
	}
	sn, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	stages := make(map[string]uint64)
	for _, st := range sn.Latency {
		stages[st.Stage] = st.Count
	}
	for _, want := range []string{"serve_ingest", "serve_ingest_batch", "queue_wait", "detector_update"} {
		if stages[want] == 0 {
			t.Fatalf("snapshot latency lacks stage %q (have %v)", want, sn.Latency)
		}
	}
	// Ingest travels as a one-observation IngestBatch frame and is timed
	// under serve_ingest; only the 47-observation block is a batch.
	if got := stages["serve_ingest"]; got != 1 {
		t.Fatalf("serve_ingest count = %d, want 1", got)
	}
	if got := stages["serve_ingest_batch"]; got != 1 {
		t.Fatalf("serve_ingest_batch count = %d, want 1", got)
	}

	lat := c.Latency()
	rtt := make(map[string]uint64)
	for _, st := range lat {
		rtt[st.Stage] = st.Count
	}
	// Ingest + IngestBatch + Snapshot have completed round trips by now.
	for _, want := range []string{"rtt_ingest", "rtt_ingest_batch", "rtt_snapshot"} {
		if rtt[want] == 0 {
			t.Fatalf("client latency lacks stage %q (have %v)", want, lat)
		}
	}
	if rtt["rtt_ingest"] != 1 || rtt["rtt_ingest_batch"] != 1 {
		t.Fatalf("rtt_ingest/rtt_ingest_batch counts = %d/%d, want 1/1", rtt["rtt_ingest"], rtt["rtt_ingest_batch"])
	}
	for _, st := range lat {
		if st.P50NS <= 0 || st.P99NS < st.P50NS {
			t.Fatalf("stage %q quantiles p50=%d p99=%d are not ordered", st.Stage, st.P50NS, st.P99NS)
		}
	}

	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", srv.HTTPAddr()))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	exposition := string(body)
	if !strings.Contains(exposition, `rbmim_stage_seconds_bucket{stage="serve_ingest_batch",le=`) {
		t.Fatalf("/metrics lacks serve_ingest_batch histogram series:\n%s", exposition)
	}
	telemetrytest.CheckHistogramExposition(t, exposition, "rbmim_stage_seconds")
}

// TestServerTelemetryOff verifies the off switch removes every histogram
// without touching replies: the same workload serves fine and the snapshot
// exports no latency stages.
func TestServerTelemetryOff(t *testing.T) {
	_, _, c := newTestServer(t, monitor.Config{
		Detector:  core.Config{Features: 8, Classes: 3, Seed: 7},
		Telemetry: telemetry.Off,
	}, Config{Telemetry: telemetry.Off})

	if err := c.IngestBatch("alpha", testObs(8, 16)); err != nil {
		t.Fatal(err)
	}
	// An ack means enqueued, not applied; the flush barrier means applied.
	if err := c.FlushCheckpoints(); err != nil {
		t.Fatal(err)
	}
	sn, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(sn.Latency) != 0 {
		t.Fatalf("snapshot with telemetry off has latency stages %v, want none", sn.Latency)
	}
	if sn.Ingested != 16 {
		t.Fatalf("ingested = %d, want 16 (telemetry off must not change serving)", sn.Ingested)
	}
}

// TestServeSamplePerRequest pins the request loop's clock: back-to-back
// pipelined frames each produce one serve_ingest sample, and so does a frame
// whose second half arrives 5 ms after its first — its sample starts when
// the frame is whole, so it never covers the socket wait.
func TestServeSamplePerRequest(t *testing.T) {
	srv, _, _ := newTestServer(t, monitor.Config{
		Shards:      1,
		QueueSize:   4096,
		NewDetector: func(string) (detectors.Detector, error) { return nullDetector{}, nil },
	}, Config{})
	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	sc := codec.NewFrameScanner(nc)
	obs := testObs(4, 1)[0]
	seq := uint64(0)
	frame := func() []byte {
		seq++
		b := codec.NewBuffer(nil)
		mark := b.BeginFrame(codec.KindWireIngestBatch)
		b.U64(seq) // request id
		b.U64(7)   // session
		b.U64(seq)
		b.Str("s")
		b.U32(1)
		encodeObs(b, obs)
		b.EndFrame(mark)
		return b.Bytes()
	}
	write := func(p []byte) {
		t.Helper()
		if _, err := nc.Write(p); err != nil {
			t.Fatal(err)
		}
	}
	acks := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			kind, _, err := sc.Next()
			if err != nil {
				t.Fatal(err)
			}
			if kind != codec.KindWireOK {
				t.Fatalf("reply kind %d, want OK", kind)
			}
		}
	}
	serveIngest := func() telemetry.Stage {
		return srv.tele.serve[stageOf(codec.KindWireIngestBatch, 1)].Load("serve_ingest")
	}

	const burst = 16
	var p []byte
	for i := 0; i < burst; i++ {
		p = append(p, frame()...)
	}
	write(p)
	acks(burst)
	if got := serveIngest().Count; got != burst {
		t.Fatalf("serve_ingest count after %d back-to-back frames = %d, want %d", burst, got, burst)
	}

	// One write carries a whole frame and the first half of the next; the
	// rest follows 5 ms later.
	before := serveIngest()
	whole, split := frame(), frame()
	write(append(whole, split[:len(split)/2]...))
	time.Sleep(5 * time.Millisecond)
	write(split[len(split)/2:])
	acks(2)
	after := serveIngest()
	if got := after.Count - before.Count; got != 2 {
		t.Fatalf("serve_ingest count grew by %d for two frames, want 2", got)
	}
	for i := range after.Buckets {
		if after.Buckets[i] == before.Buckets[i] {
			continue
		}
		// A sample in a bucket bounded below 5 ms is under 5 ms.
		if bound, finite := telemetry.BucketBound(i); !finite || bound >= int64(5*time.Millisecond) {
			t.Fatalf("a serve_ingest sample landed in the bucket bounded by %v: it covers the 5 ms socket wait", time.Duration(bound))
		}
	}
}
