// Package server exposes a Monitor over TCP: a length-prefixed binary
// protocol built from internal/codec's versioned, CRC-protected frames, a
// serving loop whose steady-state ingest path allocates nothing, and a
// matching Client with the same property. See DESIGN.md ("Network serving
// layer") for the protocol-vs-gRPC decision record.
//
// # Wire protocol
//
// Every message is one codec frame (magic | version | kind | length |
// payload | CRC-32). Request payloads start with a uint64 request id that
// the matching reply echoes; replies are sent in request order on the same
// connection. The request kinds are IngestBatch (a single observation is a
// block of one), Subscribe, SnapshotReq, Evict, Flush, the
// cluster-migration trio Migrate, Handoff, and Streams, and LastDrift
// (fetch a stream's most recent drift report with its flight-recorder
// samples); replies are OK, Busy (an IngestBatch the server shed under
// overload), Error (with a message), Snapshot (canonical JSON), State (a
// Migrate reply carrying the exported stream's checkpoint envelope),
// StreamIDs (a Streams reply listing resident streams), and Drift (a
// LastDrift reply carrying a JSON drift report, zero-length when the
// stream has not drifted). Event frames
// carry, after the classes, a length-prefixed JSON flight-recorder record
// (length 0 when absent) — the detector-internal samples leading up to the
// drift, attached server-side at publish time.
// Migrate serializes a stream's detector into the same envelope frame the
// checkpoint store holds, spills a copy, and removes the stream — a re-sent
// Migrate whose reply was lost re-reads the spilled copy, so retries return
// identical bytes. Handoff installs an exported envelope on the receiving
// server via the rehydration path and refuses a stream that is already
// resident, which is how a duplicate handoff after a lost ack surfaces (the
// cluster layer treats that refusal as success; see cluster.go). A
// connection that sends Subscribe receives an
// OK and then becomes a one-way event stream (a Subscribe asking for a
// queue of more than 64 times monitor.DefaultSubscriptionBuffer events
// draws an Error instead): the server pushes Event
// frames (request id 0) and treats any further request on that connection
// as a protocol error. Backpressure is explicit at every hop: IngestBatch
// blocks its own connection (never the accept loop), overload shedding
// (Config.ShedHighWater) turns a saturated shard into a Busy reply — the
// wire's only overload signal — and a slow subscriber overflows its own
// bounded queue on the monitor side, where the drops are counted. An OK
// ingest reply means the block was enqueued, not yet applied: a Flush
// request is the barrier after which every acked ingest has reached its
// detector.
//
// An observation travels as X (length-prefixed float64s), the true and
// predicted labels, and optional per-class scores. Batch payloads carry the
// stream ID once and the observation count up front, so the server can
// decode straight into pooled slabs sized from the payload length.
//
// IngestBatch payloads carry, between the request id and the stream ID,
// the client's session id and a per-stream sequence number (both uint64) —
// the exactly-once identity under retry: a reconnecting client resends
// requests whose acks were lost, and the server acks a (session, stream,
// seq) it already committed without re-ingesting (see dedup.go). The
// commit check is an atomic claim, not a lookup: a resend arriving on a new
// connection while the original request is still blocked inside the
// monitor's enqueue on the old one waits for that outcome instead of
// double-ingesting. A seq that fell out of the dedup window without ever
// committing is rejected with an Error reply — its fate is undecidable, and
// a false OK would be silent data loss. Session 0 opts out of
// deduplication. When overload shedding is enabled
// (Config.ShedHighWater) a blocking ingest for a saturated shard is refused
// with Busy, which a retrying client backs off and resends — with the same
// seq, so the eventual commit is still exactly once.
//
// The protocol has no handshake; version negotiation is by frame kind. The
// wire kind ids live in a numeric block that moves wholesale on any
// incompatible payload change (internal/codec documents the revisions), so
// a version-skewed peer draws one "unknown request kind" Error and a
// hangup — a clean incompatibility failure — instead of having its payload
// bytes misparsed under the new layout.
//
// Revision 3 retired two request kinds without moving the block, since no
// surviving payload changed shape: the single-observation Ingest (kind 64)
// and the non-blocking batch kind (66), superseded by overload shedding.
// Both numbers stay reserved, and a peer still sending them draws the
// "unknown request kind" Error and a hangup.
//
// # Parallel fan-in
//
// Each connection is served by its own goroutine, so N clients are N
// concurrent producers pushing into the monitor's per-shard MPSC rings
// (internal/monitor). No serialization happens on the server side: the
// rings take concurrent pushes directly, a stream's observations stay in
// its connection's send order (per-producer FIFO through one ring), and the
// monitor's ordering-equivalence guarantee — identical per-stream drift
// decisions at any shard/producer count — extends to wire-fed workloads.
// Replies stay in per-connection request order because each handler decodes
// and answers sequentially; only the detector work behind the rings fans
// out across cores.
package server

import (
	"rbmim/internal/codec"
	"rbmim/internal/detectors"
)

// Request latency stages: the server times each request's service
// (serve_* stages) and the client its round trip (rtt_* stages), one
// histogram per stage. stageIngest holds one-observation IngestBatch frames,
// so single-observation ingest keeps its own series; stageIngestBatch holds
// every other block; Subscribe and the later request kinds follow in kind
// order.
const (
	stageIngest = iota
	stageIngestBatch
	stageSubscribe
	numStages = stageSubscribe + int(codec.KindWireLastDrift-codec.KindWireSubscribe) + 1
)

// stageOf maps a request kind carrying obs observations (IngestBatch only)
// to its stage index, or -1 for a kind that is not a live request.
func stageOf(kind uint8, obs int) int {
	switch {
	case kind == codec.KindWireIngestBatch && obs == 1:
		return stageIngest
	case kind == codec.KindWireIngestBatch:
		return stageIngestBatch
	case kind >= codec.KindWireSubscribe && kind <= codec.KindWireLastDrift:
		return stageSubscribe + int(kind-codec.KindWireSubscribe)
	}
	return -1
}

// minObsBytes is the smallest possible encoded observation (empty X, no
// scores): the length prefix, two int64 labels, and the scores flag. Batch
// decoding validates the declared count against it so a hostile count field
// cannot drive allocation.
const minObsBytes = 4 + 8 + 8 + 1

// encodeObs appends one observation to a request payload.
func encodeObs(b *codec.Buffer, o detectors.Observation) {
	b.F64s(o.X)
	b.Int(o.TrueClass)
	b.Int(o.Predicted)
	if o.Scores != nil {
		b.Bool(true)
		b.F64s(o.Scores)
	} else {
		b.Bool(false)
	}
}

// decodeObs reads one observation, appending its X and Scores onto slab and
// returning the grown slab with the observation viewing it. The caller must
// presize slab so the appends cannot relocate earlier observations' views
// (payloadLen/8 is a safe bound on the total floats in a payload).
func decodeObs(rd *codec.Reader, slab []float64) ([]float64, detectors.Observation) {
	var o detectors.Observation
	start := len(slab)
	slab = rd.F64sInto(slab)
	o.X = slab[start:len(slab):len(slab)]
	o.TrueClass = rd.Int()
	o.Predicted = rd.Int()
	if rd.Bool() {
		start = len(slab)
		slab = rd.F64sInto(slab)
		o.Scores = slab[start:len(slab):len(slab)]
	}
	return slab, o
}
