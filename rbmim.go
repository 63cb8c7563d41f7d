package rbmim

import (
	"errors"
	"fmt"
	"io"

	"rbmim/internal/core"
	"rbmim/internal/detectors"
	"rbmim/internal/eval"
	"rbmim/internal/monitor"
	"rbmim/internal/realworld"
	"rbmim/internal/server"
	"rbmim/internal/stream"
	"rbmim/internal/synth"
	"rbmim/internal/telemetry"
)

// Observation is one prequential outcome handed to a detector.
type Observation = detectors.Observation

// State is a detector's output after one observation.
type State = detectors.State

// Detector states.
const (
	None    = detectors.None
	Warning = detectors.Warning
	Drift   = detectors.Drift
)

// Detector is the common drift-detector interface shared by RBM-IM and all
// reference detectors.
type Detector = detectors.Detector

// UpdateBatch feeds obs to det in order, writing the state Update returns
// for obs[i] into states[i], and returns the number consumed: len(obs), or
// fewer when a Drift ends the run early, so DriftClasses then names that
// drift's classes alone. Loop until the block is consumed. states must have
// at least len(obs) elements.
func UpdateBatch(det Detector, obs []Observation, states []State) int {
	return detectors.UpdateBatch(det, obs, states)
}

// ClassAttributor is implemented by detectors that attribute drifts to
// specific classes (RBM-IM, DDM-OCI).
type ClassAttributor = detectors.ClassAttributor

// StatefulDetector is implemented by detectors whose trained state can be
// checkpointed and restored (RBM-IM natively — bit-identical resume — plus
// the DDM, EDDM and ADWIN baselines). See SaveDetector / LoadDetector.
type StatefulDetector = detectors.StatefulDetector

// ErrNotStateful is returned by SaveDetector / LoadDetector for detectors
// that do not implement StatefulDetector.
var ErrNotStateful = errors.New("rbmim: detector does not support checkpointing")

// SaveDetector writes det's complete mutable state to w as one versioned,
// CRC-protected binary frame. For RBM-IM the snapshot is exact: restoring it
// and continuing to train is bit-identical to never stopping (weights, class
// counts, scaler bounds, per-class trend statistics, partially filled
// mini-batch, and RNG position are all captured). Returns ErrNotStateful
// when det cannot serialize.
func SaveDetector(det Detector, w io.Writer) error {
	sd, ok := det.(StatefulDetector)
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotStateful, det.Name())
	}
	return sd.SaveState(w)
}

// LoadDetector restores det from a snapshot written by SaveDetector for an
// identically configured detector of the same type. Corrupt, truncated, or
// mismatched input returns an error and leaves det completely unchanged.
func LoadDetector(det Detector, r io.Reader) error {
	sd, ok := det.(StatefulDetector)
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotStateful, det.Name())
	}
	return sd.LoadState(r)
}

// DetectorConfig parameterizes RBM-IM (see internal/core.Config; zero values
// select the paper-aligned defaults).
type DetectorConfig = core.Config

// RBMIM is the paper's contribution: the trainable, skew-insensitive,
// per-class drift detector.
type RBMIM = core.Detector

// NewDetector builds an RBM-IM detector. Features and Classes are required;
// every other field defaults sensibly.
func NewDetector(cfg DetectorConfig) (*RBMIM, error) {
	if !cfg.AdaptiveWindow {
		// The self-adaptive window is a core design element of the paper;
		// the public constructor enables it. Construct core.Detector
		// directly to study the fixed-window ablation.
		cfg.AdaptiveWindow = true
	}
	return core.NewDetector(cfg)
}

// Reference detector constructors, re-exported for side-by-side comparisons.
var (
	// NewDDM builds the Drift Detection Method (Gama et al. 2004).
	NewDDM = func() Detector { return detectors.NewDDM() }
	// NewEDDM builds the Early Drift Detection Method.
	NewEDDM = func() Detector { return detectors.NewEDDM() }
	// NewRDDM builds the Reactive Drift Detection Method.
	NewRDDM = func() Detector { return detectors.NewRDDM() }
	// NewADWIN builds the adaptive-windowing detector.
	NewADWIN = func() Detector { return detectors.NewADWINDetector(0.002) }
	// NewHDDMA builds the Hoeffding-bound A-test detector.
	NewHDDMA = func() Detector { return detectors.NewHDDMA() }
	// NewFHDDM builds the Fast Hoeffding Drift Detection Method.
	NewFHDDM = func() Detector { return detectors.NewFHDDM(0, 0) }
)

// NewWSTD builds the Wilcoxon rank-sum test detector (zero values select
// defaults).
func NewWSTD(windowSize int, warningSig, driftSig float64, maxOld int) Detector {
	return detectors.NewWSTD(windowSize, warningSig, driftSig, maxOld)
}

// NewPerfSim builds the confusion-matrix-similarity detector for a stream
// with the given class count.
func NewPerfSim(classes int) Detector { return detectors.NewPerfSim(classes, 0, 0, 0) }

// NewDDMOCI builds the per-class-recall detector for online class imbalance.
func NewDDMOCI(classes int) Detector { return detectors.NewDDMOCI(classes, 0, 0) }

// Stream types.
type (
	// Instance is one labeled observation.
	Instance = stream.Instance
	// Schema describes a stream's shape.
	Schema = stream.Schema
	// Stream is a source of instances.
	Stream = stream.Stream
	// DriftKind selects sudden / gradual / incremental transitions.
	DriftKind = stream.DriftKind
	// DriftEvent is a ground-truth concept change.
	DriftEvent = stream.DriftEvent
	// GeneratorConfig is the shared generator parameter set.
	GeneratorConfig = synth.Config
)

// Drift kinds.
const (
	SuddenDrift      = stream.Sudden
	GradualDrift     = stream.Gradual
	IncrementalDrift = stream.Incremental
)

// Generator constructors (multi-class re-implementations of the MOA
// families used in the paper's artificial benchmarks).
func NewHyperplane(cfg GeneratorConfig, driftSpeed float64) (Stream, error) {
	return synth.NewHyperplane(cfg, driftSpeed)
}

// NewRBF builds the radial-basis-function generator.
func NewRBF(cfg GeneratorConfig, centroidsPerClass int, spread float64) (Stream, error) {
	return synth.NewRBF(cfg, centroidsPerClass, spread)
}

// NewRandomTree builds the random-tree generator.
func NewRandomTree(cfg GeneratorConfig, depth int) (Stream, error) {
	return synth.NewRandomTree(cfg, depth)
}

// NewAgrawal builds the multi-class Agrawal generator with the given scoring
// function (0..9).
func NewAgrawal(cfg GeneratorConfig, function int) (Stream, error) {
	return synth.NewAgrawal(cfg, function)
}

// NewSEA builds the SEA-concepts generator.
func NewSEA(cfg GeneratorConfig, offset float64) (Stream, error) {
	return synth.NewSEA(cfg, offset)
}

// NewDriftStream composes two concepts with a transition of the given kind
// at position (width ignored for sudden drift).
func NewDriftStream(before, after Stream, kind DriftKind, position, width int, seed int64) Stream {
	return stream.NewDriftStream(before, after, kind, position, width, seed)
}

// NewLocalDriftInjector injects a real concept drift affecting only the
// given classes, starting at position.
func NewLocalDriftInjector(base Stream, classes []int, kind DriftKind, position, width int, seed int64) Stream {
	return stream.NewLocalDriftInjector(base, classes, kind, position, width, seed)
}

// NewImbalanced reshapes any stream to a static geometric class skew with
// the given maximum imbalance ratio.
func NewImbalanced(base Stream, ir float64, seed int64) Stream {
	return stream.NewImbalanceWrapper(base, stream.NewStaticSkew(base.Schema().Classes, ir), seed)
}

// NewDynamicImbalance reshapes any stream with an oscillating imbalance
// ratio in [irLow, irHigh]; roleSwitchEvery > 0 additionally rotates class
// roles (majority becomes minority and vice versa) at that period.
func NewDynamicImbalance(base Stream, irLow, irHigh float64, period, roleSwitchEvery int, seed int64) Stream {
	sched := stream.NewDynamicSkew(base.Schema().Classes, irLow, irHigh, period)
	sched.RoleSwitchEvery = roleSwitchEvery
	return stream.NewImbalanceWrapper(base, sched, seed)
}

// Multi-stream monitor re-exports: a sharded, concurrent service hosting one
// independent drift detector per stream (see internal/monitor).
type (
	// Monitor multiplexes many independent streams over worker shards.
	Monitor = monitor.Monitor
	// MonitorConfig parameterizes a Monitor; the Detector field is the
	// RBM-IM template applied to every stream.
	MonitorConfig = monitor.Config
	// MonitorEvent is one detected drift on one monitored stream.
	MonitorEvent = monitor.Event
	// MonitorSnapshot is a point-in-time aggregate view of a Monitor.
	MonitorSnapshot = monitor.Snapshot
	// DetectorFactory builds a detector for a newly observed stream
	// (MonitorConfig.NewDetector).
	DetectorFactory = monitor.Factory
	// CheckpointConfig enables detector-state persistence on a Monitor
	// (MonitorConfig.Checkpoint): periodic snapshots, spill on evict/idle-GC,
	// rehydration on re-ingest, and a Close-time flush.
	CheckpointConfig = monitor.CheckpointConfig
	// CheckpointStore persists per-stream detector snapshots; implement it to
	// back checkpoints with your own storage, or use NewMemStore /
	// NewFSStore.
	CheckpointStore = monitor.Store
	// MemStore is the in-process CheckpointStore.
	MemStore = monitor.MemStore
	// FSStore is the one-file-per-stream filesystem CheckpointStore.
	FSStore = monitor.FSStore
	// MonitorSubscription is one subscriber's private, bounded drift-event
	// queue on an in-process Monitor (Monitor.Subscribe, the only way to
	// receive drift events). Each subscriber receives every event; a slow
	// one drops only its own.
	MonitorSubscription = monitor.Subscription
)

// Observability re-exports: per-stage latency histograms and the drift
// flight recorder (see internal/telemetry and MonitorSnapshot.Latency).
type (
	// TelemetryLevel selects how much of the hot path is timed
	// (MonitorConfig.Telemetry, ServerConfig.Telemetry). The zero value is
	// TelemetryFull: telemetry is on by default and never changes drift
	// decisions.
	TelemetryLevel = telemetry.Level
	// TelemetryStage is one stage's latency summary: count, sum, p50/p95/p99
	// estimates, and the raw log2 bucket counts (mergeable across processes).
	TelemetryStage = telemetry.Stage
	// DriftRecord is the flight-recorder record attached to a drift: the
	// recent per-class reconstruction-error / trend-slope / ADWIN-width
	// samples leading up to it (MonitorEvent.Record, Client.LastDrift).
	DriftRecord = core.DriftRecord
	// DriftSample is one flight-recorder sample.
	DriftSample = core.DriftSample
	// DriftReport is a stream's most recent drift with its flight-recorder
	// record (Monitor.LastDrift, Client.LastDrift).
	DriftReport = monitor.DriftReport
)

// Telemetry levels.
const (
	TelemetryFull  = telemetry.Full
	TelemetryBasic = telemetry.Basic
	TelemetryOff   = telemetry.Off
)

// ParseTelemetryLevel parses "full" (or ""), "basic", or "off".
func ParseTelemetryLevel(s string) (TelemetryLevel, error) { return telemetry.ParseLevel(s) }

// MergeTelemetryStages folds per-process stage sets into one: histograms
// with the same stage name sum bucket-wise and the quantiles are
// recomputed from the merged buckets (what MergeSnapshots uses for
// MonitorSnapshot.Latency).
func MergeTelemetryStages(groups ...[]TelemetryStage) []TelemetryStage {
	return telemetry.MergeStages(groups...)
}

// NewMemStore builds an in-memory checkpoint store (spill-and-rehydrate
// within one process, tests).
func NewMemStore() *MemStore { return monitor.NewMemStore() }

// NewFSStore builds a filesystem checkpoint store rooted at dir (one
// atomically replaced file per stream), creating the directory if needed.
// Checkpoints survive process restarts: a new Monitor pointed at the same
// directory rehydrates every stream on first ingest.
func NewFSStore(dir string) (*FSStore, error) { return monitor.NewFSStore(dir) }

// ErrMonitorClosed is returned by Monitor methods after Close.
var ErrMonitorClosed = monitor.ErrClosed

// NewMonitor builds and starts a sharded multi-stream drift monitor. Streams
// are created lazily on first Ingest, placed on shards by consistent hashing
// of the stream ID, and evicted explicitly or after MonitorConfig.IdleTTL of
// inactivity. Producers holding blocks of observations should prefer
// Monitor.IngestBatch: a block travels the shard queue as one slab-copied
// envelope and reaches the stream's detector in one batched update.
func NewMonitor(cfg MonitorConfig) (*Monitor, error) { return monitor.New(cfg) }

// Network serving layer re-exports: a Monitor served over TCP with a
// codec-framed binary protocol (see internal/server), and the matching
// client whose steady-state batch ingest allocates nothing.
type (
	// Server exposes a Monitor over TCP plus an optional HTTP sidecar
	// (/healthz, Prometheus /metrics).
	Server = server.Server
	// ServerConfig parameterizes a Server; Monitor is required.
	ServerConfig = server.Config
	// Client speaks the driftserver wire protocol to one server or a
	// fleet: Ingest / IngestBatch (and their Async forms) / Evict /
	// FlushCheckpoints / Snapshot / LastDrift / Subscribe / Close, plus
	// live stream migration between fleet members (Migrate, Rebalance). A
	// consistent-hash ring maps each stream to a member, and the member's
	// connection set to one pipelined connection, so every stream's
	// observations arrive in send order. One Client is safe for any
	// number of producer goroutines, and steady-state ingest allocates
	// nothing.
	Client = server.Client
	// ClientConfig parameterizes Dial: Addrs (required), Conns per member
	// (default 1), Window per connection (default DefaultClientWindow) and
	// the Retry policy (zero = no retries).
	ClientConfig = server.ClientConfig
	// ClientSubscription is a server-pushed drift-event stream on its own
	// connection (Client.Subscribe).
	ClientSubscription = server.Subscription
	// ClientPending is the handle of an asynchronous pipelined request
	// (Client.IngestAsync / Client.IngestBatchAsync); Wait must be called
	// exactly once.
	ClientPending = server.Pending
	// ClusterMemberSnapshot is one fleet member's snapshot labelled with its
	// address (Client.MemberSnapshots).
	ClusterMemberSnapshot = server.MemberSnapshot
)

// DefaultClientWindow is the in-flight request window a zero
// ClientConfig.Window selects.
const DefaultClientWindow = server.DefaultWindow

// NewServer builds a Server and starts serving immediately. The server
// borrows the Monitor: Server.Close tears down only the network side, and
// closing the Monitor afterwards flushes the checkpoint store — the
// graceful-shutdown order cmd/driftserver implements.
func NewServer(cfg ServerConfig) (*Server, error) { return server.New(cfg) }

// Dial connects a Client to every driftserver in cfg.Addrs. Any
// unreachable address fails the whole dial.
func Dial(cfg ClientConfig) (*Client, error) { return server.Dial(cfg) }

// DialWindow connects a Client to one driftserver at addr ("host:port")
// with an explicit in-flight request window: up to window requests may be
// outstanding (Client.IngestAsync / Client.IngestBatchAsync) before the
// next call blocks. Window 1 degenerates to a serial stop-and-wait client.
// It is shorthand for Dial(ClientConfig{Addrs: []string{addr}, Window:
// window}).
func DialWindow(addr string, window int) (*Client, error) {
	return Dial(ClientConfig{Addrs: []string{addr}, Window: window})
}

// RetryPolicy configures how a Client's connections survive failure
// (ClientConfig.Retry): reconnect with capped jittered exponential backoff,
// Busy retries, request deadlines, and a stall watchdog. The zero value
// disables every mechanism.
type RetryPolicy = server.RetryPolicy

// ErrorClass is the retry-relevant classification of a client error; see
// Classify.
type ErrorClass = server.ErrorClass

// The client error classes; see Classify.
const (
	ErrorClassApp       = server.ClassApp
	ErrorClassTransport = server.ClassTransport
	ErrorClassProtocol  = server.ClassProtocol
	ErrorClassBusy      = server.ClassBusy
	ErrorClassClosed    = server.ClassClosed
	ErrorClassDeadline  = server.ClassDeadline
)

// DefaultRetryPolicy returns the production retry shape: reconnect,
// backoff, Busy retries, stall watchdog; request timeouts stay opt-in.
func DefaultRetryPolicy() RetryPolicy { return server.DefaultRetryPolicy() }

// IsStreamNotFound reports whether err is a Client.Migrate failure for a
// stream the source server neither hosts nor has checkpointed.
func IsStreamNotFound(err error) bool { return server.IsStreamNotFound(err) }

// MergeSnapshots folds per-member monitor snapshots into one fleet-wide
// view: counters and per-class drift counts sum, per-shard breakdowns
// concatenate, and the conservation identity Received == Ingested +
// Rejected + Queued survives the merge.
func MergeSnapshots(sns ...MonitorSnapshot) MonitorSnapshot { return monitor.MergeSnapshots(sns...) }

// Classify returns the retry-relevant class of an error returned by Client
// or ClientPending methods.
func Classify(err error) ErrorClass { return server.Classify(err) }

// ErrClientClosed is returned by Client methods after Client.Close.
var ErrClientClosed = server.ErrClientClosed

// ErrBusy is returned when the server sheds load (ServerConfig.
// ShedHighWater) and the client's Busy retries are exhausted or disabled.
var ErrBusy = server.ErrBusy

// ErrDeadlineExceeded is returned when a request deadline
// (RetryPolicy.RequestTimeout, ClientPending.WaitTimeout/WaitDeadline)
// expires before the reply arrives.
var ErrDeadlineExceeded = server.ErrDeadlineExceeded

// ErrServerDrain marks a connection the server closed cleanly at a frame
// boundary (graceful shutdown), as opposed to a mid-frame cut, which
// surfaces as an error wrapping io.ErrUnexpectedEOF.
var ErrServerDrain = server.ErrServerDrain

// Evaluation harness re-exports.
type (
	// PipelineConfig configures one prequential run.
	PipelineConfig = eval.PipelineConfig
	// Result summarizes one prequential run.
	Result = eval.Result
	// BenchmarkStream is one of the paper's 24 Table I benchmarks.
	BenchmarkStream = eval.BenchmarkStream
	// RealWorldSpec describes one real-world surrogate (Table I row).
	RealWorldSpec = realworld.Spec
)

// RunPipeline executes the prequential test-then-train loop binding a
// stream, the cost-sensitive perceptron tree, and a detector.
func RunPipeline(s Stream, det Detector, cfg PipelineConfig) Result {
	return eval.RunPipeline(s, det, cfg)
}

// Benchmarks returns the 24 Table I benchmark streams.
func Benchmarks() []BenchmarkStream { return eval.AllBenchmarks() }

// RealWorldSpecs returns the 12 real-world surrogate specifications.
func RealWorldSpecs() []RealWorldSpec { return realworld.All() }
