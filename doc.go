// Package rbmim is a from-scratch Go reproduction of "Concept Drift
// Detection from Multi-Class Imbalanced Data Streams" (Korycki & Krawczyk,
// ICDE 2021). It provides:
//
//   - The RBM-IM trainable drift detector: a three-layer Restricted
//     Boltzmann Machine with a class-balanced, skew-insensitive loss that
//     tracks per-class reconstruction-error trends inside self-adaptive
//     windows and confirms changes with a Granger causality test — detecting
//     both global drifts and local drifts confined to single minority
//     classes.
//   - Nine reference drift detectors (DDM, EDDM, RDDM, ADWIN, HDDM-A,
//     FHDDM, WSTD, PerfSim, DDM-OCI) behind one Detector interface.
//   - Multi-class stream generators (Agrawal, Hyperplane, RBF, RandomTree,
//     SEA), drift orchestration (sudden / gradual / incremental, global and
//     local), dynamic class-imbalance schedules with role switching, and
//     synthetic surrogates for the paper's 12 real-world benchmarks.
//   - A cost-sensitive perceptron tree base classifier, prequential
//     multi-class AUC / G-mean metrics, and the full experiment harness
//     that regenerates every table and figure of the paper's evaluation.
//   - A sharded multi-stream Monitor service (NewMonitor) that hosts one
//     independent detector per stream across a fixed pool of worker
//     shards, with consistent-hash placement, drift-event subscription,
//     idle-stream GC, and aggregate snapshot statistics.
//   - Checkpointable detector state (SaveDetector / LoadDetector and
//     MonitorConfig.Checkpoint): versioned CRC-protected snapshots with
//     bit-identical resume for RBM-IM, periodic per-stream persistence,
//     spill-on-evict, and transparent rehydration through pluggable
//     in-memory or filesystem stores.
//   - A network serving layer (NewServer / Dial): the Monitor behind a
//     codec-framed binary TCP protocol with a zero-allocation batch
//     ingest path on both ends, one Client that routes streams over a
//     fleet of servers and a set of pipelined connections per server,
//     streamed drift-event subscriptions,
//     explicit backpressure (Busy replies), a checkpoint-flush barrier,
//     and an HTTP sidecar with /healthz and Prometheus /metrics —
//     cmd/driftserver is the ready-made binary.
//
// # Quick start
//
//	det, err := rbmim.NewDetector(rbmim.DetectorConfig{Features: 20, Classes: 5})
//	if err != nil { ... }
//	for {
//		x, y := nextInstance()
//		if det.Update(rbmim.Observation{X: x, TrueClass: y, Predicted: y}) == rbmim.Drift {
//			fmt.Println("drift on classes", det.DriftClasses())
//		}
//	}
//
// See the examples/ directory for runnable programs and DESIGN.md /
// EXPERIMENTS.md for the reproduction methodology.
package rbmim
