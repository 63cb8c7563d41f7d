// Sensor network monitoring: an IntelSensors-like stream — few features,
// many classes (sensor nodes), extreme imbalance (chatty gateway nodes vs
// rarely-reporting leaf nodes), and sudden drifts when nodes are moved or
// recalibrated. The example compares RBM-IM against a classic global
// detector (DDM) under the same prequential pipeline, reporting the metrics
// of the paper's evaluation.
//
// Run with:
//
//	go run ./examples/sensornet
package main

import (
	"fmt"
	"log"

	"rbmim"
)

func main() {
	const (
		features = 6
		classes  = 24 // sensor nodes
		horizon  = 80000
	)

	build := func(seed int64) rbmim.Stream {
		// Two "deployments": node positions change suddenly mid-stream.
		before, err := rbmim.NewRBF(rbmim.GeneratorConfig{Features: features, Classes: classes, Seed: seed}, 2, 0.05)
		if err != nil {
			log.Fatal(err)
		}
		after, err := rbmim.NewRBF(rbmim.GeneratorConfig{Features: features, Classes: classes, Seed: seed + 100}, 2, 0.05)
		if err != nil {
			log.Fatal(err)
		}
		moved := rbmim.NewDriftStream(before, after, rbmim.SuddenDrift, horizon/2, 0, seed+1)
		// Reporting rates oscillate between 50:1 and 350:1 and node roles
		// rotate (busy nodes go quiet and vice versa) — Scenario 2 of the
		// paper.
		return rbmim.NewDynamicImbalance(moved, 50, 350, horizon/2, horizon/4, seed+2)
	}

	run := func(name string, det rbmim.Detector) rbmim.Result {
		res := rbmim.RunPipeline(build(21), det, rbmim.PipelineConfig{
			Instances:    horizon,
			MetricWindow: 1000,
			Seed:         22,
		})
		fmt.Printf("%-8s pmAUC=%6.2f  pmGM=%6.2f  signals=%3d  detected=%d/%d  falseAlarms=%d\n",
			name, res.PMAUC, res.PMGM, len(res.Signals),
			res.TruePositives, res.TruePositives+res.MissedDrifts, res.FalseAlarms)
		return res
	}

	fmt.Printf("sensor network: %d nodes, IR up to 350, node relocation at %d\n\n", classes, horizon/2)

	det, err := rbmim.NewDetector(rbmim.DetectorConfig{Features: features, Classes: classes, Seed: 23})
	if err != nil {
		log.Fatal(err)
	}
	rbmRes := run("RBM-IM", det)
	ddmRes := run("DDM", rbmim.NewDDM())
	perfRes := run("PerfSim", rbmim.NewPerfSim(classes))

	fmt.Println()
	switch {
	case rbmRes.PMAUC >= ddmRes.PMAUC && rbmRes.PMAUC >= perfRes.PMAUC:
		fmt.Println("RBM-IM leads on this deployment — its per-class error")
		fmt.Println("monitoring is unaffected by which nodes currently dominate.")
	default:
		fmt.Println("results vary by seed at this horizon; sweep seeds or raise")
		fmt.Println("the horizon for the paper-scale comparison (driftbench -run table3).")
	}
}
