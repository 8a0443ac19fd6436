package experiments

import (
	"fmt"
	"time"

	brisa "repro"
)

// RunFigure13 reproduces Figure 13: the CDF of structure construction time
// for BRISA and TAG, on a cluster (512 nodes) and on PlanetLab (200 nodes).
//
// BRISA's metric: time from a node's first deactivation until all inbound
// links except one are deactivated (the construction probe). TAG's metric:
// time from starting the join traversal until the node settles its list
// position.
func RunFigure13(scale Scale, seed int64) FigureResult {
	clusterNodes := scale.apply(512, 64)
	plNodes := scale.apply(200, 48)
	result := FigureResult{
		Name: "Figure 13 — structure construction time",
		Notes: fmt.Sprintf("cluster nodes=%d, PlanetLab nodes=%d (paper: 512/200)",
			clusterNodes, plNodes),
	}

	run := func(mode brisa.Mode, nodes int, latency brisa.LatencyModel) []brisa.CDFPoint {
		rep := mustRun(brisa.Scenario{
			Name: "fig13",
			Seed: seed,
			Topology: brisa.Topology{
				Nodes:   nodes,
				Latency: latency,
				Peer:    brisa.Config{Mode: mode, ViewSize: 4},
			},
			Workloads: []brisa.Workload{
				{Stream: Stream, Messages: 25, Payload: 1024},
			},
			Probes: []brisa.Probe{brisa.ProbeConstruction},
			Drain:  10 * time.Second,
		})
		return rep.Stream(Stream).Construction.CDF(24)
	}

	result.Series = append(result.Series,
		Series{Name: "Brisa, cluster", Points: run(brisa.ModeTree, clusterNodes, brisa.ClusterLatency())},
		Series{Name: "Tag, cluster", Points: run(brisa.ModeTAG, clusterNodes, brisa.ClusterLatency())},
		Series{Name: "Brisa, PlanetLab", Points: run(brisa.ModeTree, plNodes, brisa.PlanetLab())},
		Series{Name: "Tag, PlanetLab", Points: run(brisa.ModeTAG, plNodes, brisa.PlanetLab())},
	)
	return result
}

// RunFigure14 reproduces Figure 14: the CDF of parent recovery delays for
// hard repairs under 3%/min continuous churn on a 128-node network with
// view size 4, BRISA tree vs TAG.
func RunFigure14(scale Scale, seed int64) FigureResult {
	nodes := scale.apply(128, 48)
	window := time.Duration(float64(10*time.Minute) * float64(scale))
	if window < 2*time.Minute {
		window = 2 * time.Minute
	}
	result := FigureResult{
		Name: "Figure 14 — parent recovery delays (hard repairs)",
		Notes: fmt.Sprintf("nodes=%d, view 4, 3%%/min churn for %v (paper: 128, 10 min)",
			nodes, window),
	}

	// Hard-repair recovery delays come out of the churn scenario's repairs
	// probe: for BRISA the flood fallback, for TAG the re-insertions through
	// the source after the list broke.
	result.Series = append(result.Series,
		Series{Name: "BRISA tree", Points: runChurn(nodes, seed, brisa.ModeTree, 3, window).HardDelays.CDF(24)},
		Series{Name: "TAG", Points: runChurn(nodes, seed, brisa.ModeTAG, 3, window).HardDelays.CDF(24)},
	)
	return result
}
