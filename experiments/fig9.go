package experiments

import (
	"fmt"
	"time"

	brisa "repro"
)

// RunFigure9 reproduces Figure 9: the distribution of routing delays on a
// PlanetLab-like network of 150 nodes (tree, view 4, 200 × 1 KB messages)
// for four series: direct point-to-point communication, the delay-aware
// strategy, the first-come first-picked strategy, and plain flooding.
//
// Metric note: the paper reports cumulative
// per-hop round-trip times; we report one-way source-to-node delivery
// delays per message (mean per node, the Report's NodeDelays), with the
// point-to-point series as the direct one-way latency. The comparison
// across series is the same.
func RunFigure9(scale Scale, seed int64) FigureResult {
	nodes := scale.apply(150, 40)
	msgs := scale.apply(200, 40)
	result := FigureResult{
		Name: "Figure 9 — routing delays on PlanetLab",
		Notes: fmt.Sprintf("nodes=%d messages=%d payload=1KB (paper: 150/200); tree view 4",
			nodes, msgs),
	}

	scenario := func(mode brisa.Mode, strategy brisa.Strategy) brisa.Scenario {
		return brisa.Scenario{
			Name: "fig9",
			Seed: seed,
			Topology: brisa.Topology{
				Nodes:           nodes,
				Latency:         brisa.PlanetLabSites(15),
				NodeBandwidth:   250_000,
				ProcessingDelay: brisa.LogNormalDelay(20*time.Millisecond, 1.0),
				Peer:            brisa.Config{Mode: mode, ViewSize: 4, Strategy: strategy},
			},
			Workloads: []brisa.Workload{
				// Only the steady-state second half of the stream is measured.
				{Stream: Stream, Messages: msgs, Payload: 1024, Warmup: msgs / 2},
			},
			Probes: []brisa.Probe{brisa.ProbeLatency},
			Drain:  20 * time.Second,
		}
	}
	run := func(mode brisa.Mode, strategy brisa.Strategy) *brisa.Dist {
		return mustRun(scenario(mode, strategy)).Stream(Stream).NodeDelays
	}

	// Point-to-point: the direct one-way latency from the source to each
	// node, sampled from the same latency model without disseminating.
	{
		c := mustCluster(scenario(brisa.ModeTree, brisa.FirstCome{}))
		src := c.Peers()[0].ID()
		direct := &brisa.Dist{}
		for _, p := range c.Peers()[1:] {
			direct.AddDuration(c.Net.EstimateLatency(src, p.ID()))
		}
		result.Series = append(result.Series, Series{Name: "point-to-point", Points: direct.CDF(24)})
	}

	result.Series = append(result.Series,
		Series{Name: "delay-aware", Points: run(brisa.ModeTree, brisa.DelayAware{}).CDF(24)},
		Series{Name: "first-pick", Points: run(brisa.ModeTree, brisa.FirstCome{}).CDF(24)},
		Series{Name: "flood", Points: run(brisa.ModeFlood, brisa.FirstCome{}).CDF(24)},
	)
	return result
}
