package experiments

import (
	"fmt"
	"time"

	brisa "repro"
	"repro/internal/stats"
)

// systems are the four systems of the §III-D comparison, in the paper's
// presentation order.
var systems = []struct {
	name string
	mode brisa.Mode
}{
	{"SimpleTree", brisa.ModeSimpleTree},
	{"BRISA tree, view 4", brisa.ModeTree},
	{"SimpleGossip", brisa.ModeSimpleGossip},
	{"TAG, view 4", brisa.ModeTAG},
}

// runSystem puts one system through the common §III-D workload. All four run
// in the same environment: cluster latencies plus the shared-host contention
// model (a per-message CPU service time with median cpu), which is what makes
// duplicate-heavy protocols pay in the paper's Table II. The traffic probe
// yields the per-phase byte averages; the latency probe yields completeness,
// per-message delay and the first-to-last delivery spread that the paper
// calls dissemination latency.
func runSystem(mode brisa.Mode, nodes, msgs, payload int, seed int64, cpu time.Duration) *brisa.Report {
	drain := 20 * time.Second
	if mode == brisa.ModeTAG {
		// TAG's one-item pulls drain slower than the injection rate; allow the
		// backlog to flush (the Table II effect).
		drain = time.Duration(msgs)*400*time.Millisecond + 60*time.Second
	}
	return mustRun(brisa.Scenario{
		Name: fmt.Sprintf("§III-D %v", mode),
		Seed: seed,
		Topology: brisa.Topology{
			Nodes: nodes,
			// Four of Cyclon's 5 s shuffle rounds fill SimpleGossip's views;
			// a shorter bootstrap measures its anti-entropy, not its rumors.
			// Every system gets the same one.
			StabilizeTime:   20 * time.Second,
			ProcessingDelay: brisa.LogNormalDelay(cpu, 1.0),
			Peer:            brisa.Config{Mode: mode, ViewSize: 4},
		},
		Workloads: []brisa.Workload{
			{Stream: Stream, Messages: msgs, Payload: payload},
		},
		Probes: []brisa.Probe{brisa.ProbeLatency, brisa.ProbeTraffic},
		Drain:  drain,
	})
}

// RunFigure12 reproduces Figure 12: average per-node data transmitted (MB),
// split into stabilization and dissemination, for the four systems and
// payload sizes 0/1/10/20 KB on a 512-node network.
func RunFigure12(scale Scale, seed int64) TableResult {
	nodes := scale.apply(512, 64)
	msgs := scale.apply(500, 50)
	t := &stats.Table{Header: []string{
		"system", "payload", "stabilization MB", "dissemination MB", "total MB", "completeness",
	}}
	for _, kb := range []int{0, 1, 10, 20} {
		for _, sys := range systems {
			rep := runSystem(sys.mode, nodes, msgs, kb*1024, seed, 3*time.Millisecond)
			stab, diss := rep.Traffic.StabMB, rep.Traffic.DissMB
			if sys.mode == brisa.ModeSimpleGossip {
				// The paper books all SimpleGossip traffic under dissemination,
				// since the protocol builds no structure.
				stab, diss = 0, stab+diss
			}
			t.AddRow(
				sys.name,
				fmt.Sprintf("%d KB", kb),
				fmt.Sprintf("%.3f", stab),
				fmt.Sprintf("%.3f", diss),
				fmt.Sprintf("%.3f", stab+diss),
				fmt.Sprintf("%.0f%%", 100*rep.Stream(Stream).Reliability),
			)
		}
	}
	return TableResult{
		Name: "Figure 12 — bandwidth usage per system (per-node averages)",
		Notes: fmt.Sprintf("nodes=%d messages=%d at 5/s (paper: 512/500)",
			nodes, msgs),
		Table: t,
	}
}

// RunTable2 reproduces Table II: dissemination latency — the time between
// the first and last delivered message, averaged over all nodes — for the
// four systems with 500 × 1 KB messages at 5/s (ideal: 99.8 s at full
// scale). Overheads are relative to SimpleTree, like the paper.
func RunTable2(scale Scale, seed int64) TableResult {
	nodes := scale.apply(512, 64)
	msgs := scale.apply(500, 50)
	t := &stats.Table{Header: []string{"protocol", "latency (s)", "overhead", "mean delay (ms)", "completeness"}}
	var baseline float64
	for _, sys := range systems {
		s := runSystem(sys.mode, nodes, msgs, 1024, seed, 8*time.Millisecond).Stream(Stream)
		secs := s.Spread.Mean()
		overhead := "-"
		if sys.mode == brisa.ModeSimpleTree {
			baseline = secs
		} else if baseline > 0 {
			overhead = fmt.Sprintf("%+.0f%%", 100*(secs-baseline)/baseline)
		}
		t.AddRow(sys.name,
			fmt.Sprintf("%.3f", secs),
			overhead,
			fmt.Sprintf("%.1f", 1000*s.Delays.Mean()),
			fmt.Sprintf("%.0f%%", 100*s.Reliability),
		)
	}
	return TableResult{
		Name: "Table II — dissemination latency",
		Notes: fmt.Sprintf("nodes=%d messages=%d×1KB at 5/s, ideal latency %.1fs (paper: 512/500, ideal 100s)",
			nodes, msgs, float64(msgs-1)*MessageInterval.Seconds()),
		Table: t,
	}
}
