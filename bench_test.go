package brisa_test

// One benchmark per table and figure of the paper's evaluation (§III), plus
// ablation benches for the design choices DESIGN.md calls out. Each bench
// runs the corresponding experiment at a reduced scale (the shapes are
// scale-stable; `go run ./cmd/brisa-figures <name>` produces the full-scale
// result) and reports the experiment's headline metrics through
// b.ReportMetric, so `go test -bench .` regenerates every row/series in
// miniature.

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"

	brisa "repro"
	"repro/experiments"
	"repro/internal/simnet"
	"repro/internal/stats"
)

const benchScale = experiments.Scale(0.15)

// unit builds a whitespace-free metric unit from a series name.
func unit(prefix, name string) string {
	out := make([]rune, 0, len(prefix)+len(name))
	for _, r := range prefix + name {
		switch r {
		case ' ', ',', '=':
			out = append(out, '-')
		default:
			out = append(out, r)
		}
	}
	return string(out)
}

func medianOf(points []stats.CDFPoint) float64 {
	for _, p := range points {
		if p.Pct >= 50 {
			return p.Value
		}
	}
	if len(points) == 0 {
		return 0
	}
	return points[len(points)-1].Value
}

func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunFigure2(benchScale, int64(i+1))
		for _, s := range r.Series {
			b.ReportMetric(medianOf(s.Points), unit("dups/msg:", s.Name))
		}
	}
}

func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunFigure6(benchScale, int64(i+1))
		for _, s := range r.Series {
			b.ReportMetric(medianOf(s.Points), unit("median-depth:", s.Name))
		}
	}
}

func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunFigure7(benchScale, int64(i+1))
		for _, s := range r.Series {
			b.ReportMetric(medianOf(s.Points), unit("median-degree:", s.Name))
		}
	}
}

func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunFigure8(benchScale, int64(i+1))
		b.ReportMetric(float64(len(r.DotView4)), "dot-bytes-view4")
		b.ReportMetric(float64(len(r.DotView8)), "dot-bytes-view8")
	}
}

func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunFigure9(benchScale, int64(i+1))
		for _, s := range r.Series {
			b.ReportMetric(medianOf(s.Points)*1000, unit("median-ms:", s.Name))
		}
	}
}

func BenchmarkFigure10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		down, _ := experiments.RunFigures10And11(benchScale, int64(i+1))
		b.ReportMetric(down.Cells["tree, view=4"][10].P50, "dl-KBps-tree4-10KB")
		b.ReportMetric(down.Cells["DAG, 2 parents, view=4"][10].P50, "dl-KBps-dag4-10KB")
	}
}

func BenchmarkFigure11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, up := experiments.RunFigures10And11(benchScale, int64(i+1))
		b.ReportMetric(up.Cells["tree, view=4"][10].P50, "ul-KBps-tree4-10KB")
		b.ReportMetric(up.Cells["tree, view=4"][10].P90, "ul-KBps-tree4-10KB-p90")
	}
}

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunTable1(benchScale, int64(i+1))
		b.ReportMetric(float64(len(r.Table.Rows)), "rows")
	}
}

func BenchmarkFigure12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunFigure12(benchScale, int64(i+1))
		b.ReportMetric(float64(len(r.Table.Rows)), "rows")
	}
}

func BenchmarkFigure13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunFigure13(benchScale, int64(i+1))
		for _, s := range r.Series {
			b.ReportMetric(medianOf(s.Points)*1000, unit("median-ms:", s.Name))
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunTable2(benchScale, int64(i+1))
		b.ReportMetric(float64(len(r.Table.Rows)), "rows")
	}
}

func BenchmarkFigure14(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunFigure14(benchScale, int64(i+1))
		for _, s := range r.Series {
			if len(s.Points) > 0 {
				b.ReportMetric(medianOf(s.Points)*1000, unit("median-ms:", s.Name))
			}
		}
	}
}

// ---------------------------------------------------------------- scenarios

// benchScenarios is the canonical suite the perf trajectory accumulates
// over: one single-stream tree, one multi-stream/multi-source DAG, one
// flood, at growing sizes.
func benchScenarios() []brisa.Scenario {
	tree := brisa.Scenario{
		Name:     "tree-1x256",
		Seed:     1,
		Topology: brisa.Topology{Nodes: 256, Peer: brisa.Config{Mode: brisa.ModeTree, ViewSize: 4}},
		Workloads: []brisa.Workload{
			{Stream: 1, Messages: 50, Payload: 1024},
		},
	}
	dag := brisa.Scenario{
		Name:     "dag-4x128",
		Seed:     1,
		Topology: brisa.Topology{Nodes: 128, Peer: brisa.Config{Mode: brisa.ModeDAG, ViewSize: 4}},
		Workloads: []brisa.Workload{
			{Stream: 1, Source: 0, Messages: 25, Payload: 1024},
			{Stream: 2, Source: 1, Messages: 25, Payload: 1024},
			{Stream: 3, Source: 2, Messages: 25, Payload: 1024},
			{Stream: 4, Source: 3, Messages: 25, Payload: 1024},
		},
	}
	flood := brisa.Scenario{
		Name:     "flood-1x128",
		Seed:     1,
		Topology: brisa.Topology{Nodes: 128, Peer: brisa.Config{Mode: brisa.ModeFlood, ViewSize: 4}},
		Workloads: []brisa.Workload{
			{Stream: 1, Messages: 50, Payload: 1024},
		},
	}
	return []brisa.Scenario{tree, dag, flood}
}

// BenchmarkScenarios runs the canonical scenario suite through the
// declarative runner, reports each scenario's headline metrics, and writes
// the machine-readable per-scenario reports to BENCH_scenarios.json so the
// performance trajectory accumulates across revisions.
func BenchmarkScenarios(b *testing.B) {
	var records []json.RawMessage
	for i := 0; i < b.N; i++ {
		records = records[:0]
		for _, sc := range benchScenarios() {
			rep, err := brisa.Run(context.Background(), brisa.SimRuntime{}, sc)
			if err != nil {
				b.Fatalf("%s: %v", sc.Name, err)
			}
			var minRel float64 = 1
			for _, s := range rep.Streams {
				if s.Reliability < minRel {
					minRel = s.Reliability
				}
			}
			b.ReportMetric(minRel, unit("reliability:", sc.Name))
			b.ReportMetric(float64(rep.Wall.Milliseconds()), unit("wall-ms:", sc.Name))
			raw, err := json.Marshal(rep)
			if err != nil {
				b.Fatalf("%s: marshal: %v", sc.Name, err)
			}
			records = append(records, raw)
		}
	}
	out, err := json.MarshalIndent(records, "", "  ")
	if err != nil {
		b.Fatalf("marshal records: %v", err)
	}
	if err := os.WriteFile("BENCH_scenarios.json", append(out, '\n'), 0o644); err != nil {
		b.Fatalf("write BENCH_scenarios.json: %v", err)
	}
}

// BenchmarkRuntimeSmoke runs one small scenario on every registered runtime
// through the unified Run entrypoint — the seconds-scale regression canary
// CI runs on every push, so a broken runtime fails the build rather than
// the next bench sweep.
func BenchmarkRuntimeSmoke(b *testing.B) {
	names := make([]string, 0, len(brisa.Runtimes()))
	for name := range brisa.Runtimes() {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rt := brisa.Runtimes()[name]
		if _, ok := rt.(brisa.DistRuntime); ok {
			continue // needs externally started agents; dist_test.go covers it
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := brisa.Run(context.Background(), rt, brisa.Scenario{
					Name:     "smoke-" + name,
					Seed:     int64(i + 1),
					Topology: brisa.Topology{Nodes: 8, Peer: brisa.Config{Mode: brisa.ModeTree, ViewSize: 4}},
					Workloads: []brisa.Workload{
						{Stream: 1, Messages: 10, Payload: 256, Interval: 10 * time.Millisecond},
					},
					Drain: 5 * time.Second,
				})
				if err != nil {
					b.Fatalf("%s: %v", name, err)
				}
				if rel := rep.Stream(1).Reliability; rel != 1 {
					b.Fatalf("%s: reliability %.3f, want 1.0", name, rel)
				}
				b.ReportMetric(float64(rep.Wall.Milliseconds()), "wall-ms")
			}
		})
	}
}

// ---------------------------------------------------------------- ablations

// benchTreeRun measures duplicates, deactivation traffic and construction
// on a small tree cluster with one knob varied.
func benchTreeRun(b *testing.B, seed int64, mutate func(*brisa.Config)) (dupsPerNode float64, constructMedian time.Duration) {
	d, c, _ := benchTreeRunFull(b, seed, mutate)
	return d, c
}

func benchTreeRunFull(b *testing.B, seed int64, mutate func(*brisa.Config)) (dupsPerNode float64, constructMedian time.Duration, deactsPerNode float64) {
	cfg := brisa.Config{Mode: brisa.ModeTree, ViewSize: 4}
	if mutate != nil {
		mutate(&cfg)
	}
	c := newTestCluster(b, brisa.ClusterConfig{Nodes: 96, Seed: seed, Peer: cfg})
	c.Bootstrap()
	source := c.Peers()[0]
	const msgs = 50
	for i := 0; i < msgs; i++ {
		i := i
		c.Net.After(time.Duration(i)*200*time.Millisecond, func() {
			source.Publish(1, make([]byte, 512))
		})
	}
	c.Net.RunFor(msgs*200*time.Millisecond + 10*time.Second)
	var dups, deacts uint64
	var sample stats.Sample
	for _, p := range c.AlivePeers() {
		dups += p.Metrics().Duplicates
		deacts += p.Metrics().DeactivationsSent
		if d, ok := p.ConstructionTime(1); ok {
			sample.AddDuration(d)
		}
	}
	for _, p := range c.AlivePeers() {
		if got := p.DeliveredCount(1); got != msgs {
			b.Fatalf("incomplete dissemination: %d of %d", got, msgs)
		}
	}
	n := float64(len(c.AlivePeers()))
	return float64(dups) / n, time.Duration(sample.Median() * float64(time.Second)), float64(deacts) / n
}

// BenchmarkAblationSymmetricDeactivation quantifies the §II-E optimization.
// Duplicates are unchanged (pruning completes within the first message
// either way); the saving is in explicit deactivation control messages —
// the loser side is pruned without its own Deactivate round.
func BenchmarkAblationSymmetricDeactivation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, _, deactsOn := benchTreeRunFull(b, int64(i+1), nil)
		_, _, deactsOff := benchTreeRunFull(b, int64(i+1), func(cfg *brisa.Config) {
			cfg.DisableSymmetricDeactivation = true
		})
		b.ReportMetric(deactsOn, "deactivations/node:symmetric")
		b.ReportMetric(deactsOff, "deactivations/node:plain")
	}
}

// BenchmarkAblationExpansionFactor compares HyParView expansion factor 1 vs
// 2 (§II-A): the factor dampens join-storm evictions.
func BenchmarkAblationExpansionFactor(b *testing.B) {
	for _, factor := range []float64{1, 2} {
		factor := factor
		name := "x1"
		if factor == 2 {
			name = "x2"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dups, constr := benchTreeRun(b, int64(i+1), func(cfg *brisa.Config) {
					cfg.ExpansionFactor = factor
				})
				b.ReportMetric(dups, "dups/node")
				b.ReportMetric(float64(constr.Milliseconds()), "construct-ms")
			}
		})
	}
}

// BenchmarkAblationStrategies runs the selection strategies head-to-head on
// identical networks.
func BenchmarkAblationStrategies(b *testing.B) {
	for _, s := range []brisa.Strategy{brisa.FirstCome{}, brisa.DelayAware{}, brisa.Gerontocratic{}, brisa.LoadBalancing{}} {
		s := s
		b.Run(s.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dups, _ := benchTreeRun(b, int64(i+1), func(cfg *brisa.Config) {
					cfg.Strategy = s
				})
				b.ReportMetric(dups, "dups/node")
			}
		})
	}
}

// BenchmarkAblationCyclePrevention contrasts the metadata cost of the two
// cycle-prevention mechanisms (§II-D vs §II-G): exact path embedding (tree)
// vs approximate depth labels (DAG with 1 parent), measured as control bytes
// per delivered payload byte.
func BenchmarkAblationCyclePrevention(b *testing.B) {
	run := func(seed int64, mode brisa.Mode) float64 {
		cfg := brisa.Config{Mode: mode, ViewSize: 4}
		if mode == brisa.ModeDAG {
			cfg.Parents = 1
		}
		c := newTestCluster(b, brisa.ClusterConfig{Nodes: 96, Seed: seed, Peer: cfg})
		c.Bootstrap()
		c.Net.ResetUsage()
		c.Net.SetPhase(simnet.PhaseDissemination)
		source := c.Peers()[0]
		const msgs = 50
		for i := 0; i < msgs; i++ {
			i := i
			c.Net.After(time.Duration(i)*200*time.Millisecond, func() {
				source.Publish(1, make([]byte, 512))
			})
		}
		c.Net.RunFor(msgs*200*time.Millisecond + 10*time.Second)
		var control, payload uint64
		for _, p := range c.AlivePeers() {
			u := c.Net.Usage(p.ID())
			control += u.UpBytes[simnet.PhaseDissemination][0]
			payload += u.UpBytes[simnet.PhaseDissemination][1]
		}
		return float64(control) / float64(payload)
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(run(int64(i+1), brisa.ModeTree), "ctl-bytes/payload-byte:path-embedding")
		b.ReportMetric(run(int64(i+1), brisa.ModeDAG), "ctl-bytes/payload-byte:depth-labels")
	}
}

// BenchmarkSimulatorThroughput measures raw simulator performance: events
// processed per second for a 512-node flood — the substrate cost all
// experiments pay.
func BenchmarkSimulatorThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := newTestCluster(b, brisa.ClusterConfig{
			Nodes: 512,
			Seed:  int64(i + 1),
			Peer:  brisa.Config{Mode: brisa.ModeTree, ViewSize: 4},
		})
		c.Bootstrap()
		source := c.Peers()[0]
		for k := 0; k < 50; k++ {
			k := k
			c.Net.After(time.Duration(k)*200*time.Millisecond, func() {
				source.Publish(1, make([]byte, 1024))
			})
		}
		c.Net.RunFor(50*200*time.Millisecond + 10*time.Second)
	}
}
