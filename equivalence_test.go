package brisa_test

// The sequential-vs-sharded equivalence harness — the contract that lets the
// multi-core scheduler evolve without silently diverging from the engine the
// paper reproductions were validated on.
//
// The sharded scheduler (internal/simnet, Workers > 1) was designed so that
// the simulation outcome is a pure function of (seed, workload),
// independent of the worker count: events are ordered by a key that no
// execution interleaving can change, latency draws are per-sender streams
// rather than a global RNG, and conservative lookahead windows keep shards
// from ever observing each other mid-window. The harness enforces the
// strongest checkable form of that claim: every golden scenario's full
// Report JSON — the deterministic probes (reliability, delivered counts,
// structure, traffic, repair counts) and the timing distributions
// (latency/spread/duplicate percentiles) alike — must be byte-identical on
// 1, 2 and 8 workers. Identical distributions subsume the "statistically
// bounded agreement" a looser parallel engine would settle for.
//
// The engine-level half of the harness lives in internal/simnet
// (TestShardedEquivalence), pinning raw transcripts: every delivery,
// connection event and timestamp.

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	brisa "repro"
)

// equivalenceWorkerCounts are the sharded configurations checked against
// the sequential engine. 8 intentionally exceeds this machine's core count
// and the shard count stays correct regardless of parallel hardware.
var equivalenceWorkerCounts = []int{2, 8}

// baselineCases are the §III-D comparison systems as scenarios, TAG a second
// time under churn with the repairs probe. They pin no golden file: the
// engine contract — the same Report on every worker count — compares runs
// within one commit.
func baselineCases() []goldenCase {
	sc := func(name string, mode brisa.Mode) brisa.Scenario {
		return brisa.Scenario{
			Name: name,
			Seed: 23,
			Topology: brisa.Topology{
				Nodes: 64,
				Peer:  brisa.Config{Mode: mode, ViewSize: 4},
			},
			Workloads: []brisa.Workload{
				{Stream: 1, Messages: 40, Payload: 256},
			},
			Probes: []brisa.Probe{brisa.ProbeLatency, brisa.ProbeTraffic},
			Drain:  20 * time.Second,
		}
	}
	churn := sc("tag-churn-1x64", brisa.ModeTAG)
	churn.Churn = &brisa.Churn{Script: "from 0s to 8s const churn 15% each 2s", Start: time.Second}
	churn.Probes = append(churn.Probes, brisa.ProbeRepairs)
	return []goldenCase{
		{name: "simpletree", sc: sc("simpletree-1x64", brisa.ModeSimpleTree)},
		{name: "simplegossip", sc: sc("simplegossip-1x64", brisa.ModeSimpleGossip)},
		{name: "tag", sc: sc("tag-1x64", brisa.ModeTAG)},
		{name: "tag-churn", sc: churn},
	}
}

// TestEngineEquivalence runs every golden scenario and every baseline system
// on the sequential engine and on each sharded configuration, requiring
// byte-identical Reports.
func TestEngineEquivalence(t *testing.T) {
	for _, gc := range append(goldenCases(), baselineCases()...) {
		gc := gc
		t.Run(gc.name, func(t *testing.T) {
			want := runGolden(t, gc.sc, 1)
			for _, workers := range equivalenceWorkerCounts {
				got := runGolden(t, gc.sc, workers)
				if !bytes.Equal(got, want) {
					t.Errorf("workers=%d diverged from the sequential engine\nsequential:\n%s\nworkers=%d:\n%s",
						workers, want, workers, got)
				}
			}
		})
	}
}

// TestEquivalenceForcedParallel re-runs the multistream golden and the
// baseline systems with the inline-window optimization disabled (every
// multi-shard window fans out to worker goroutines), so the cross-goroutine
// code path is exercised at the full protocol stack — and, in CI, under
// -race. A scenario this small would otherwise mostly run inline. The
// tag-churn case is where every shard reports hard repairs at once: the
// collector keeps one sample per node, where Figure 14 once appended to a
// single shared one from all of them.
func TestEquivalenceForcedParallel(t *testing.T) {
	for _, gc := range append([]goldenCase{goldenCases()[1]}, baselineCases()...) {
		gc := gc
		t.Run(gc.name, func(t *testing.T) {
			want := runGolden(t, gc.sc, 1)

			cfg := brisa.ClusterConfig{
				Nodes:             gc.sc.Topology.Nodes,
				Peer:              gc.sc.Topology.Peer,
				Seed:              gc.sc.Seed,
				Workers:           4,
				ParallelThreshold: -1,
			}
			c, err := brisa.NewCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if got := c.Workers(); got != 4 {
				t.Fatalf("cluster Workers() = %d, want 4", got)
			}
			rep, err := brisa.Run(nil, brisa.SimRuntime{Cluster: c}, gc.sc)
			if err != nil {
				t.Fatal(err)
			}
			if got := normalizeReport(t, rep); !bytes.Equal(got, want) {
				t.Errorf("forced-parallel run diverged from the sequential engine\nsequential:\n%s\nparallel:\n%s", want, got)
			}
			if gc.sc.Churn != nil && rep.Churn.HardDelays.Len() == 0 {
				t.Error("the churn script provoked no hard repair: the case no longer covers the repair fold")
			}
		})
	}
}

// TestEquivalenceAcrossChunking pins a property the scenario runner relies
// on: the sharded scheduler's window structure follows RunUntil deadlines,
// and results must not depend on how virtual time is sliced into RunFor
// chunks (the runner advances in 1s chunks to observe context
// cancellation).
func TestEquivalenceAcrossChunking(t *testing.T) {
	run := func(workers int, chunk time.Duration) string {
		c, err := brisa.NewCluster(brisa.ClusterConfig{
			Nodes: 32, Seed: 3,
			Peer:    brisa.Config{Mode: brisa.ModeTree, ViewSize: 4},
			Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.Bootstrap()
		src := c.Peers()[0]
		for i := 0; i < 20; i++ {
			c.Net.After(time.Duration(i)*100*time.Millisecond, func() {
				src.Publish(1, []byte("chunked"))
			})
		}
		total := 10 * time.Second
		for ran := time.Duration(0); ran < total; ran += chunk {
			step := chunk
			if rem := total - ran; rem < step {
				step = rem
			}
			c.Net.RunFor(step)
		}
		out := ""
		for _, p := range c.AlivePeers() {
			out += fmt.Sprintf("%v=%d/%v;", p.ID(), p.DeliveredCount(1), p.Parents(1))
		}
		return out
	}
	want := run(1, 10*time.Second)
	for _, workers := range []int{1, 2, 8} {
		for _, chunk := range []time.Duration{77 * time.Millisecond, time.Second, 10 * time.Second} {
			if got := run(workers, chunk); got != want {
				t.Fatalf("workers=%d chunk=%v diverged:\nwant %s\ngot  %s", workers, chunk, want, got)
			}
		}
	}
}
