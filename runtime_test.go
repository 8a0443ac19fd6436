package brisa_test

// Unified-runtime tests: the single Run(ctx, rt, sc) entrypoint must
// execute the same Scenario — churn, traffic probes, per-peer configs — on
// both runtimes and honor cancellation.

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	brisa "repro"
)

func TestRuntimeRegistry(t *testing.T) {
	t.Parallel()
	reg := brisa.Runtimes()
	for _, name := range []string{"sim", "live", "dist"} {
		rt, ok := reg[name]
		if !ok {
			t.Fatalf("registry is missing %q", name)
		}
		if rt.Name() != name {
			t.Errorf("registry key %q holds runtime named %q", name, rt.Name())
		}
		got, err := brisa.LookupRuntime(name)
		if err != nil || got.Name() != name {
			t.Errorf("LookupRuntime(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := brisa.LookupRuntime("warp-drive"); err == nil {
		t.Error("LookupRuntime accepted an unknown name")
	}
	if _, err := brisa.Run(context.Background(), nil, brisa.Scenario{}); err == nil {
		t.Error("Run accepted a nil runtime")
	}
}

// churnScenario is the acceptance workload: kills and replacement joins
// while a stream runs, with a per-peer config derivation that counts every
// spawn — proof that churn restarts really happen and that join-index
// configs reach both runtimes.
func churnScenario(spawns *atomic.Int64) brisa.Scenario {
	return brisa.Scenario{
		Name: "churn acceptance",
		Seed: 11,
		Topology: brisa.Topology{
			Nodes: 10,
			PeerConfig: func(i int) brisa.Config {
				spawns.Add(1)
				return brisa.Config{Mode: brisa.ModeTree, ViewSize: 4}
			},
		},
		Workloads: []brisa.Workload{
			{Stream: 1, Messages: 60, Payload: 256, Interval: 50 * time.Millisecond},
		},
		Churn:  &brisa.Churn{Script: "from 0s to 2s const churn 20% each 1s", Start: 500 * time.Millisecond},
		Probes: []brisa.Probe{brisa.ProbeLatency, brisa.ProbeRepairs},
		Drain:  5 * time.Second,
	}
}

func TestRunChurnOnBothRuntimes(t *testing.T) {
	for _, name := range []string{"sim", "live"} {
		name := name
		t.Run(name, func(t *testing.T) {
			rt, err := brisa.LookupRuntime(name)
			if err != nil {
				t.Fatal(err)
			}
			var spawns atomic.Int64
			sc := churnScenario(&spawns)
			rep, err := brisa.Run(context.Background(), rt, sc)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if rep.Runtime != name {
				t.Errorf("runtime = %q, want %q", rep.Runtime, name)
			}
			if rep.Churn == nil {
				t.Fatal("no churn report despite ProbeRepairs")
			}
			if rep.Churn.Window != 2*time.Second {
				t.Errorf("churn window = %v, want 2s", rep.Churn.Window)
			}
			s := rep.Stream(1)
			if s == nil || s.Published != 60 {
				t.Fatalf("stream report off: %+v", s)
			}
			if s.Delays == nil || s.Delays.Len() == 0 {
				t.Error("no delay samples collected under churn")
			}
			// Two churn rounds at 20% of ~10 nodes: kills happened (the
			// population shrank relative to everything ever spawned) and
			// replacement joins happened (more spawns than initial slots).
			// The per-peer config derivation counted every one of them.
			if got := spawns.Load(); got <= 10 {
				t.Errorf("spawned %d nodes, want > 10 (churn joins missing)", got)
			}
			if kills := int(spawns.Load()) - rep.Alive; kills <= 0 {
				t.Errorf("spawned %d, alive %d: no kills happened", spawns.Load(), rep.Alive)
			}
			if s.Connected == 0 {
				t.Error("no surviving node is connected to the stream")
			}
		})
	}
}

// trafficScenario is payload-dominated so the two runtimes' byte counts are
// comparable: same messages, similar structure, keep-alive noise in the
// margin.
func trafficScenario() brisa.Scenario {
	return brisa.Scenario{
		Name: "traffic acceptance",
		Seed: 5,
		Topology: brisa.Topology{
			Nodes: 8,
			Peer:  brisa.Config{Mode: brisa.ModeTree, ViewSize: 4},
		},
		Workloads: []brisa.Workload{
			{Stream: 1, Messages: 30, Payload: 1024, Interval: 25 * time.Millisecond},
		},
		Probes: []brisa.Probe{brisa.ProbeTraffic},
		Drain:  10 * time.Second,
	}
}

func TestRunTrafficOnBothRuntimes(t *testing.T) {
	reports := make(map[string]*brisa.Report)
	for _, name := range []string{"sim", "live"} {
		rt, err := brisa.LookupRuntime(name)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := brisa.Run(context.Background(), rt, trafficScenario())
		if err != nil {
			t.Fatalf("%s: Run: %v", name, err)
		}
		if rep.Traffic == nil {
			t.Fatalf("%s: no traffic report despite ProbeTraffic", name)
		}
		if rep.Traffic.DissMB <= 0 {
			t.Errorf("%s: dissemination traffic = %.6f MB, want > 0", name, rep.Traffic.DissMB)
		}
		if rep.Traffic.UpRate == nil || rep.Traffic.UpRate.Len() == 0 {
			t.Errorf("%s: no per-node upload rates", name)
		}
		if s := rep.Stream(1); s.Reliability != 1 {
			t.Errorf("%s: reliability %.3f, want 1.0", name, s.Reliability)
		}
		reports[name] = rep
	}
	// The live wire bytes must be real and of the simulator's order: the
	// same payload flood dominates both counts.
	ratio := reports["live"].Traffic.DissMB / reports["sim"].Traffic.DissMB
	if ratio < 0.1 || ratio > 10 {
		t.Errorf("live/sim dissemination bytes ratio = %.3f (live %.4f MB, sim %.4f MB), want within an order of magnitude",
			ratio, reports["live"].Traffic.DissMB, reports["sim"].Traffic.DissMB)
	}
}

func TestRunInvalidPeerConfigErrorsOnBothRuntimes(t *testing.T) {
	t.Parallel()
	// An invalid derived per-peer config is an error, not a panic, on both
	// runtimes — the bind/build phase has an error path.
	sc := brisa.Scenario{
		Name: "bad derivation",
		Topology: brisa.Topology{
			Nodes:      4,
			PeerConfig: func(i int) brisa.Config { return brisa.Config{Parents: -1} },
		},
		Workloads: []brisa.Workload{{Stream: 1, Messages: 1}},
	}
	for name, rt := range brisa.Runtimes() {
		if _, err := brisa.Run(context.Background(), rt, sc); err == nil {
			t.Errorf("%s: Run accepted an invalid derived peer config", name)
		}
	}
}

func TestRunSingleNodeOnBothRuntimes(t *testing.T) {
	// A one-node topology is a valid (degenerate) scenario: nothing to
	// join, nothing to wait for — the live readiness poll must not expect
	// neighbors that cannot exist.
	sc := brisa.Scenario{
		Name:      "solo",
		Topology:  brisa.Topology{Nodes: 1, Peer: brisa.Config{Mode: brisa.ModeTree}},
		Workloads: []brisa.Workload{{Stream: 1, Messages: 3, Payload: 16, Interval: 10 * time.Millisecond}},
		Drain:     2 * time.Second,
	}
	for name, rt := range brisa.Runtimes() {
		if _, ok := rt.(brisa.DistRuntime); ok {
			continue // needs externally started agents; dist_test.go covers it
		}
		rep, err := brisa.Run(context.Background(), rt, sc)
		if err != nil {
			t.Fatalf("%s: Run: %v", name, err)
		}
		// No non-source nodes: vacuously reliable.
		if s := rep.Stream(1); s.Published != 3 || s.Reliability != 1 {
			t.Errorf("%s: stream report off: %+v", name, s)
		}
	}
}

func TestRunCancellation(t *testing.T) {
	// A pre-cancelled context aborts both runtimes before any real work.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	sc := twoByTwo(24, 10)
	for name, rt := range brisa.Runtimes() {
		if _, err := brisa.Run(cancelled, rt, sc); err == nil {
			t.Errorf("%s: Run with a cancelled context succeeded", name)
		}
	}

	// Cancelling mid-run aborts a live run that would otherwise take tens
	// of seconds of wall time (long workload + long drain).
	ctx, cancelMid := context.WithCancel(context.Background())
	long := brisa.Scenario{
		Name:     "cancel me",
		Topology: brisa.Topology{Nodes: 4, Peer: brisa.Config{Mode: brisa.ModeTree}},
		Workloads: []brisa.Workload{
			{Stream: 1, Messages: 1000, Payload: 64, Interval: 100 * time.Millisecond},
		},
		Drain: 30 * time.Second,
	}
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := brisa.Run(ctx, brisa.LiveRuntime{}, long)
		done <- err
	}()
	time.Sleep(500 * time.Millisecond)
	cancelMid()
	select {
	case err := <-done:
		if err == nil {
			t.Error("cancelled live run reported success")
		}
		if took := time.Since(start); took > 15*time.Second {
			t.Errorf("cancellation took %v to unwind", took)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled live run never returned")
	}
}
