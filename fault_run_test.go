package brisa_test

// Runtime-level tests for the fault pack: the Run capability gate, the
// pre-built-cluster mismatch check, a 64-node lossy+partition smoke run (the
// CI -race job drives this one), and the paper-style reliability-vs-loss
// curve on a 256-node tree.

import (
	"context"
	"strings"
	"testing"
	"time"

	brisa "repro"
)

// nonFaultRuntime is a stub runtime without fault support, for the Run gate.
type nonFaultRuntime struct{ supports *bool }

func (nonFaultRuntime) Name() string { return "stub" }
func (nonFaultRuntime) Run(ctx context.Context, sc brisa.Scenario) (*brisa.Report, error) {
	return &brisa.Report{Name: sc.Name}, nil
}

// SupportsFaults implements brisa.FaultCapable when supports is set.
func (rt nonFaultRuntime) SupportsFaults() bool { return rt.supports != nil && *rt.supports }

// TestRunRejectsFaultsOnIncapableRuntime pins the Run gate: a scenario with
// fault injection is refused on any runtime that does not opt in — in
// particular the live runtime, whose real sockets cannot honor a simulated
// loss model.
func TestRunRejectsFaultsOnIncapableRuntime(t *testing.T) {
	t.Parallel()
	sc := brisa.Scenario{
		Name:     "faults-on-stub",
		Topology: brisa.Topology{Nodes: 4, Peer: brisa.Config{Mode: brisa.ModeTree, ViewSize: 4}},
		Faults:   &brisa.FaultModel{Loss: 0.1},
	}
	_, err := brisa.Run(context.Background(), nonFaultRuntime{}, sc)
	if err == nil || !strings.Contains(err.Error(), "does not support") {
		t.Fatalf("Run on a fault-incapable runtime: err = %v, want a capability error", err)
	}
	no := false
	if _, err := brisa.Run(context.Background(), nonFaultRuntime{supports: &no}, sc); err == nil ||
		!strings.Contains(err.Error(), "does not support") {
		t.Fatalf("Run on a SupportsFaults()==false runtime: err = %v, want a capability error", err)
	}
	yes := true
	if _, err := brisa.Run(context.Background(), nonFaultRuntime{supports: &yes}, sc); err != nil {
		t.Fatalf("Run on a fault-capable runtime: %v", err)
	}
	if _, err := brisa.Run(context.Background(), brisa.LiveRuntime{}, sc); err == nil ||
		!strings.Contains(err.Error(), "does not support") {
		t.Fatalf("Run on the live runtime: err = %v, want a capability error", err)
	}
	// Without faults the gate never applies.
	sc.Faults = nil
	if _, err := brisa.Run(context.Background(), nonFaultRuntime{}, sc); err != nil {
		t.Fatalf("Run without faults on the stub runtime: %v", err)
	}
}

// TestFaultsNeedFaultyCluster pins the pre-built-cluster mismatch check: a
// faulty scenario on a cluster built without ClusterConfig.Faults must fail
// loudly rather than silently run fault-free.
func TestFaultsNeedFaultyCluster(t *testing.T) {
	t.Parallel()
	c := newTestCluster(t, brisa.ClusterConfig{
		Nodes: 8, Seed: 5, Peer: brisa.Config{Mode: brisa.ModeTree, ViewSize: 4},
	})
	sc := brisa.Scenario{
		Name:      "faults-on-clean-cluster",
		Workloads: []brisa.Workload{{Stream: 1, Messages: 1}},
		Faults:    &brisa.FaultModel{Loss: 0.1},
	}
	_, err := brisa.Run(context.Background(), brisa.SimRuntime{Cluster: c}, sc)
	if err == nil || !strings.Contains(err.Error(), "built without") {
		t.Fatalf("faulty scenario on a clean cluster: err = %v, want a mismatch error", err)
	}
}

// TestFaultPackSmoke is the CI smoke run: 64 nodes under loss, duplication,
// reorder, a mid-run symmetric partition, and tight bounded buffers — the
// protocol's recovery machinery must still deliver everything to almost
// everyone, and the report must account for every injected fault. The race
// job runs this against the sharded scheduler.
func TestFaultPackSmoke(t *testing.T) {
	t.Parallel()
	rep, err := brisa.Run(context.Background(), brisa.SimRuntime{}, brisa.Scenario{
		Name: "fault-pack-smoke",
		Seed: 29,
		Topology: brisa.Topology{
			Nodes: 64,
			Peer:  brisa.Config{Mode: brisa.ModeTree, ViewSize: 4},
		},
		Workloads: []brisa.Workload{{Stream: 1, Messages: 50, Payload: 256}},
		Faults: &brisa.FaultModel{
			Loss: 0.08, Duplicate: 0.04, Reorder: 0.1,
			Partitions: []brisa.Partition{
				{Start: 2 * time.Second, End: 4 * time.Second, Fraction: 0.3},
			},
			Buffer: &brisa.BufferModel{Capacity: 32, Policy: brisa.BufferDropRand},
		},
		Probes: []brisa.Probe{brisa.ProbeLatency, brisa.ProbeRepairs},
		Drain:  20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Faults == nil {
		t.Fatal("report has no Faults section")
	}
	inj := rep.Faults.Injected
	if inj.Lost == 0 || inj.Duplicated == 0 || inj.Reordered == 0 || inj.PartitionDropped == 0 {
		t.Fatalf("fault pack under-injected: %+v", inj)
	}
	if len(rep.Streams) != 1 {
		t.Fatalf("streams = %d", len(rep.Streams))
	}
	if r := rep.Streams[0].Reliability; r < 0.9 {
		t.Fatalf("reliability %.3f under the smoke fault pack, want >= 0.9", r)
	}
	if !strings.Contains(rep.String(), "faults:") {
		t.Error("text report misses the faults line")
	}
}

// TestReliabilityVsLossCurve is the acceptance sweep: on a 256-node tree,
// dissemination reliability degrades gracefully as loss rises from 0 to 20%
// — at or above 0.99 through 5% loss (gap recovery and repair absorb it),
// and never off a cliff at 20%.
func TestReliabilityVsLossCurve(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is a few seconds of virtual load")
	}
	t.Parallel()
	losses := []float64{0, 0.02, 0.05, 0.10, 0.20}
	rel := make([]float64, len(losses))
	for i, loss := range losses {
		sc := brisa.Scenario{
			Name: "loss-sweep",
			Seed: 33,
			Topology: brisa.Topology{
				Nodes: 256,
				Peer:  brisa.Config{Mode: brisa.ModeTree, ViewSize: 4},
			},
			Workloads: []brisa.Workload{{Stream: 1, Messages: 40, Payload: 256}},
			Probes:    []brisa.Probe{brisa.ProbeLatency},
			Drain:     20 * time.Second,
		}
		if loss > 0 {
			sc.Faults = &brisa.FaultModel{Loss: loss}
		}
		rep, err := brisa.Run(context.Background(), brisa.SimRuntime{}, sc)
		if err != nil {
			t.Fatal(err)
		}
		rel[i] = rep.Streams[0].Reliability
		t.Logf("loss=%4.0f%%  reliability=%.4f", 100*loss, rel[i])
	}
	for i, loss := range losses {
		if loss <= 0.05 && rel[i] < 0.99 {
			t.Errorf("reliability %.4f at %.0f%% loss, want >= 0.99", rel[i], 100*loss)
		}
	}
	if rel[len(rel)-1] < 0.8 {
		t.Errorf("reliability fell off a cliff at 20%% loss: %.4f", rel[len(rel)-1])
	}
}
