package brisa_test

// Scenario runner tests: the declarative API must express multi-stream,
// multi-source experiments as data and execute them identically on both
// runtimes.

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	brisa "repro"
)

// twoByTwo is the acceptance scenario: two concurrent streams from two
// distinct sources.
func twoByTwo(nodes, msgs int) brisa.Scenario {
	return brisa.Scenario{
		Name: "2 streams x 2 sources",
		Seed: 7,
		Topology: brisa.Topology{
			Nodes: nodes,
			Peer:  brisa.Config{Mode: brisa.ModeTree, ViewSize: 4},
		},
		Workloads: []brisa.Workload{
			{Stream: 1, Source: 0, Messages: msgs, Payload: 256, Interval: 100 * time.Millisecond},
			{Stream: 2, Source: 1, Messages: msgs, Payload: 256, Interval: 100 * time.Millisecond},
		},
		Probes: []brisa.Probe{brisa.ProbeLatency, brisa.ProbeDuplicates, brisa.ProbeStructure},
	}
}

func TestScenarioSimMultiStreamMultiSource(t *testing.T) {
	t.Parallel()
	rep, err := brisa.Run(context.Background(), brisa.SimRuntime{}, twoByTwo(48, 20))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Runtime != "sim" || rep.GoVersion == "" {
		t.Errorf("run metadata: runtime = %q (want sim), Go version = %q (want one)", rep.Runtime, rep.GoVersion)
	}
	if len(rep.Streams) != 2 {
		t.Fatalf("want 2 stream reports, got %d", len(rep.Streams))
	}
	for _, s := range rep.Streams {
		if s.Published != 20 {
			t.Errorf("stream %d: published %d, want 20", s.Stream, s.Published)
		}
		if s.Reliability != 1 {
			t.Errorf("stream %d: reliability %.3f, want 1.0", s.Stream, s.Reliability)
		}
		if s.Delays == nil || s.Delays.Len() == 0 {
			t.Errorf("stream %d: no delay samples", s.Stream)
		}
		if s.Depths == nil || s.Depths.Total() == 0 {
			t.Errorf("stream %d: no depth histogram", s.Stream)
		}
	}
	// Distinct sources: the two streams emerge from different roots.
	if rep.Streams[0].Source == rep.Streams[1].Source {
		t.Errorf("both streams report source %v", rep.Streams[0].Source)
	}
	// The report renders and serializes.
	if rep.String() == "" {
		t.Error("empty report rendering")
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("report JSON: %v", err)
	}
	var decoded struct {
		Streams []struct {
			Reliability float64 `json:"reliability"`
		} `json:"streams"`
	}
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatalf("report JSON round trip: %v", err)
	}
	if len(decoded.Streams) != 2 || decoded.Streams[0].Reliability != 1 {
		t.Errorf("JSON shape off: %s", raw)
	}
}

func TestScenarioLiveMultiStreamMultiSource(t *testing.T) {
	sc := twoByTwo(6, 10)
	sc.Workloads[0].Interval = 20 * time.Millisecond
	sc.Workloads[1].Interval = 20 * time.Millisecond
	sc.Drain = 5 * time.Second
	rep, err := brisa.Run(context.Background(), brisa.LiveRuntime{}, sc)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Runtime != "live" {
		t.Errorf("runtime = %q, want live", rep.Runtime)
	}
	if len(rep.Streams) != 2 {
		t.Fatalf("want 2 stream reports, got %d", len(rep.Streams))
	}
	for _, s := range rep.Streams {
		if s.Reliability != 1 {
			t.Errorf("stream %d: reliability %.3f, want 1.0 (connected %.3f)",
				s.Stream, s.Reliability, s.Connected)
		}
		if s.Delays == nil || s.Delays.Len() == 0 {
			t.Errorf("stream %d: no delay samples", s.Stream)
		}
	}
}

func TestScenarioValidation(t *testing.T) {
	t.Parallel()
	top := brisa.Topology{Nodes: 8, Peer: brisa.Config{Mode: brisa.ModeTree}}
	bad := []brisa.Scenario{
		{Topology: top}, // no workloads
		{Topology: top, Workloads: []brisa.Workload{{Stream: 1}, {Stream: 1, Source: 1}}}, // duplicate stream
		{Topology: top, Workloads: []brisa.Workload{{Stream: 1, Source: 9}}},              // source out of range
		{Topology: top, Workloads: []brisa.Workload{{Stream: 1, Messages: -1}}},           // negative count
		{Topology: top, Workloads: []brisa.Workload{{Stream: 1}}, Churn: &brisa.Churn{Script: "nonsense"}},
		{Topology: brisa.Topology{Nodes: 0}, Workloads: []brisa.Workload{{Stream: 1}}}, // empty topology
	}
	for i, sc := range bad {
		if _, err := brisa.Run(context.Background(), brisa.SimRuntime{}, sc); err == nil {
			t.Errorf("case %d: Run accepted %+v", i, sc)
		}
	}
}

// TestScenarioValidateErrors pins Validate's error paths one by one: bad
// topology sizes, zero-rate workload timings, conflicting churn bounds.
// Each case must fail without running anything.
func TestScenarioValidateErrors(t *testing.T) {
	t.Parallel()
	ok := brisa.Scenario{
		Topology:  brisa.Topology{Nodes: 8, Peer: brisa.Config{Mode: brisa.ModeTree}},
		Workloads: []brisa.Workload{{Stream: 1, Messages: 1}},
	}
	if err := ok.Validate(); err != nil {
		t.Fatalf("baseline scenario invalid: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*brisa.Scenario)
	}{
		{"negative nodes", func(sc *brisa.Scenario) { sc.Topology.Nodes = -4 }},
		{"negative node bandwidth", func(sc *brisa.Scenario) { sc.Topology.NodeBandwidth = -1 }},
		{"negative link bandwidth", func(sc *brisa.Scenario) { sc.Topology.LinkBandwidth = -1 }},
		{"negative join interval", func(sc *brisa.Scenario) { sc.Topology.JoinInterval = -time.Second }},
		{"negative stabilize time", func(sc *brisa.Scenario) { sc.Topology.StabilizeTime = -time.Second }},
		{"invalid peer config", func(sc *brisa.Scenario) { sc.Topology.Peer = brisa.Config{Parents: -1} }},
		{"negative payload", func(sc *brisa.Scenario) { sc.Workloads[0].Payload = -1 }},
		{"negative interval (zero-rate)", func(sc *brisa.Scenario) { sc.Workloads[0].Interval = -time.Second }},
		{"negative start", func(sc *brisa.Scenario) { sc.Workloads[0].Start = -time.Second }},
		{"negative drain", func(sc *brisa.Scenario) { sc.Drain = -time.Second }},
		{"churn window ends before it starts", func(sc *brisa.Scenario) {
			sc.Churn = &brisa.Churn{Script: "from 10s to 5s const churn 3% each 1s"}
		}},
		{"churn bad percentage", func(sc *brisa.Scenario) {
			sc.Churn = &brisa.Churn{Script: "from 0s to 5s const churn oops% each 1s"}
		}},
		{"churn zero interval", func(sc *brisa.Scenario) {
			sc.Churn = &brisa.Churn{Script: "from 0s to 5s const churn 3% each 0s"}
		}},
		{"fault loss probability 1", func(sc *brisa.Scenario) {
			sc.Faults = &brisa.FaultModel{Loss: 1}
		}},
		{"fault negative duplicate probability", func(sc *brisa.Scenario) {
			sc.Faults = &brisa.FaultModel{Duplicate: -0.1}
		}},
		{"fault reorder probability above 1", func(sc *brisa.Scenario) {
			sc.Faults = &brisa.FaultModel{Reorder: 1.5}
		}},
		{"fault empty partition window", func(sc *brisa.Scenario) {
			sc.Faults = &brisa.FaultModel{Partitions: []brisa.Partition{
				{Start: time.Second, End: time.Second, Fraction: 0.5},
			}}
		}},
		{"fault partition fraction out of range", func(sc *brisa.Scenario) {
			sc.Faults = &brisa.FaultModel{Partitions: []brisa.Partition{
				{Start: 0, End: time.Second, Fraction: 1},
			}}
		}},
		{"fault partition window past scenario end", func(sc *brisa.Scenario) {
			sc.Faults = &brisa.FaultModel{Partitions: []brisa.Partition{
				{Start: 0, End: 240 * time.Hour, Fraction: 0.5},
			}}
		}},
		{"fault buffer capacity zero", func(sc *brisa.Scenario) {
			sc.Faults = &brisa.FaultModel{Buffer: &brisa.BufferModel{Capacity: 0}}
		}},
		{"fault unknown drop policy", func(sc *brisa.Scenario) {
			sc.Faults = &brisa.FaultModel{Buffer: &brisa.BufferModel{Capacity: 8, Policy: brisa.DropPolicy(9)}}
		}},
		{"unknown mode", func(sc *brisa.Scenario) { sc.Topology.Peer.Mode = brisa.ModeTAG + 1 }},
		{"baseline with blob workloads", func(sc *brisa.Scenario) {
			sc.Topology.Peer.Mode = brisa.ModeSimpleGossip
			sc.BlobWorkloads = []brisa.BlobWorkload{{Stream: 2, Size: 1 << 10}}
		}},
		{"baseline with Parents", func(sc *brisa.Scenario) {
			sc.Topology.Peer = brisa.Config{Mode: brisa.ModeSimpleTree, Parents: 1}
		}},
		{"baseline with Strategy", func(sc *brisa.Scenario) {
			sc.Topology.Peer = brisa.Config{Mode: brisa.ModeTAG, Strategy: brisa.FirstCome{}}
		}},
		{"SimpleTree sourced off its root", func(sc *brisa.Scenario) {
			sc.Topology.Peer.Mode = brisa.ModeSimpleTree
			sc.Workloads[0].Source = 3
		}},
		{"TAG sourced off its root", func(sc *brisa.Scenario) {
			sc.Topology.Peer.Mode = brisa.ModeTAG
			sc.Workloads[0].Source = 3
		}},
		{"TAG sourced off its root, per-peer configs", func(sc *brisa.Scenario) {
			sc.Topology.PeerConfig = func(int) brisa.Config { return brisa.Config{Mode: brisa.ModeTAG} }
			sc.Workloads[0].Source = 3
		}},
	}
	for _, tc := range cases {
		sc := ok
		sc.Workloads = append([]brisa.Workload(nil), ok.Workloads...)
		tc.mutate(&sc)
		if err := sc.Validate(); err == nil {
			t.Errorf("%s: Validate accepted the scenario", tc.name)
		}
	}

	// What a baseline can run validates: every mode at its root, with an
	// OnDeliver hook, and SimpleGossip — which has none — from any node.
	for _, mode := range []brisa.Mode{brisa.ModeSimpleTree, brisa.ModeSimpleGossip, brisa.ModeTAG} {
		sc := ok
		sc.Topology.Peer = brisa.Config{Mode: mode, ViewSize: 4, OnDeliver: func(brisa.StreamID, uint32, []byte) {}}
		if err := sc.Validate(); err != nil {
			t.Errorf("%v: %v", mode, err)
		}
	}
	sc := ok
	sc.Topology.Peer.Mode = brisa.ModeSimpleGossip
	sc.Workloads = []brisa.Workload{{Stream: 1, Source: 3, Messages: 1}}
	if err := sc.Validate(); err != nil {
		t.Errorf("SimpleGossip sourced from node 3: %v", err)
	}

	// The baselines are rooted at a simulator node identifier, so nothing
	// that binds real addresses runs them.
	sc.Workloads[0].Source = 0
	for _, rt := range []brisa.Runtime{brisa.LiveRuntime{}, brisa.DistRuntime{}} {
		if _, err := brisa.Run(context.Background(), rt, sc); err == nil || !strings.Contains(err.Error(), "simplegossip") {
			t.Errorf("%s runtime: Run = %v, want a refusal naming the mode", rt.Name(), err)
		}
	}
	if _, err := brisa.Listen("127.0.0.1:0", brisa.Config{Mode: brisa.ModeTAG}); err == nil {
		t.Error("Listen assembled a TAG peer around a live address")
	}
}

func TestScenarioChurnReport(t *testing.T) {
	t.Parallel()
	rep, err := brisa.Run(context.Background(), brisa.SimRuntime{}, brisa.Scenario{
		Name: "churn smoke",
		Seed: 3,
		Topology: brisa.Topology{
			Nodes: 48,
			Peer:  brisa.Config{Mode: brisa.ModeTree, ViewSize: 4},
		},
		Workloads: []brisa.Workload{
			{Stream: 1, Messages: 700, Payload: 256}, // covers the churn window at 5/s
		},
		Churn:  &brisa.Churn{Script: "from 0s to 120s const churn 5% each 30s", Start: 10 * time.Second},
		Probes: []brisa.Probe{brisa.ProbeRepairs},
		Drain:  30 * time.Second,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Churn == nil {
		t.Fatal("no churn report despite ProbeRepairs")
	}
	if rep.Churn.Window != 120*time.Second {
		t.Errorf("window = %v, want 2m", rep.Churn.Window)
	}
	if rep.Churn.ParentsLostPerMin <= 0 {
		t.Errorf("parents lost/min = %v, want > 0 under 5%% churn", rep.Churn.ParentsLostPerMin)
	}
	s := rep.Stream(1)
	if s == nil {
		t.Fatal("stream 1 missing")
	}
	if s.Connected != 1 {
		t.Errorf("connected = %.3f, want 1.0 (survivors must stay fed)", s.Connected)
	}
}

func TestScenarioClusterReuse(t *testing.T) {
	t.Parallel()
	// A hand-built cluster with a zero Topology, run twice on the same
	// stream: reporting is relative to the state at entry, so both runs —
	// and a traffic probe on the second — stay correct.
	c := newTestCluster(t, brisa.ClusterConfig{
		Nodes: 24,
		Seed:  13,
		Peer:  brisa.Config{Mode: brisa.ModeTree, ViewSize: 4},
	})
	sc := brisa.Scenario{
		Name:      "reuse",
		Workloads: []brisa.Workload{{Stream: 1, Messages: 10, Payload: 128}},
		Probes:    []brisa.Probe{brisa.ProbeLatency, brisa.ProbeTraffic},
	}
	first, err := brisa.Run(context.Background(), brisa.SimRuntime{Cluster: c}, sc)
	if err != nil {
		t.Fatalf("first Run: %v", err)
	}
	second, err := brisa.Run(context.Background(), brisa.SimRuntime{Cluster: c}, sc)
	if err != nil {
		t.Fatalf("second Run: %v", err)
	}
	for i, rep := range []*brisa.Report{first, second} {
		s := rep.Stream(1)
		if s.Published != 10 {
			t.Errorf("run %d: published %d, want 10", i, s.Published)
		}
		if s.Reliability != 1 {
			t.Errorf("run %d: reliability %.3f, want 1.0", i, s.Reliability)
		}
	}
	// The second run must not fold the first run's bytes into its rates.
	r1, r2 := first.Traffic.UpRate.Mean(), second.Traffic.UpRate.Mean()
	if r2 > 3*r1 {
		t.Errorf("second run's traffic rates inflated by the first: %.2f vs %.2f KB/s", r2, r1)
	}
}

func TestScenarioOnExistingCluster(t *testing.T) {
	t.Parallel()
	sc := brisa.Scenario{
		Name:     "hand-built cluster",
		Seed:     5,
		Topology: brisa.Topology{Nodes: 24, Peer: brisa.Config{Mode: brisa.ModeDAG, ViewSize: 4}},
		Workloads: []brisa.Workload{
			{Stream: 9, Messages: 10, Payload: 64},
		},
	}
	c, err := sc.NewCluster()
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	c.Bootstrap() // Run must not bootstrap twice
	rep, err := brisa.Run(context.Background(), brisa.SimRuntime{Cluster: c}, sc)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := rep.Stream(9); got == nil || got.Reliability != 1 {
		t.Fatalf("stream 9 report: %+v", got)
	}
}
