package brisa_test

import (
	"context"
	"fmt"
	"log"
	"time"

	brisa "repro"
)

// Run is the single entrypoint for every runtime: the same Scenario value
// executes on the deterministic simulator (SimRuntime) or on live loopback
// TCP nodes (LiveRuntime), and the context aborts long runs — workload
// generators, churn loops, and probe drains all observe cancellation.
func ExampleRun() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	rep, err := brisa.Run(ctx, brisa.LiveRuntime{}, brisa.Scenario{
		Name: "live smoke",
		Topology: brisa.Topology{
			Nodes: 4,
			Peer:  brisa.Config{Mode: brisa.ModeTree, ViewSize: 3},
		},
		Workloads: []brisa.Workload{
			{Stream: 1, Messages: 5, Payload: 64, Interval: 20 * time.Millisecond},
		},
		Drain: 10 * time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: delivered everywhere: %v\n", rep.Runtime, rep.Stream(1).Reliability == 1)
	// Output:
	// live: delivered everywhere: true
}

// The same Scenario runs across machines on DistRuntime: start one
// brisa-agent daemon per host, list their control addresses, and Run spawns
// the peer processes round-robin across them, drives workloads and churn
// remotely (churn kills and restarts real processes), and folds the
// workers' measurements, collected over the same control connections, into
// the usual Report. No // Output: — the example needs running agents (CI
// starts two on loopback; see the dist-smoke job).
func ExampleRun_dist() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	rep, err := brisa.Run(ctx, brisa.DistRuntime{
		Agents: []string{"10.0.0.2:7101", "10.0.0.3:7101"},
	}, brisa.Scenario{
		Name: "two hosts",
		Topology: brisa.Topology{
			Nodes: 16,
			Peer:  brisa.Config{Mode: brisa.ModeTree, ViewSize: 4},
		},
		Workloads: []brisa.Workload{
			{Stream: 1, Messages: 50, Payload: 1024, Interval: 100 * time.Millisecond},
		},
		Churn:  &brisa.Churn{Script: "from 0s to 10s const churn 10% each 5s", Start: 2 * time.Second},
		Probes: []brisa.Probe{brisa.ProbeLatency, brisa.ProbeRepairs},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d of %d nodes alive, reliability %.2f\n",
		rep.Alive, rep.Nodes, rep.Stream(1).Reliability)
}

// A Scenario states a whole experiment as data: two concurrent streams
// from two distinct sources on a 32-node tree overlay, executed on the
// deterministic simulator. The same value runs unchanged on live loopback
// TCP nodes via Run(ctx, LiveRuntime{}, sc).
func ExampleScenario() {
	rep, err := brisa.Run(context.Background(), brisa.SimRuntime{}, brisa.Scenario{
		Name: "two streams, two sources",
		Seed: 42,
		Topology: brisa.Topology{
			Nodes: 32,
			Peer:  brisa.Config{Mode: brisa.ModeTree, ViewSize: 4},
		},
		Workloads: []brisa.Workload{
			{Stream: 1, Source: 0, Messages: 20, Payload: 512},
			{Stream: 2, Source: 1, Messages: 20, Payload: 512},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, s := range rep.Streams {
		fmt.Printf("stream %d: %d messages, reliability %.0f%%\n",
			s.Stream, s.Published, 100*s.Reliability)
	}
	// Output:
	// stream 1: 20 messages, reliability 100%
	// stream 2: 20 messages, reliability 100%
}

// Workloads compose with churn scripts and probes: a 10-minute Table I
// style run is the same shape as a quick smoke test, only with bigger
// numbers.
func ExampleWorkload() {
	sc := brisa.Scenario{
		Name: "churned stream",
		Topology: brisa.Topology{
			Nodes: 128,
			Peer:  brisa.Config{Mode: brisa.ModeDAG, ViewSize: 4},
		},
		Workloads: []brisa.Workload{
			// 5 msg/s for the whole churn window plus drain.
			{Stream: 1, Messages: 3100, Payload: 1024, Interval: 200 * time.Millisecond},
		},
		Churn: &brisa.Churn{
			Script: "from 0s to 600s const churn 3% each 60s",
			Start:  10 * time.Second,
		},
		Probes: []brisa.Probe{brisa.ProbeRepairs},
		Drain:  30 * time.Second,
	}
	rep, err := brisa.Run(context.Background(), brisa.SimRuntime{}, sc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("orphans/min under churn: %.1f", rep.Churn.OrphansPerMin)
}
