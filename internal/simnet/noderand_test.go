package simnet

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/ids"
)

// nodeStreams boots nodes 1..count on one network and returns each one's
// protocol RNG, as its handler would get it from node.Env.Rand.
func nodeStreams(seed int64, count int) []*rand.Rand {
	n := New(Options{Seed: seed, Latency: FixedLatency(time.Millisecond)})
	out := make([]*rand.Rand, count)
	for i := range out {
		id := ids.NodeID(i + 1)
		n.AddNode(id, &nullNode{})
		out[i] = n.nodes[id].env.Rand()
	}
	return out
}

// chi2Intn8 is Pearson's statistic of draw(0..draws-1) against a uniform
// Intn(8).
func chi2Intn8(draws int, draw func(i int) int) float64 {
	var seen [8]float64
	for i := 0; i < draws; i++ {
		seen[draw(i)]++
	}
	want, chi2 := float64(draws)/8, 0.0
	for _, c := range seen {
		chi2 += (c - want) * (c - want) / want
	}
	return chi2
}

// TestNodeStreamQuality checks what replaced math/rand's 607-word source
// under every simulated node: 8-byte splitmix64 streams that differ only in
// their hashed start. Along one stream and across the first draws of many
// streams they must look uniform, no two nodes may start alike, and a stream
// is a function of (seed, node id) alone.
func TestNodeStreamQuality(t *testing.T) {
	const nodes, seed = 10_000, 7
	// 24.32 is the χ² critical value for 7 degrees of freedom at p = 0.001.
	const critical = 24.32

	first := make(map[int64]ids.NodeID, nodes)
	for i, r := range nodeStreams(seed, nodes) {
		v := r.Int63()
		if other, dup := first[v]; dup {
			t.Fatalf("nodes %v and %v share their first draw %d", other, ids.NodeID(i+1), v)
		}
		first[v] = ids.NodeID(i + 1)
	}
	for i, r := range nodeStreams(seed+1, nodes) {
		if other, dup := first[r.Int63()]; dup {
			t.Fatalf("seed %d node %v starts like seed %d node %v", seed+1, ids.NodeID(i+1), seed, other)
		}
	}

	one := nodeStreams(seed, 1)[0]
	if chi2 := chi2Intn8(100_000, func(int) int { return one.Intn(8) }); chi2 > critical {
		t.Errorf("one node's 1e5 Intn(8) draws: χ² = %.2f > %.2f", chi2, critical)
	}
	across := nodeStreams(seed, nodes)
	if chi2 := chi2Intn8(nodes, func(i int) int { return across[i].Intn(8) }); chi2 > critical {
		t.Errorf("first Intn(8) of %d nodes: χ² = %.2f > %.2f", nodes, chi2, critical)
	}

	a, b := nodeStreams(seed, 64), nodeStreams(seed, 64)
	for i := range a {
		for d := 0; d < 100; d++ {
			if x, y := a[i].Uint64(), b[i].Uint64(); x != y {
				t.Fatalf("node %d draw %d differs between two networks of one seed: %d vs %d", i+1, d, x, y)
			}
		}
	}
}

// TestNodeStreamIgnoresBootHistory pins the seeding rule: a node's stream
// starts at a hash of (seed, id, purpose), so neither the nodes booted before
// it, nor driver draws in between, nor a second stream per node move it.
func TestNodeStreamIgnoresBootHistory(t *testing.T) {
	want := nodeStreams(3, 5)[4].Uint64()
	n := New(Options{Seed: 3, Latency: FixedLatency(time.Millisecond),
		ProcessingDelay: func(r *rand.Rand) time.Duration { return time.Duration(r.Intn(5)) }})
	n.Rand().Int63()
	n.AddNode(5, &nullNode{})
	sn := n.nodes[5]
	if got := sn.env.Rand().Uint64(); got != want {
		t.Errorf("node 5 booted first, after a driver draw, with a delay stream: first draw %d, want %d", got, want)
	}
	if sn.delayRng.Uint64() == want {
		t.Error("the processing-delay stream starts where the protocol stream does")
	}
}
