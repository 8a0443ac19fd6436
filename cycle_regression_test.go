package brisa_test

// Seeded regression guard for the residual repair defect recorded in
// ROADMAP.md: with keep-alive piggybacks disabled, simultaneous soft repairs
// can close a parent cycle of length >= 3 that the path-embedding check
// misses (every member's embedded path predates the concurrent adoptions),
// stranding the subtree below it. Found by scanning seeds of a
// 64-node/3-simultaneous-crash workload (TestScanSoftRepairCycleSeeds, about
// 0.1 s per seed); seed 63 closes a 3-cycle that survives to the end of the
// run and stalls 10 of the 52 alive nodes, the only one of seeds 1..300 that
// does (129, 170 and 244 did while keep-alives were answered; 161 did until
// the node RNG became a splitmix64 stream).
//
// This test asserts that the bug REPRODUCES, pinning the exact failure so it
// cannot mutate silently. When the repair protocol gains a fix (e.g. cycle
// breaking via periodic root-path probing, §II-F follow-up), this test will
// fail: flip the assertions to "no cycle, no stall" and keep the seed as the
// fix's regression test.

import (
	"flag"
	"testing"
	"time"

	brisa "repro"
)

// parentCycles returns every cycle in the alive peers' parent graph for the
// stream, each as the list of member nodes.
func parentCycles(c *brisa.Cluster, stream brisa.StreamID) [][]brisa.NodeID {
	parents := make(map[brisa.NodeID][]brisa.NodeID)
	for _, p := range c.AlivePeers() {
		parents[p.ID()] = p.Parents(stream)
	}
	state := make(map[brisa.NodeID]int) // 0 unvisited, 1 in-walk, 2 done
	var cycles [][]brisa.NodeID
	var walk func(id brisa.NodeID, path []brisa.NodeID)
	walk = func(id brisa.NodeID, path []brisa.NodeID) {
		if state[id] == 2 {
			return
		}
		if state[id] == 1 {
			for i, n := range path {
				if n == id {
					cycles = append(cycles, append([]brisa.NodeID{}, path[i:]...))
				}
			}
			return
		}
		state[id] = 1
		for _, par := range parents[id] {
			if _, alive := parents[par]; !alive {
				continue // dead parent: hard repair territory, not a cycle
			}
			walk(par, append(path, id))
		}
		state[id] = 2
	}
	for id := range parents {
		walk(id, nil)
	}
	return cycles
}

var scanCycleSeeds = flag.Int("scan-cycle-seeds", 0, "scan seeds 1..N for a soft-repair parent cycle that stalls nodes (TestScanSoftRepairCycleSeeds)")

// softRepairCycleRun runs the 64-node, piggyback-free, three-simultaneous-
// crashes workload on one seed and returns the longest parent cycle left at
// the end and how many alive nodes miss messages.
func softRepairCycleRun(t *testing.T, seed int64) (longest []brisa.NodeID, stalled, alive int) {
	c := newTestCluster(t, brisa.ClusterConfig{
		Nodes: 64, Seed: seed,
		PeerConfigAt: func(int) brisa.Config {
			return brisa.Config{
				Mode: brisa.ModeTree, ViewSize: 4,
				// The piggyback stall detector papers over the cycle in the
				// default config; the un-optimized variant exposes it.
				DisablePiggyback: true,
			}
		},
	})
	defer c.Close()
	c.Bootstrap()
	source := c.Peers()[0]
	publishStream(c, source, 1, 100, 200*time.Millisecond, 256)
	c.Net.RunFor(5 * time.Second)
	for round := 0; round < 4; round++ {
		// Three crashes at the same virtual instant force concurrent soft
		// repairs whose position knowledge is mutually stale.
		c.CrashRandom(source.ID())
		c.CrashRandom(source.ID())
		c.CrashRandom(source.ID())
		c.Net.RunFor(3 * time.Second)
	}
	c.Net.RunFor(100*200*time.Millisecond + 15*time.Second)

	for _, cyc := range parentCycles(c, 1) {
		if len(cyc) > len(longest) {
			longest = cyc
		}
	}
	for _, p := range c.AlivePeers() {
		if p.DeliveredCount(1) < 100 {
			stalled++
		}
	}
	return longest, stalled, len(c.AlivePeers())
}

// TestScanSoftRepairCycleSeeds is how the guard's seed is found: every
// change of the random streams (a new node RNG, a protocol fix that draws
// differently) moves the defect to other seeds. Run
//
//	go test -run TestScanSoftRepairCycleSeeds -scan-cycle-seeds 300 -v .
//
// and pin one of the seeds it prints in the guard below.
func TestScanSoftRepairCycleSeeds(t *testing.T) {
	if *scanCycleSeeds <= 0 {
		t.Skip("a seed search, not a check: pass -scan-cycle-seeds N")
	}
	for seed := int64(1); seed <= int64(*scanCycleSeeds); seed++ {
		if cyc, stalled, alive := softRepairCycleRun(t, seed); len(cyc) >= 3 && stalled > 0 {
			t.Logf("seed %d: cycle=%v stalled=%d of %d alive", seed, cyc, stalled, alive)
		}
	}
}

func TestKnownIssueSoftRepairCycleWithoutPiggyback(t *testing.T) {
	longest, stalled, alive := softRepairCycleRun(t, 63) // the pinned seed: see the header comment
	t.Logf("cycle=%v stalled=%d of %d alive", longest, stalled, alive)

	// The defect, pinned. A fix makes both checks fail — flip them then.
	if len(longest) < 3 {
		t.Fatalf("known soft-repair cycle no longer reproduces (longest cycle %v): "+
			"if the repair protocol was fixed, flip this test to assert no cycles "+
			"and update ROADMAP.md's residual-issues note", longest)
	}
	if stalled == 0 {
		t.Fatal("known stall no longer reproduces: if the repair protocol was fixed, " +
			"flip this test to assert full delivery and update ROADMAP.md")
	}
}
