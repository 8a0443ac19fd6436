package brisa_test

import (
	"runtime"
	"testing"
	"time"

	brisa "repro"
)

// TestPerNodeStateBudget pins what a simulated node costs in live heap once
// its overlay is up and a stream has flowed through it: the figure that
// caps how many nodes fit in one process. The budget is about 10 % above
// what the neighbor table, the slice-backed ids.Set and the array Mux
// measure (14.6 KB, of which 5.4 KB is the node's math/rand source and 2 KB
// the 64-slot retransmission ring); the parent commit measured 18.8 KB.
func TestPerNodeStateBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("heap figures are meaningless under -race")
	}
	const nodes, budget = 500, 16_000
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	c := newTestCluster(t, brisa.ClusterConfig{
		Nodes: nodes, Seed: 7, Workers: 1,
		Peer: brisa.Config{Mode: brisa.ModeTree, ViewSize: 4},
	})
	defer c.Close()
	c.Bootstrap()
	publishStream(c, c.Peers()[0], 1, 50, 200*time.Millisecond, 256)
	c.Net.RunFor(50*200*time.Millisecond + 10*time.Second)
	for _, p := range c.AlivePeers() {
		if got := p.DeliveredCount(1); got != 50 {
			t.Fatalf("peer %v delivered %d of 50: the figure below would not be a settled tree's", p.ID(), got)
		}
	}
	perNode := (heap() - before) / nodes
	runtime.KeepAlive(c)
	t.Logf("heap bytes/node: %d (budget %d)", perNode, budget)
	if perNode > budget {
		t.Errorf("a node holds %d B of heap, budget %d B", perNode, budget)
	}
}
