package brisa_test

import (
	"runtime"
	"testing"
	"time"

	brisa "repro"
)

// TestPerNodeStateBudget pins what a simulated node costs in live heap once
// its overlay is up and a stream has flowed through it: the figure that
// caps how many nodes fit in one process. The budgets are about 10 % above
// what is measured now that the protocol keeps its instants as int64
// nanoseconds, a neighbour record in 56 bytes, its streams in a sorted slice,
// no piggyback scratch and HyParView's active view as one sorted slice of
// 40-byte records: 6.6 KB in a tree, 1.8 KB of it the retransmission ring;
// the dag case (12.7 KB) is sim-churn's shape, where the view of 8 doubles
// the per-neighbour state.
func TestPerNodeStateBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("heap figures are meaningless under -race")
	}
	for _, tc := range []struct {
		name   string
		peer   brisa.Config
		budget uint64
	}{
		{"tree", brisa.Config{Mode: brisa.ModeTree, ViewSize: 4}, 7_250},
		{"dag", brisa.Config{Mode: brisa.ModeDAG, Parents: 2, ViewSize: 8}, 14_000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if perNode := heapPerNode(t, tc.peer); perNode > tc.budget {
				t.Errorf("a node holds %d B of heap, budget %d B", perNode, tc.budget)
			}
		})
	}
}

// heapPerNode returns the live heap a 500-node cluster of such peers holds
// per node after a 50-message stream has settled.
func heapPerNode(t *testing.T, peer brisa.Config) uint64 {
	const nodes = 500
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	c := newTestCluster(t, brisa.ClusterConfig{Nodes: nodes, Seed: 7, Workers: 1, Peer: peer})
	defer c.Close()
	c.Bootstrap()
	publishStream(c, c.Peers()[0], 1, 50, 200*time.Millisecond, 256)
	c.Net.RunFor(50*200*time.Millisecond + 10*time.Second)
	for _, p := range c.AlivePeers() {
		if got := p.DeliveredCount(1); got != 50 {
			t.Fatalf("peer %v delivered %d of 50: the figure below would not be a settled structure's", p.ID(), got)
		}
	}
	perNode := (heap() - before) / nodes
	runtime.KeepAlive(c)
	t.Logf("heap bytes/node: %d", perNode)
	return perNode
}
