package simpletree

import (
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/simnet"
	"repro/internal/wire"
)

func buildTree(n int, seed int64) (*simnet.Network, []*Peer) {
	net := simnet.New(simnet.Options{Seed: seed})
	coord := ids.NodeID(1)
	peers := make([]*Peer, n)
	for i := 0; i < n; i++ {
		self := ids.NodeID(i + 1)
		peers[i] = New(self, coord)
		net.AddNode(self, peers[i].Handler())
	}
	for i := 1; i < n; i++ {
		i := i
		net.At(time.Duration(i)*20*time.Millisecond, func() { peers[i].Join(ids.Nil) })
	}
	net.RunUntil(time.Duration(n)*20*time.Millisecond + 5*time.Second)
	return net, peers
}

func TestTreeIsAcyclicAndSpanning(t *testing.T) {
	_, peers := buildTree(100, 1)
	byID := make(map[ids.NodeID]*Peer, len(peers))
	for i, p := range peers {
		byID[ids.NodeID(i+1)] = p
	}
	for i, p := range peers {
		if i == 0 {
			continue
		}
		cur := p
		hops := 0
		for cur.Parent() != ids.Nil {
			cur = byID[cur.Parent()]
			hops++
			if hops > len(peers) {
				t.Fatalf("peer %d: cycle in parent chain", i+1)
			}
		}
		if cur != peers[0] {
			t.Errorf("peer %d: chain ends at a non-root node", i+1)
		}
	}
}

func TestPushCompletenessAndZeroDuplicates(t *testing.T) {
	net, peers := buildTree(100, 2)
	const msgs = 50
	for i := 0; i < msgs; i++ {
		i := i
		net.After(time.Duration(i)*200*time.Millisecond, func() {
			peers[0].Publish(1, make([]byte, 64))
		})
	}
	net.RunFor(msgs*200*time.Millisecond + 5*time.Second)
	for i, p := range peers {
		if got := p.DeliveredCount(1); got != msgs {
			t.Errorf("peer %d delivered %d of %d", i+1, got, msgs)
		}
		if d := p.Metrics().Duplicates; d != 0 {
			t.Errorf("peer %d saw %d duplicates in a pure tree", i+1, d)
		}
	}
}

func TestChildrenConsistency(t *testing.T) {
	_, peers := buildTree(64, 3)
	children := make(map[ids.NodeID]int)
	for i, p := range peers {
		if i == 0 {
			continue
		}
		children[p.Parent()]++
	}
	for i, p := range peers {
		id := ids.NodeID(i + 1)
		if got, want := len(p.Children()), children[id]; got != want {
			t.Errorf("peer %v children = %d, want %d", id, got, want)
		}
	}
}

var _ = wire.StreamID(0)
