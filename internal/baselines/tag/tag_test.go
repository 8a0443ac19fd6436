package tag

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/simnet"
)

type fixture struct {
	net   *simnet.Network
	peers []*Peer
	byID  map[ids.NodeID]*Peer
}

func build(n int, seed int64, cfg Config) *fixture {
	f := &fixture{
		net:  simnet.New(simnet.Options{Seed: seed}),
		byID: make(map[ids.NodeID]*Peer),
	}
	cfg.Source = ids.NodeID(1)
	for i := 0; i < n; i++ {
		self := ids.NodeID(i + 1)
		p := New(self, cfg)
		f.peers = append(f.peers, p)
		f.byID[self] = p
		f.net.AddNode(self, p.Handler())
	}
	// Joins are strictly sequential: TAG's list is sorted by join time.
	for i := 1; i < n; i++ {
		i := i
		f.net.At(time.Duration(i)*100*time.Millisecond, func() { f.peers[i].Join(ids.Nil) })
	}
	f.net.RunUntil(time.Duration(n)*100*time.Millisecond + 10*time.Second)
	return f
}

func TestEveryNodeSettles(t *testing.T) {
	f := build(64, 1, Config{})
	for i, p := range f.peers {
		if _, ok := p.SettleTime(); !ok {
			t.Errorf("peer %d never settled in the list", i+1)
		}
		if i > 0 && p.Parent() == ids.Nil {
			t.Errorf("peer %d has no tree parent", i+1)
		}
	}
}

func TestTreeRespectsCapacity(t *testing.T) {
	f := build(64, 2, Config{MaxChildren: 4})
	for i, p := range f.peers {
		// Only the source may exceed the capacity (it is the walk's
		// terminal fallback).
		if i > 0 && p.children.Len() > 4 {
			t.Errorf("peer %d has %d children, cap is 4", i+1, p.children.Len())
		}
	}
}

func TestTreeIsAcyclic(t *testing.T) {
	f := build(80, 3, Config{})
	for i, p := range f.peers {
		if i == 0 {
			continue
		}
		cur := p
		hops := 0
		for cur.Parent() != ids.Nil {
			cur = f.byID[cur.Parent()]
			hops++
			if hops > len(f.peers) {
				t.Fatalf("peer %d: cycle in parent chain", i+1)
			}
		}
		if cur != f.peers[0] {
			t.Errorf("peer %d: parent chain does not reach the source", i+1)
		}
	}
}

func TestPullDisseminationCompletes(t *testing.T) {
	f := build(48, 4, Config{PullPeriod: 100 * time.Millisecond, MaxItemsPerPull: 4})
	const msgs = 30
	for i := 0; i < msgs; i++ {
		i := i
		f.net.After(time.Duration(i)*200*time.Millisecond, func() {
			f.peers[0].Publish(1, make([]byte, 64))
		})
	}
	f.net.RunFor(msgs*200*time.Millisecond + 30*time.Second)
	for i, p := range f.peers {
		if got := p.DeliveredCount(1); got != msgs {
			t.Errorf("peer %d delivered %d of %d", i+1, got, msgs)
		}
	}
}

func TestPullRateBoundsDrainRate(t *testing.T) {
	// With one item per pull and period T, a node drains at most ~2/T
	// messages per second (parent + gossip alternation). Publishing faster
	// than that must stretch dissemination — the §III-D Table II effect
	// where TAG's pull design doubles total latency.
	f := build(24, 5, Config{PullPeriod: 400 * time.Millisecond, MaxItemsPerPull: 1})
	const msgs = 50
	start := f.net.Now()
	for i := 0; i < msgs; i++ {
		i := i
		f.net.After(time.Duration(i)*200*time.Millisecond, func() {
			f.peers[0].Publish(1, make([]byte, 64))
		})
	}
	// Track the last delivery time of the last peer to finish.
	f.net.RunFor(msgs*200*time.Millisecond + 120*time.Second)
	for i, p := range f.peers {
		if got := p.DeliveredCount(1); got != msgs {
			t.Fatalf("peer %d delivered %d of %d", i+1, got, msgs)
		}
	}
	_ = start
	// Completeness at a bounded drain rate is the assertion; latency shape
	// is measured by the experiment harness.
}

func TestParentRecoverySoft(t *testing.T) {
	var repairs, hard atomic.Int64 // listeners run on scheduler shard goroutines
	f := build(48, 6, Config{})
	for _, p := range f.peers {
		p.Events().Add(func(ev core.Event) {
			if ev.Type != core.EvRepaired {
				return
			}
			repairs.Add(1)
			if ev.Hard {
				hard.Add(1)
			}
		})
	}
	// Keep the stream flowing so structure stays exercised.
	for i := 0; i < 100; i++ {
		i := i
		f.net.After(time.Duration(i)*200*time.Millisecond, func() {
			f.peers[0].Publish(1, make([]byte, 16))
		})
	}
	// Kill a few non-source nodes.
	for k := 0; k < 5; k++ {
		k := k
		f.net.After(time.Duration(5+2*k)*time.Second, func() {
			alive := f.net.NodeIDs()
			for {
				victim := alive[f.net.Rand().Intn(len(alive))]
				if victim != ids.NodeID(1) {
					f.net.Crash(victim)
					return
				}
			}
		})
	}
	f.net.RunFor(60 * time.Second)
	if repairs.Load() == 0 {
		t.Error("expected parent recoveries under churn")
	}
	t.Logf("repairs=%d (hard=%d)", repairs.Load(), hard.Load())
	// Everyone alive must still have a parent.
	for i, p := range f.peers {
		if i == 0 || !f.net.Alive(ids.NodeID(i+1)) {
			continue
		}
		if p.Parent() == ids.Nil {
			t.Errorf("peer %d has no parent after recovery window", i+1)
		}
	}
}
