package brisa_test

// Focused protocol-behaviour tests for the §II-F repair machinery and the
// recovery paths, driven through the public facade on the deterministic
// simulator.

import (
	"sync"
	"testing"
	"time"

	brisa "repro"
)

// eventLog collects structural events per peer. OnEvent callbacks run on
// scheduler shard goroutines (the simulator defaults to one shard per CPU),
// so access is mutex-guarded.
type eventLog struct {
	mu     sync.Mutex
	events map[brisa.NodeID][]brisa.Event
}

func newEventLog() *eventLog {
	return &eventLog{events: make(map[brisa.NodeID][]brisa.Event)}
}

func (l *eventLog) add(id brisa.NodeID, ev brisa.Event) {
	l.mu.Lock()
	l.events[id] = append(l.events[id], ev)
	l.mu.Unlock()
}

func (l *eventLog) config(mode brisa.Mode, parents, view int) func(int) brisa.Config {
	return func(i int) brisa.Config {
		id := brisa.NodeID(i + 1) // the simulator numbers peers from 1
		return brisa.Config{
			Mode: mode, Parents: parents, ViewSize: view,
			OnEvent: func(ev brisa.Event) { l.add(id, ev) },
		}
	}
}

func (l *eventLog) count(t brisa.EventType) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, evs := range l.events {
		for _, ev := range evs {
			if ev.Type == t {
				n++
			}
		}
	}
	return n
}

func TestSoftRepairReconnectsChildren(t *testing.T) {
	log := newEventLog()
	c := newTestCluster(t, brisa.ClusterConfig{
		Nodes: 96, Seed: 21, PeerConfigAt: log.config(brisa.ModeTree, 1, 4),
	})
	c.Bootstrap()
	source := c.Peers()[0]
	publishStream(c, source, 1, 100, 200*time.Millisecond, 256)
	c.Net.RunFor(5 * time.Second) // structure emerges over the first messages

	// Kill an interior node: one with children.
	var victim brisa.NodeID
	for _, p := range c.AlivePeers() {
		if p.ID() != source.ID() && len(p.Children(1)) >= 2 {
			victim = p.ID()
			break
		}
	}
	if victim == 0 {
		t.Fatal("no interior node found")
	}
	orphansBefore := log.count(brisa.EvOrphan)
	c.Net.Crash(victim)
	c.Net.RunFor(100*200*time.Millisecond + 10*time.Second)

	orphans := log.count(brisa.EvOrphan) - orphansBefore
	repaired := log.count(brisa.EvRepaired)
	if orphans == 0 {
		t.Error("killing an interior node should orphan its children")
	}
	if repaired < orphans {
		t.Errorf("repaired %d of %d orphans", repaired, orphans)
	}
	for _, p := range c.AlivePeers() {
		if got := p.DeliveredCount(1); got != 100 {
			t.Errorf("peer %v delivered %d of 100 after repair", p.ID(), got)
		}
	}
}

func TestRepairWithoutPiggybackStillHeals(t *testing.T) {
	// Ablation: with the keep-alive piggyback channel off, soft repair can
	// only use position knowledge from past data receptions (the paper's
	// un-optimized variant). Repairs must still succeed and the stream must
	// stay complete.
	log := newEventLog()
	c := newTestCluster(t, brisa.ClusterConfig{
		Nodes: 64, Seed: 22,
		PeerConfigAt: func(i int) brisa.Config {
			id := brisa.NodeID(i + 1)
			return brisa.Config{
				Mode: brisa.ModeTree, ViewSize: 4,
				DisablePiggyback: true,
				OnEvent:          func(ev brisa.Event) { log.add(id, ev) },
			}
		},
	})
	c.Bootstrap()
	source := c.Peers()[0]
	publishStream(c, source, 1, 100, 200*time.Millisecond, 256)
	c.Net.RunFor(5 * time.Second)
	for i := 0; i < 4; i++ {
		c.CrashRandom(source.ID())
		c.Net.RunFor(3 * time.Second)
	}
	c.Net.RunFor(100*200*time.Millisecond + 10*time.Second)

	soft, hard, orphans := log.count(brisa.EvSoftRepair), log.count(brisa.EvHardRepair), log.count(brisa.EvOrphan)
	t.Logf("orphans=%d soft=%d hard=%d (piggyback disabled)", orphans, soft, hard)
	if orphans > 0 && soft+hard < orphans {
		t.Errorf("repairs (%d) did not cover orphans (%d)", soft+hard, orphans)
	}
	for _, p := range c.AlivePeers() {
		if got := p.DeliveredCount(1); got != 100 {
			t.Errorf("peer %v delivered %d of 100 after repairs", p.ID(), got)
		}
	}
}

func TestInformedRepairIsMostlySoft(t *testing.T) {
	// The flip side of the ablation: with piggybacks on, Table I's
	// "almost all repairs are soft" should hold.
	log := newEventLog()
	c := newTestCluster(t, brisa.ClusterConfig{
		Nodes: 96, Seed: 23, PeerConfigAt: log.config(brisa.ModeTree, 1, 4),
	})
	c.Bootstrap()
	source := c.Peers()[0]
	publishStream(c, source, 1, 150, 200*time.Millisecond, 256)
	c.Net.RunFor(5 * time.Second)
	for i := 0; i < 8; i++ {
		c.CrashRandom(source.ID())
		c.Net.RunFor(3 * time.Second)
	}
	c.Net.RunFor(150*200*time.Millisecond + 10*time.Second)

	soft, hard := log.count(brisa.EvSoftRepair), log.count(brisa.EvHardRepair)
	t.Logf("soft=%d hard=%d", soft, hard)
	if soft == 0 {
		t.Fatal("no soft repairs recorded")
	}
	if soft < hard {
		t.Errorf("informed repair should be mostly soft (soft=%d hard=%d)", soft, hard)
	}
}

func TestRecoveryDelaysAreSmall(t *testing.T) {
	// Figure 14's property: recovery from a parent failure takes
	// milliseconds beyond detection, not seconds.
	log := newEventLog()
	c := newTestCluster(t, brisa.ClusterConfig{
		Nodes: 96, Seed: 24, PeerConfigAt: log.config(brisa.ModeTree, 1, 4),
	})
	c.Bootstrap()
	source := c.Peers()[0]
	publishStream(c, source, 1, 150, 200*time.Millisecond, 256)
	c.Net.RunFor(5 * time.Second)
	for i := 0; i < 6; i++ {
		c.CrashRandom(source.ID())
		c.Net.RunFor(4 * time.Second)
	}
	c.Net.RunFor(150*200*time.Millisecond + 10*time.Second)

	var worst time.Duration
	n := 0
	for _, evs := range log.events {
		for _, ev := range evs {
			if ev.Type == brisa.EvRepaired {
				n++
				if ev.Dur > worst {
					worst = ev.Dur
				}
			}
		}
	}
	if n == 0 {
		t.Fatal("no recoveries measured")
	}
	t.Logf("recoveries=%d worst=%v", n, worst)
	// Recovery completes within a couple of message intervals: the next
	// message after the repair confirms the new parent.
	if worst > 3*time.Second {
		t.Errorf("worst recovery %v exceeds 3s", worst)
	}
}

func TestMessageRecoveryAfterParentFailure(t *testing.T) {
	// §II-F: "nodes can compensate message loss during the parent recovery
	// process by directly asking its new found parent to send the missing
	// ones". Kill parents aggressively mid-stream and require zero holes.
	c := newTestCluster(t, brisa.ClusterConfig{
		Nodes: 64, Seed: 25,
		Peer: brisa.Config{Mode: brisa.ModeTree, ViewSize: 4},
	})
	c.Bootstrap()
	source := c.Peers()[0]
	publishStream(c, source, 1, 200, 100*time.Millisecond, 128) // 10 msg/s
	for i := 0; i < 10; i++ {
		i := i
		c.Net.After(time.Duration(2+i)*2*time.Second, func() {
			c.CrashRandom(source.ID())
		})
	}
	c.Net.RunFor(200*100*time.Millisecond + 15*time.Second)
	var retrans uint64
	for _, p := range c.AlivePeers() {
		if got := p.DeliveredCount(1); got != 200 {
			t.Errorf("peer %v delivered %d of 200 (holes not recovered)", p.ID(), got)
		}
		retrans += p.Metrics().Retransmissions
	}
	t.Logf("retransmissions served: %d", retrans)
}

func TestGerontocraticPrefersOldNodes(t *testing.T) {
	// Build a network, let it age, add a batch of newcomers, then start a
	// stream: under the gerontocratic strategy, newcomers should rarely be
	// chosen as parents.
	c := newTestCluster(t, brisa.ClusterConfig{
		Nodes: 64, Seed: 26,
		Peer: brisa.Config{Mode: brisa.ModeTree, ViewSize: 5, Strategy: brisa.Gerontocratic{}},
	})
	c.Bootstrap()
	c.Net.RunFor(2 * time.Minute) // age the founding population
	newcomers := map[brisa.NodeID]bool{}
	for i := 0; i < 16; i++ {
		newcomers[joinNew(t, c).ID()] = true
	}
	c.Net.RunFor(30 * time.Second)
	source := c.Peers()[0]
	publishStream(c, source, 1, 60, 200*time.Millisecond, 128)
	c.Net.RunFor(60*200*time.Millisecond + 10*time.Second)

	oldParents, newParents := 0, 0
	for _, p := range c.AlivePeers() {
		for _, par := range p.Parents(1) {
			if newcomers[par] {
				newParents++
			} else {
				oldParents++
			}
		}
	}
	t.Logf("parent links: old=%d newcomer=%d (newcomers are 20%% of nodes)", oldParents, newParents)
	// The strategy only discriminates when duplicate offers exist (during
	// convergence and after joins), so it bounds rather than eliminates
	// newcomer parents: they must not exceed half the old-node links.
	if newParents > oldParents/2 {
		t.Errorf("gerontocratic strategy picked too many newcomers (%d vs %d old)",
			newParents, oldParents)
	}
}
