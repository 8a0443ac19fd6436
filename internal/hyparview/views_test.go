package hyparview

import (
	"slices"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/node"
	"repro/internal/simnet"
	"repro/internal/wire"
)

func TestDisconnectMovesToPassive(t *testing.T) {
	c := newCluster(t, 32, 13, DefaultConfig())
	c.bootstrap(50 * time.Millisecond)
	c.net.RunUntil(30 * time.Second)
	// Force enough joins through one node to cause evictions there, then
	// verify evicted peers landed in passive views rather than vanishing.
	totalPassive := 0
	for _, p := range c.peers {
		totalPassive += len(p.Passive())
	}
	if totalPassive == 0 {
		t.Fatal("no passive view entries anywhere; shuffles/evictions broken")
	}
}

func TestPassiveViewsExcludeActiveAndSelf(t *testing.T) {
	c := newCluster(t, 48, 14, DefaultConfig())
	c.bootstrap(50 * time.Millisecond)
	c.net.RunUntil(60 * time.Second)
	for id, p := range c.peers {
		active := map[ids.NodeID]bool{}
		for _, a := range p.Active() {
			active[a] = true
		}
		for _, q := range p.Passive() {
			if q == id {
				t.Errorf("node %v keeps itself in its passive view", id)
			}
			if active[q] {
				t.Errorf("node %v has %v in both views", id, q)
			}
		}
	}
	c.checkViews(t)
}

func TestPromotionAfterFailureUsesPassiveView(t *testing.T) {
	cfg := DefaultConfig()
	c := newCluster(t, 48, 15, cfg)
	c.bootstrap(50 * time.Millisecond)
	c.net.RunUntil(40 * time.Second)

	// Pick a node, remember its views, kill one active neighbor.
	var victim, observer ids.NodeID
	for id, p := range c.peers {
		if len(p.Active()) >= cfg.ActiveSize && len(p.Passive()) > 0 {
			observer = id
			victim = p.Active()[0]
			break
		}
	}
	if observer == 0 {
		t.Fatal("no suitable observer")
	}
	c.net.Crash(victim)
	c.net.RunFor(20 * time.Second)
	// The expansion-factor rule: replacement happens only when the view
	// drops below the target size.
	if after := len(c.peers[observer].Active()); after < cfg.ActiveSize {
		t.Errorf("active view below target after recovery window: %d < %d", after, cfg.ActiveSize)
	}
	for _, nb := range c.peers[observer].Active() {
		if nb == victim {
			t.Error("dead neighbor still in the active view")
		}
	}
	// Somewhere in the network, a neighbor of the victim fell below target
	// and promoted from its passive view.
	promotions := uint64(0)
	for _, p := range c.peers {
		promotions += p.Metrics().Promotions
	}
	if promotions == 0 {
		t.Error("no passive-view promotions recorded anywhere")
	}
}

func TestGracefulShutdownInformsPeers(t *testing.T) {
	c := newCluster(t, 24, 16, DefaultConfig())
	c.bootstrap(50 * time.Millisecond)
	c.net.RunUntil(20 * time.Second)
	leaver := c.order[5]
	c.net.Shutdown(leaver)
	c.net.RunFor(10 * time.Second)
	for id, p := range c.peers {
		if !c.net.Alive(id) {
			continue
		}
		for _, nb := range p.Active() {
			if nb == leaver {
				t.Errorf("node %v still lists the departed %v", id, leaver)
			}
		}
	}
}

func TestShufflesSpreadKnowledge(t *testing.T) {
	// Two halves bootstrapped through a single bridge node: shuffles must
	// spread passive knowledge across the bridge over time.
	cfg := DefaultConfig()
	cfg.ShufflePeriod = time.Second
	netw := simnet.New(simnet.Options{Seed: 17})
	c := &cluster{net: netw, peers: map[ids.NodeID]*Protocol{}}
	for i := 0; i < 21; i++ {
		id := ids.NodeID(i + 1)
		p := New(cfg)
		mux := muxFor(p)
		netw.AddNode(id, mux)
		c.peers[id] = p
		c.order = append(c.order, id)
	}
	// Nodes 2..11 join via node 1; nodes 12..21 join via node 11.
	for i := 1; i < 11; i++ {
		i := i
		netw.At(time.Duration(i)*100*time.Millisecond, func() { c.peers[c.order[i]].Join(1) })
	}
	for i := 11; i < 21; i++ {
		i := i
		netw.At(time.Duration(i)*100*time.Millisecond, func() { c.peers[c.order[i]].Join(11) })
	}
	netw.RunUntil(2 * time.Minute)
	// Knowledge check: someone in the first half knows someone from the
	// second half beyond the bridge.
	crossKnowledge := 0
	for i := 0; i < 10; i++ {
		p := c.peers[c.order[i]]
		for _, known := range append(p.Active(), p.Passive()...) {
			if known > 11 {
				crossKnowledge++
			}
		}
	}
	if crossKnowledge == 0 {
		t.Error("no cross-partition knowledge after two minutes of shuffles")
	}
}

// muxFor registers the protocol on a standard mux.
func muxFor(p *Protocol) *node.Mux {
	mux := node.NewMux()
	mux.Register(p, Kinds()...)
	return mux
}

// balance counts, per peer, the OnNeighborUp calls minus the OnNeighborDown
// calls a node made: what the upper layer believes about its neighbours.
type balance map[ids.NodeID]int

// counted returns cfg with callbacks that count into b.
func (b balance) counted(cfg Config) Config {
	cfg.OnNeighborUp = func(peer ids.NodeID) { b[peer]++ }
	cfg.OnNeighborDown = func(peer ids.NodeID) { b[peer]-- }
	return cfg
}

// checkView asserts the invariants of p's views: the active view is strictly
// ascending, within its cap and free of self and ids.Nil; Active is its
// connected subset; the passive view is within its cap, free of self and
// ids.Nil and disjoint from the active one; and the upper layer, as b counts
// its callbacks, holds exactly the connected neighbours.
func checkView(t testing.TB, p *Protocol, b balance) {
	t.Helper()
	self := p.env.ID()
	var connected []ids.NodeID
	for i, nb := range p.view {
		if i > 0 && p.view[i-1].id >= nb.id {
			t.Errorf("node %v: view is not strictly ascending at %d: %v then %v", self, i, p.view[i-1].id, nb.id)
		}
		if nb.id == self || nb.id == ids.Nil {
			t.Errorf("node %v: active view holds %v", self, nb.id)
		}
		if p.passive.Has(nb.id) {
			t.Errorf("node %v: %v is in both views", self, nb.id)
		}
		if nb.connected {
			connected = append(connected, nb.id)
		}
	}
	if !slices.Equal(p.Active(), connected) {
		t.Errorf("node %v: Active() = %v, want the view's connected entries %v", self, p.Active(), connected)
	}
	if len(p.view) > p.maxActive() {
		t.Errorf("node %v: active view holds %d entries, cap %d", self, len(p.view), p.maxActive())
	}
	passive := p.Passive()
	if len(passive) > p.cfg.PassiveSize {
		t.Errorf("node %v: passive view holds %d entries, cap %d", self, len(passive), p.cfg.PassiveSize)
	}
	if slices.Contains(passive, self) || slices.Contains(passive, ids.Nil) {
		t.Errorf("node %v: passive view %v holds self or nil", self, passive)
	}
	for peer, n := range b {
		want := 0
		if p.ActiveContains(peer) {
			want = 1
		}
		if n != want {
			t.Errorf("node %v: %v went up %d more times than down, want %d", self, peer, n, want)
		}
	}
	for _, peer := range p.Active() {
		if b[peer] != 1 {
			t.Errorf("node %v: neighbour %v went up %d more times than down, want 1", self, peer, b[peer])
		}
	}
}

// TestLateDialKeepsInboundNeighbor: this node dials 2 for a forward join, 2
// joins inbound while the dial is out, then the dial completes. The
// NeighborRequest still goes out, but 2 stays a connected neighbour whatever
// it answers, and the upper layer hears of it exactly once.
func TestLateDialKeepsInboundNeighbor(t *testing.T) {
	for _, tc := range []struct {
		name   string
		accept bool
	}{{"accept", true}, {"reject", false}} {
		t.Run(tc.name, func(t *testing.T) {
			p, env, b := newCountedNode(DefaultConfig())
			p.Receive(3, wire.Join{})
			p.Receive(3, wire.ForwardJoin{Joiner: 2, TTL: 0}) // dials 2
			p.Receive(2, wire.Join{})
			env.sent = nil
			p.ConnUp(2)
			if len(env.sent) != 1 || env.sent[0].to != 2 || env.sent[0].m.Kind() != wire.KindNeighborRequest {
				t.Fatalf("the completed dial sent %v, want one NeighborRequest to 2", env.sent)
			}
			p.Receive(2, wire.NeighborReply{Accept: tc.accept})
			if !p.ActiveContains(2) {
				t.Error("2 left the active view")
			}
			checkView(t, p, b)
		})
	}
}

// Fuzz operations: one per message kind, the connection events, both ticks
// and Join. Each step of a FuzzView input is three bytes: the peer (2–7),
// the operation and an argument the operation decodes.
const (
	opJoin = iota
	opForwardJoin
	opDisconnect
	opNeighborRequest
	opNeighborReply
	opShuffle
	opShuffleReply
	opKeepAlive
	opConnUp
	opConnDown
	opKeepAliveTick
	opShuffleTick
	opJoinVia
	numOps
)

// argIDs decodes the set bits of arg as node ids 0–7: nil, self and the
// six peers.
func argIDs(arg byte) []ids.NodeID {
	var s []ids.NodeID
	for i := 0; i < 8; i++ {
		if arg&(1<<i) != 0 {
			s = append(s, ids.NodeID(i))
		}
	}
	return s
}

// FuzzView drives one node through any sequence of messages, connection
// events and ticks from six peers, with caps small enough to be hit, and
// checks the view invariants and the number of sends after every step.
func FuzzView(f *testing.F) {
	step := func(peer ids.NodeID, op, arg byte) []byte { return []byte{byte(peer) - 2, op, arg} }
	f.Add(slices.Concat( // TestLateDialKeepsInboundNeighbor's reject row
		step(3, opJoin, 0),
		step(3, opForwardJoin, 2), // joiner 2, TTL 0
		step(2, opJoin, 0),
		step(2, opConnUp, 0),
		step(2, opNeighborReply, 0),
	))
	tick := step(2, opKeepAliveTick, 0)
	f.Add(slices.Concat( // 4 dies between 3 and 5, which still get their heartbeats
		step(3, opJoin, 0), step(4, opJoin, 0), step(5, opJoin, 0),
		tick, tick, tick,
		step(3, opKeepAlive, 0), step(5, opKeepAlive, 0),
		tick,
	))
	f.Add(slices.Concat(
		step(2, opJoinVia, 0), step(2, opConnUp, 0), step(3, opJoin, 0), step(4, opJoin, 0),
		step(5, opJoin, 0), step(6, opNeighborRequest, 1), step(7, opShuffle, 0xfe),
		step(3, opConnDown, 0), step(6, opDisconnect, 0), step(5, opShuffleTick, 0),
	))
	f.Fuzz(func(t *testing.T, steps []byte) {
		cfg := DefaultConfig()
		cfg.ActiveSize, cfg.PassiveSize = 2, 2 // a view of at most 4, of six peers
		p, env, b := newCountedNode(cfg)
		if len(steps) > 3*64 {
			// 64 steps fill and churn both views many times over; longer
			// inputs only stall the fuzzer minimising them.
			steps = steps[:3*64]
		}
		for ; len(steps) >= 3; steps = steps[3:] {
			peer, op, arg := ids.NodeID(2+steps[0]%6), steps[1]%numOps, steps[2]
			env.sent = env.sent[:0]
			switch op {
			case opJoin:
				p.Receive(peer, wire.Join{})
			case opForwardJoin:
				p.Receive(peer, wire.ForwardJoin{Joiner: ids.NodeID(arg % 8), TTL: arg >> 3 % 8})
			case opDisconnect:
				p.Receive(peer, wire.Disconnect{})
			case opNeighborRequest:
				p.Receive(peer, wire.NeighborRequest{Priority: arg&1 != 0})
			case opNeighborReply:
				p.Receive(peer, wire.NeighborReply{Accept: arg&1 != 0})
			case opShuffle:
				p.Receive(peer, wire.Shuffle{Origin: ids.NodeID(arg % 8), TTL: arg >> 3 % 4, Nodes: argIDs(arg)})
			case opShuffleReply:
				p.Receive(peer, wire.ShuffleReply{Nodes: argIDs(arg)})
			case opKeepAlive:
				p.Receive(peer, wire.KeepAlive{SentAt: int64(arg) + 1, Echo: env.now.UnixNano() - int64(arg)*int64(time.Millisecond)})
			case opConnUp:
				p.ConnUp(peer)
			case opConnDown:
				p.ConnDown(peer, nil)
			case opKeepAliveTick:
				env.now = env.now.Add(cfg.KeepAlivePeriod)
				p.keepAliveTick()
				var got []ids.NodeID
				for _, m := range env.sent {
					if _, ok := asKeepAlive(m.m); ok {
						got = append(got, m.to)
					}
				}
				if !slices.Equal(got, p.Active()) {
					t.Fatalf("a round sent heartbeats to %v, want one to each neighbour it left: %v", got, p.Active())
				}
			case opShuffleTick:
				p.shuffleTick()
			case opJoinVia:
				p.Join(peer)
			}
			if n := len(env.sent); n > p.maxActive()+1 {
				t.Fatalf("op %d from %v made %d sends, want at most %d", op, peer, n, p.maxActive()+1)
			}
			if checkView(t, p, b); t.Failed() {
				t.FailNow()
			}
		}
	})
}
