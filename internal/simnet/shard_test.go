package simnet

// Tests for the sharded conservative-lookahead scheduler: worker-count
// equivalence at the engine level, forced-parallel windows (exercised under
// -race in CI), and the half-connection edge cases that only matter once
// connection state is split across shards.

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/node"
	"repro/internal/wire"
)

// gossipNode relays every received Rumor to all its connected peers once,
// creating dense cross-shard traffic with timers and teardown.
type gossipNode struct {
	node.BaseProto
	env   node.Env
	peers []ids.NodeID
	seen  map[uint32]bool
	log   []string
}

func (g *gossipNode) Start(env node.Env) {
	g.env = env
	g.seen = make(map[uint32]bool)
	for _, p := range g.peers {
		if p != env.ID() {
			env.Connect(p)
		}
	}
}

func (g *gossipNode) ConnUp(p ids.NodeID) {
	g.log = append(g.log, fmt.Sprintf("up:%v@%v", p, g.env.Now().UnixNano()))
}

func (g *gossipNode) ConnDown(p ids.NodeID, err error) {
	g.log = append(g.log, fmt.Sprintf("down:%v@%v", p, g.env.Now().UnixNano()))
}

func (g *gossipNode) Receive(from ids.NodeID, m wire.Message) {
	r, ok := m.(wire.Rumor)
	if !ok {
		return
	}
	g.log = append(g.log, fmt.Sprintf("rx:%d<-%v@%v", r.Seq, from, g.env.Now().UnixNano()))
	if g.seen[r.Seq] {
		return
	}
	g.seen[r.Seq] = true
	for _, p := range g.peers {
		if p != from && p != g.env.ID() {
			g.env.Send(p, m)
		}
	}
}

// runGossip drives a fully-meshed rumor flood with mid-run churn and
// returns a transcript of every node's observations.
func runGossip(workers, threshold int, nodes int) string {
	n := New(Options{
		Seed:              11,
		Latency:           UniformLatency{Min: 200 * time.Microsecond, Max: 900 * time.Microsecond},
		Workers:           workers,
		ParallelThreshold: threshold,
	})
	defer n.Close()
	all := make([]ids.NodeID, nodes)
	gs := make([]*gossipNode, nodes)
	for i := range all {
		all[i] = ids.NodeID(i + 1)
	}
	for i := range all {
		gs[i] = &gossipNode{peers: all}
		n.AddNode(all[i], gs[i])
	}
	n.RunFor(50 * time.Millisecond) // handshakes settle
	for round := 0; round < 6; round++ {
		seq := uint32(round + 1)
		src := gs[round%nodes]
		n.After(time.Duration(round)*3*time.Millisecond, func() {
			var m wire.Message = wire.Rumor{Stream: 1, Seq: seq, Payload: []byte("x")}
			for _, p := range all {
				if p != src.env.ID() {
					src.env.Send(p, m)
				}
			}
		})
	}
	n.After(8*time.Millisecond, func() { n.Crash(all[nodes-1]) })
	n.After(12*time.Millisecond, func() { n.Shutdown(all[nodes-2]) })
	n.RunFor(500 * time.Millisecond)
	out := fmt.Sprintf("events=%d\n", n.EventsFired())
	for i, g := range gs {
		out += fmt.Sprintf("node%d:%v\n", i, g.log)
	}
	return out
}

// TestShardedEquivalence is the engine-level half of the equivalence
// harness: the same workload must produce an identical transcript — every
// delivery, ConnUp/ConnDown, and timestamp — for every worker count,
// whether windows run inline or on worker goroutines.
func TestShardedEquivalence(t *testing.T) {
	want := runGossip(1, 0, 12)
	for _, workers := range []int{2, 3, 8} {
		for _, threshold := range []int{0, -1} {
			got := runGossip(workers, threshold, 12)
			if got != want {
				t.Fatalf("workers=%d threshold=%d diverged from sequential:\n--- sequential ---\n%s\n--- sharded ---\n%s",
					workers, threshold, want, got)
			}
		}
	}
}

// TestShardedDegradesWithoutMinDelay pins the safety valve: a latency model
// without a positive lower bound offers no lookahead window, so the engine
// must fall back to sequential execution rather than risk causality.
func TestShardedDegradesWithoutMinDelay(t *testing.T) {
	n := New(Options{Seed: 1, Latency: FixedLatency(0), Workers: 4})
	defer n.Close()
	if got := n.Workers(); got != 1 {
		t.Fatalf("Workers() = %d with a zero-lookahead model, want 1", got)
	}
	n2 := New(Options{Seed: 1, Latency: UniformLatency{Min: time.Millisecond, Max: 2 * time.Millisecond}, Workers: 4})
	defer n2.Close()
	if got := n2.Workers(); got != 4 {
		t.Fatalf("Workers() = %d, want 4", got)
	}
	if n2.Lookahead() != time.Millisecond {
		t.Fatalf("Lookahead() = %v, want 1ms", n2.Lookahead())
	}
}

// TestCrossedDialsConverge: two nodes dialing each other simultaneously
// must converge on one established connection on both sides, and traffic
// must flow both ways afterwards.
func TestCrossedDialsConverge(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			n := New(Options{Seed: 5, Latency: FixedLatency(time.Millisecond), Workers: workers, ParallelThreshold: -1})
			defer n.Close()
			a, b := &echoNode{}, &echoNode{}
			n.AddNode(1, a)
			n.AddNode(2, b)
			n.RunFor(time.Millisecond)
			a.env.Connect(2)
			b.env.Connect(1)
			n.RunFor(20 * time.Millisecond)
			if len(a.ups) != 1 || len(b.ups) != 1 {
				t.Fatalf("ConnUp counts: a=%v b=%v, want one each", a.ups, b.ups)
			}
			if !a.env.Connected(2) || !b.env.Connected(1) {
				t.Fatal("crossed dial did not establish both sides")
			}
			a.env.Send(2, wire.Join{})
			b.env.Send(1, wire.Join{})
			n.RunFor(20 * time.Millisecond)
			if len(a.received) != 1 || len(b.received) != 1 {
				t.Fatalf("post-handshake traffic lost: a=%d b=%d", len(a.received), len(b.received))
			}
		})
	}
}

// TestStaleDeliveryDropped: messages in flight on a closed connection must
// not leak into a successor connection between the same pair.
func TestStaleDeliveryDropped(t *testing.T) {
	n := New(Options{Seed: 1, Latency: FixedLatency(5 * time.Millisecond)})
	defer n.Close()
	a, b := &echoNode{}, &echoNode{}
	n.AddNode(1, a)
	n.AddNode(2, b)
	n.RunFor(time.Millisecond)
	a.env.Connect(2)
	n.RunFor(20 * time.Millisecond)
	// b sends, then a closes before the message lands and immediately
	// re-dials; the in-flight message belongs to the dead instance.
	b.env.Send(1, wire.Join{})
	a.env.Close(2)
	a.env.Connect(2)
	n.RunFor(100 * time.Millisecond)
	if len(a.received) != 0 {
		t.Fatalf("stale message crossed connection instances: %v", a.received)
	}
	if !a.env.Connected(2) {
		t.Fatal("re-dial did not establish")
	}
}

// TestDialerCrashCancelsSyn: a dial request from a node that crashes before
// the request arrives must not create a ghost connection at the acceptor.
func TestDialerCrashCancelsSyn(t *testing.T) {
	n := New(Options{Seed: 1, Latency: FixedLatency(10 * time.Millisecond)})
	defer n.Close()
	a, b := &echoNode{}, &echoNode{}
	n.AddNode(1, a)
	n.AddNode(2, b)
	n.RunFor(time.Millisecond)
	a.env.Connect(2)
	n.RunFor(2 * time.Millisecond) // request in flight
	n.Crash(1)
	n.RunFor(time.Second)
	if len(b.ups) != 0 {
		t.Fatalf("acceptor saw ConnUp from a crashed dialer: %v", b.ups)
	}
}

// TestAcceptorCrashFailsDial: the dialer of a node that dies mid-handshake
// learns about it through ErrDialFailed.
func TestAcceptorCrashFailsDial(t *testing.T) {
	n := New(Options{Seed: 1, Latency: FixedLatency(10 * time.Millisecond)})
	defer n.Close()
	a, b := &echoNode{}, &echoNode{}
	n.AddNode(1, a)
	n.AddNode(2, b)
	n.RunFor(time.Millisecond)
	a.env.Connect(2)
	n.RunFor(12 * time.Millisecond) // request delivered, completion pending
	n.Crash(2)
	n.RunFor(time.Second)
	if len(a.downs) != 1 || a.downErrs[0] != ErrDialFailed {
		t.Fatalf("dialer outcome: %v / %v, want one ErrDialFailed", a.downs, a.downErrs)
	}
}

// TestLatencyDrawsAreOrderIndependent pins the per-sender latency streams:
// one node's draws are unaffected by draws other nodes make in between —
// the property that frees the sharded scheduler from a global RNG (each
// sender's stream advances only with its own, deterministically-ordered
// sends).
func TestLatencyDrawsAreOrderIndependent(t *testing.T) {
	sample := func(interleave bool) []time.Duration {
		n := New(Options{Seed: 9, Latency: UniformLatency{Min: time.Millisecond, Max: 10 * time.Millisecond}})
		defer n.Close()
		a, b, c := &echoNode{}, &echoNode{}, &echoNode{}
		n.AddNode(1, a)
		n.AddNode(2, b)
		n.AddNode(3, c)
		n.RunFor(time.Millisecond)
		s1, s2 := n.nodes[1], n.nodes[2]
		var out []time.Duration
		for i := 0; i < 8; i++ {
			out = append(out, time.Duration(n.pairLatency(s1.shard, s1, 2)))
			if interleave {
				// Another sender draws in between; node 1's stream must not
				// notice (under the old shared-RNG engine it would).
				n.pairLatency(s2.shard, s2, 3)
			}
		}
		return out
	}
	plain, interleaved := sample(false), sample(true)
	for i := range plain {
		if plain[i] != interleaved[i] {
			t.Fatalf("draw %d changed under interleaving: %v vs %v", i, plain[i], interleaved[i])
		}
	}
}

// pingNode answers every Rumor with the next one, to the node after it in
// the ring: messages that keep crossing shards.
type pingNode struct {
	node.BaseProto
	env  node.Env
	next ids.NodeID
	log  []int64
}

func (p *pingNode) Start(env node.Env) { p.env = env; env.Connect(p.next) }

func (p *pingNode) Receive(from ids.NodeID, m wire.Message) {
	r := m.(wire.Rumor)
	p.log = append(p.log, int64(r.Seq), p.env.Now().UnixNano())
	p.env.Send(p.next, wire.Rumor{Stream: 1, Seq: r.Seq + 1})
}

// runPing sends one message per node around a ring of one node per shard,
// through thousands of spans about a hop long, and returns what every node
// saw and when.
func runPing(workers, nodes int) string {
	n := New(Options{
		Seed:              5,
		Latency:           UniformLatency{Min: 100 * time.Microsecond, Max: 300 * time.Microsecond},
		Workers:           workers,
		ParallelThreshold: -1,
	})
	defer n.Close()
	ps := make([]*pingNode, nodes)
	for i := range ps {
		ps[i] = &pingNode{next: ids.NodeID((i+1)%nodes + 1)}
		n.AddNode(ids.NodeID(i+1), ps[i])
	}
	n.RunFor(5 * time.Millisecond)
	for _, p := range ps {
		p.env.Send(p.next, wire.Rumor{Stream: 1, Seq: 1})
	}
	for span := 0; span < 4000; span++ {
		n.RunFor(350 * time.Microsecond)
	}
	out := ""
	for _, p := range ps {
		out += fmt.Sprintln(p.log)
	}
	return out
}

// TestSpanQuiesceStress runs spans so short that each ends with messages in
// flight and others just landed: the places where a shard that reads its
// peers' positions one by one can leave a span a peer still posts into (a
// hang, or a delivery run a span late) or run past an event just posted to
// it. Both windows are a few loads wide: on two cores the full-stack
// equivalence tests hit them in about one run in six before minPub took
// snapshots, this loop in none — it is here for hosts with more cores.
func TestSpanQuiesceStress(t *testing.T) {
	for _, nodes := range []int{2, 3, 8} {
		want := runPing(1, nodes)
		if got := runPing(nodes, nodes); got != want {
			t.Fatalf("%d shards diverged from sequential:\n--- sequential ---\n%s--- sharded ---\n%s", nodes, want, got)
		}
	}
}
