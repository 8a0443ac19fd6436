package brisa_test

// Live-runtime integration tests driven exclusively through the public API:
// brisa.Listen / Node.Join / Node.Subscribe on loopback TCP, with no
// internal imports — what an external consumer of the package can write.

import (
	"testing"
	"time"

	brisa "repro"
)

// listenN boots n live nodes on loopback and registers cleanup.
func listenN(t *testing.T, n int, cfg brisa.Config) []*brisa.Node {
	t.Helper()
	nodes := make([]*brisa.Node, 0, n)
	for i := 0; i < n; i++ {
		node, err := brisa.Listen("127.0.0.1:0", cfg)
		if err != nil {
			t.Fatalf("Listen: %v", err)
		}
		nodes = append(nodes, node)
	}
	t.Cleanup(func() {
		for _, node := range nodes {
			node.Close()
		}
	})
	return nodes
}

func TestLiveSubscribeDeliversAllInOrder(t *testing.T) {
	const (
		peers = 4
		msgs  = 25
	)
	nodes := listenN(t, peers, brisa.Config{Mode: brisa.ModeTree, ViewSize: 3})

	// Subscribe before joining so no delivery can be missed. The source
	// subscribes too: fan-out covers local publishes.
	subs := make([]*brisa.Subscription, peers)
	for i := range nodes {
		subs[i] = nodes[i].Subscribe(1)
	}

	// Everyone joins through node 0, by dial address.
	for i := 1; i < peers; i++ {
		if err := nodes[i].Join(nodes[0].Addr()); err != nil {
			t.Fatalf("Join: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	time.Sleep(1 * time.Second)

	// Publish a stream from node 0, spaced so each message disseminates
	// before the next: delivery order is then sequence order everywhere.
	go func() {
		for k := 0; k < msgs; k++ {
			nodes[0].Publish(1, []byte{byte(k + 1)})
			time.Sleep(30 * time.Millisecond)
		}
	}()

	// Every subscriber — source included — receives every message, in order.
	for i, sub := range subs {
		for want := uint32(1); want <= msgs; want++ {
			select {
			case m, ok := <-sub.C():
				if !ok {
					t.Fatalf("node %d: subscription closed at seq %d", i, want)
				}
				if m.Stream != 1 {
					t.Fatalf("node %d: got stream %d, want 1", i, m.Stream)
				}
				if m.Seq != want {
					t.Fatalf("node %d: got seq %d, want %d (out of order or missing)", i, m.Seq, want)
				}
				if len(m.Payload) != 1 || m.Payload[0] != byte(want) {
					t.Fatalf("node %d: seq %d carries payload %v", i, m.Seq, m.Payload)
				}
			case <-time.After(15 * time.Second):
				t.Fatalf("node %d: timed out waiting for seq %d", i, want)
			}
		}
	}

	// The structure emerged over real sockets: one parent per non-source.
	for i := 1; i < peers; i++ {
		if got := len(nodes[i].Parents(1)); got != 1 {
			t.Errorf("node %d has %d parents, want 1", i, got)
		}
		if got := nodes[i].DeliveredCount(1); got != msgs {
			t.Errorf("node %d delivered %d of %d", i, got, msgs)
		}
	}
}

func TestLiveSubscriptionCancelClosesChannel(t *testing.T) {
	nodes := listenN(t, 1, brisa.Config{Mode: brisa.ModeTree})
	sub := nodes[0].Subscribe(7)
	sub.Cancel()
	sub.Cancel() // idempotent
	select {
	case _, ok := <-sub.C():
		if ok {
			t.Fatal("received a message on a cancelled subscription")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled subscription's channel not closed")
	}
	// Deliveries after cancel are dropped, not queued.
	nodes[0].Publish(7, []byte("x"))
}

func TestLiveCloseCancelsSubscriptions(t *testing.T) {
	node, err := brisa.Listen("127.0.0.1:0", brisa.Config{Mode: brisa.ModeTree})
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	sub := node.Subscribe(1)
	node.Close()
	node.Close() // idempotent
	select {
	case _, ok := <-sub.C():
		if ok {
			t.Fatal("received a message after Close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not cancel the subscription")
	}
}

func TestLiveNodeIDMatchesAddr(t *testing.T) {
	nodes := listenN(t, 1, brisa.Config{Mode: brisa.ModeTree})
	id, err := brisa.ParseNodeID(nodes[0].Addr())
	if err != nil {
		t.Fatalf("ParseNodeID(%q): %v", nodes[0].Addr(), err)
	}
	if id != nodes[0].ID() {
		t.Fatalf("ParseNodeID(%q) = %v, want %v", nodes[0].Addr(), id, nodes[0].ID())
	}
}

func TestLiveJoinRejectsBadAddresses(t *testing.T) {
	nodes := listenN(t, 1, brisa.Config{Mode: brisa.ModeTree})
	if err := nodes[0].Join("not-an-address"); err == nil {
		t.Error("Join(not-an-address) succeeded")
	}
	if err := nodes[0].Join(nodes[0].Addr()); err == nil {
		t.Error("joining through self succeeded")
	}
}

// TestLiveHeartbeatEchoMeasuresRTT: the one-way heartbeat's echo closes
// the round trip over real TCP too, so both ends of a link measure an RTT.
func TestLiveHeartbeatEchoMeasuresRTT(t *testing.T) {
	nodes := listenN(t, 2, brisa.Config{Mode: brisa.ModeTree})
	if err := nodes[1].Join(nodes[0].Addr()); err != nil {
		t.Fatalf("Join: %v", err)
	}
	rtt := func(a, b *brisa.Node) time.Duration {
		var d time.Duration
		a.Do(func(p *brisa.Peer) { d = p.RTT(b.ID()) })
		return d
	}
	deadline := time.Now().Add(5 * time.Second)
	for rtt(nodes[0], nodes[1]) <= 0 || rtt(nodes[1], nodes[0]) <= 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no RTT within 5s: %v from the contact, %v from the joiner",
				rtt(nodes[0], nodes[1]), rtt(nodes[1], nodes[0]))
		}
		time.Sleep(50 * time.Millisecond)
	}
}
