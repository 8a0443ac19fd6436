package brisa_test

// Constructor and configuration validation: the public constructors return
// errors instead of panicking or silently correcting contradictory input.

import (
	"sync/atomic"
	"testing"
	"time"

	brisa "repro"
)

func TestNewClusterValidation(t *testing.T) {
	bad := []brisa.ClusterConfig{
		{},          // Nodes missing
		{Nodes: -4}, // negative size
		{Nodes: 8, JoinInterval: -time.Second},
		{Nodes: 8, StabilizeTime: -time.Second},
		{Nodes: 8, NodeBandwidth: -1},
		{Nodes: 8, LinkBandwidth: -1},
		{Nodes: 8, Peer: brisa.Config{Mode: brisa.Mode(99)}},
		{Nodes: 8, Peer: brisa.Config{Mode: brisa.ModeTree, Parents: 2}},
		{Nodes: 8, Peer: brisa.Config{Mode: brisa.ModeFlood, Parents: 1}},
		{Nodes: 8, Peer: brisa.Config{ViewSize: -1}},
		{Nodes: 8, Peer: brisa.Config{ExpansionFactor: 0.5}},
	}
	for i, cfg := range bad {
		if c, err := brisa.NewCluster(cfg); err == nil {
			t.Errorf("case %d: NewCluster(%+v) = %v, want error", i, cfg, c)
		}
	}
	// A PeerConfigAt-derived invalid configuration surfaces at build time too.
	if _, err := brisa.NewCluster(brisa.ClusterConfig{
		Nodes:        4,
		PeerConfigAt: func(int) brisa.Config { return brisa.Config{Parents: -1} },
	}); err == nil {
		t.Error("NewCluster accepted an invalid PeerConfigAt-derived configuration")
	}
}

func TestNewPeerValidation(t *testing.T) {
	if _, err := brisa.NewPeer(0, brisa.Config{}); err == nil {
		t.Error("NewPeer accepted the nil identifier")
	}
	if _, err := brisa.NewPeer(1, brisa.Config{Parents: -1}); err == nil {
		t.Error("NewPeer accepted Parents=-1")
	}
	p, err := brisa.NewPeer(1, brisa.Config{Mode: brisa.ModeDAG})
	if err != nil {
		t.Fatalf("NewPeer: %v", err)
	}
	if p.ID() != 1 {
		t.Errorf("peer id = %v, want 1", p.ID())
	}
}

func TestListenValidation(t *testing.T) {
	if _, err := brisa.Listen("256.0.0.1:99999", brisa.Config{}); err == nil {
		t.Error("Listen accepted an unparseable address")
	}
	// A bad peer configuration must not leak the bound listener: the same
	// address stays bindable right after the failure.
	n, err := brisa.Listen("127.0.0.1:0", brisa.Config{})
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	addr := n.Addr()
	n.Close()
	if _, err := brisa.Listen(addr, brisa.Config{ViewSize: -1}); err == nil {
		t.Fatal("Listen accepted ViewSize=-1")
	}
	n2, err := brisa.Listen(addr, brisa.Config{})
	if err != nil {
		t.Fatalf("re-Listen on %s after failed Listen: %v", addr, err)
	}
	n2.Close()
}

func TestParseNodeID(t *testing.T) {
	id, err := brisa.ParseNodeID("10.1.2.3:7001")
	if err != nil {
		t.Fatalf("ParseNodeID: %v", err)
	}
	if got := id.String(); got != "10.1.2.3:7001" {
		t.Errorf("round trip: %q", got)
	}
	for _, bad := range []string{"", "10.1.2.3", "[::1]:80", "10.1.2.3:99999"} {
		if _, err := brisa.ParseNodeID(bad); err == nil {
			t.Errorf("ParseNodeID(%q) succeeded", bad)
		}
	}
}

func TestSimulatedSubscription(t *testing.T) {
	// Subscriptions work on the simulator exactly as on live TCP.
	c := newTestCluster(t, brisa.ClusterConfig{
		Nodes: 16,
		Seed:  11,
		Peer:  brisa.Config{Mode: brisa.ModeTree, ViewSize: 4},
	})
	c.Bootstrap()
	source := c.Peers()[0]
	leaf := c.Peers()[5]
	sub := leaf.Subscribe(3)
	defer sub.Cancel()
	const msgs = 10
	publishStream(c, source, 3, msgs, 200*time.Millisecond, 8)
	c.Net.RunFor(msgs*200*time.Millisecond + 5*time.Second)

	for want := uint32(1); want <= msgs; want++ {
		select {
		case m := <-sub.C():
			if m.Seq != want {
				t.Fatalf("got seq %d, want %d", m.Seq, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out waiting for seq %d", want)
		}
	}
}

// TestOnDeliverFiresForReceptionsOnly pins what Config.OnDeliver counts: a
// peer's receptions, never its own publishes — while a Subscribe on the
// source still sees every sequence — on the simulator and on a live pair.
func TestOnDeliverFiresForReceptionsOnly(t *testing.T) {
	const nodes, msgs = 16, 20
	for _, mode := range []brisa.Mode{brisa.ModeFlood, brisa.ModeTree, brisa.ModeDAG, brisa.ModeSimpleGossip} {
		t.Run(mode.String(), func(t *testing.T) {
			counts := make([]atomic.Int64, nodes) // OnDeliver runs on scheduler shard goroutines
			c := newTestCluster(t, brisa.ClusterConfig{
				Nodes: nodes, Seed: 13,
				PeerConfigAt: func(i int) brisa.Config {
					return brisa.Config{Mode: mode, OnDeliver: func(brisa.StreamID, uint32, []byte) { counts[i].Add(1) }}
				},
			})
			defer c.Close()
			c.Bootstrap()
			src := c.Peers()[0]
			sub := src.Subscribe(1)
			defer sub.Cancel()
			publishStream(c, src, 1, msgs, 200*time.Millisecond, 8)
			c.Net.RunFor(msgs*200*time.Millisecond + 10*time.Second)

			expectSeqs(t, sub, msgs)
			if got := counts[0].Load(); got != 0 {
				t.Errorf("the source's OnDeliver fired %d times for its own publishes", got)
			}
			for i, p := range c.Peers()[1:] {
				if got, want := counts[i+1].Load(), p.DeliveredCount(1); got != int64(want) || want != msgs {
					t.Errorf("peer %v: OnDeliver fired %d times, DeliveredCount %d, published %d", p.ID(), got, want, msgs)
				}
			}
		})
	}
	t.Run("live", func(t *testing.T) {
		var counts [2]atomic.Int64
		pair := make([]*brisa.Node, 2)
		for i := range pair {
			n, err := brisa.Listen("127.0.0.1:0", brisa.Config{
				Mode:      brisa.ModeTree,
				OnDeliver: func(brisa.StreamID, uint32, []byte) { counts[i].Add(1) },
			})
			if err != nil {
				t.Fatalf("Listen: %v", err)
			}
			defer n.Close()
			pair[i] = n
		}
		if err := pair[1].Join(pair[0].Addr()); err != nil {
			t.Fatalf("Join: %v", err)
		}
		for deadline := time.Now().Add(5 * time.Second); len(pair[0].Neighbors()) == 0; time.Sleep(10 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("the source never saw its neighbor")
			}
		}
		sub := pair[0].Subscribe(1)
		defer sub.Cancel()
		for k := 0; k < msgs; k++ {
			pair[0].Publish(1, []byte{byte(k)})
		}

		expectSeqs(t, sub, msgs)
		for deadline := time.Now().Add(10 * time.Second); pair[1].DeliveredCount(1) < msgs; time.Sleep(10 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("the receiver delivered %d of %d", pair[1].DeliveredCount(1), msgs)
			}
		}
		if got := counts[0].Load(); got != 0 {
			t.Errorf("the source's OnDeliver fired %d times for its own publishes", got)
		}
		if got, want := counts[1].Load(), pair[1].DeliveredCount(1); got != int64(want) {
			t.Errorf("the receiver's OnDeliver fired %d times, DeliveredCount %d", got, want)
		}
	})
}

// expectSeqs reads sequences 1..msgs, in order, from a subscription.
func expectSeqs(t *testing.T, sub *brisa.Subscription, msgs uint32) {
	t.Helper()
	for want := uint32(1); want <= msgs; want++ {
		select {
		case m := <-sub.C():
			if m.Seq != want {
				t.Fatalf("subscription got seq %d, want %d", m.Seq, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("subscription timed out waiting for seq %d", want)
		}
	}
}

// A baseline peer answers the whole public Peer API: what all four systems
// have works, what only BRISA has reads as empty.
func TestBaselinePeerAPI(t *testing.T) {
	for _, mode := range []brisa.Mode{brisa.ModeSimpleTree, brisa.ModeSimpleGossip, brisa.ModeTAG} {
		t.Run(mode.String(), func(t *testing.T) {
			events := 0
			c, err := brisa.NewCluster(brisa.ClusterConfig{
				Nodes: 16, Workers: 1,
				Peer: brisa.Config{Mode: mode, ViewSize: 3, OnEvent: func(brisa.Event) { events++ }},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			c.Bootstrap()
			src, leaf := c.Peers()[0], c.Peers()[15]
			sub := leaf.Subscribe(1)
			defer sub.Cancel()
			c.Net.After(0, func() { src.Publish(1, []byte("hello")) })
			c.Net.RunFor(30 * time.Second)

			select {
			case m := <-sub.C():
				if m.Seq != 1 || string(m.Payload) != "hello" {
					t.Errorf("subscription delivered %+v", m)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("the subscription delivered nothing")
			}
			if got := leaf.DeliveredCount(1); got != 1 {
				t.Errorf("DeliveredCount = %d, want 1", got)
			}
			if got := leaf.Metrics().Delivered; got != 1 {
				t.Errorf("Metrics().Delivered = %d, want 1", got)
			}
			if structured := mode != brisa.ModeSimpleGossip; structured != (len(leaf.Parents(1)) == 1) || leaf.IsOrphan(1) {
				t.Errorf("Parents = %v, IsOrphan = %v", leaf.Parents(1), leaf.IsOrphan(1))
			}
			if _, ok := leaf.ConstructionTime(1); ok != (mode == brisa.ModeTAG) {
				t.Errorf("ConstructionTime ok = %v", ok)
			}
			if mode == brisa.ModeSimpleGossip && events == 0 {
				t.Error("OnEvent saw none of SimpleGossip's duplicates")
			}

			if len(leaf.Neighbors()) != 0 || len(leaf.Children(1)) != 0 || leaf.RTT(src.ID()) != 0 ||
				leaf.PSSMetrics().Shuffles != 0 || leaf.BlobsDelivered(1) != 0 || leaf.BlobStats(1) != (brisa.BlobStats{}) {
				t.Error("a BRISA-only accessor reported something on a baseline peer")
			}
			if _, ok := leaf.Depth(1); ok {
				t.Error("Depth is known on a baseline peer")
			}
			if _, err := src.PublishBlob(2, make([]byte, 1024), brisa.BlobOptions{}); err == nil {
				t.Error("PublishBlob succeeded on a baseline peer")
			}
			blobs := leaf.SubscribeBlobs(2)
			blobs.Cancel()
		})
	}
}
