package hyparview

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/node"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// cluster is a test fixture: n HyParView nodes on a simulated network.
type cluster struct {
	net     *simnet.Network
	peers   map[ids.NodeID]*Protocol
	order   []ids.NodeID
	balance map[ids.NodeID]balance // each node's NeighborUp/NeighborDown count
}

func newCluster(t testing.TB, n int, seed int64, cfg Config) *cluster {
	t.Helper()
	c := &cluster{
		net:     simnet.New(simnet.Options{Seed: seed}),
		peers:   make(map[ids.NodeID]*Protocol),
		balance: make(map[ids.NodeID]balance),
	}
	for i := 0; i < n; i++ {
		id := ids.NodeID(i + 1)
		b := balance{}
		p := New(b.counted(cfg))
		mux := node.NewMux()
		mux.Register(p, Kinds()...)
		c.net.AddNode(id, mux)
		c.peers[id] = p
		c.order = append(c.order, id)
		c.balance[id] = b
	}
	return c
}

// checkViews runs checkView on every node, crashed ones included.
func (c *cluster) checkViews(t *testing.T) {
	t.Helper()
	for _, id := range c.order {
		checkView(t, c.peers[id], c.balance[id])
	}
}

// bootstrap joins node i to a random earlier node, one join per interval.
func (c *cluster) bootstrap(interval time.Duration) {
	for i, id := range c.order {
		if i == 0 {
			continue
		}
		i, id := i, id
		c.net.At(time.Duration(i)*interval, func() {
			contact := c.order[c.net.Rand().Intn(i)]
			c.peers[id].Join(contact)
		})
	}
}

// connectedComponent returns the number of nodes reachable from the first
// alive node by BFS over active views.
func (c *cluster) connectedComponent() int {
	alive := c.net.NodeIDs()
	if len(alive) == 0 {
		return 0
	}
	seen := map[ids.NodeID]bool{alive[0]: true}
	queue := []ids.NodeID{alive[0]}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range c.peers[cur].Active() {
			if !seen[nb] && c.net.Alive(nb) {
				seen[nb] = true
				queue = append(queue, nb)
			}
		}
	}
	return len(seen)
}

func TestOverlayConnectivity(t *testing.T) {
	for _, n := range []int{16, 64, 128} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			t.Parallel()
			c := newCluster(t, n, 42, DefaultConfig())
			c.bootstrap(100 * time.Millisecond)
			c.net.RunUntil(time.Duration(n)*100*time.Millisecond + 30*time.Second)
			if got := c.connectedComponent(); got != n {
				t.Fatalf("overlay not connected: component %d of %d", got, n)
			}
		})
	}
}

func TestViewsAreSymmetric(t *testing.T) {
	c := newCluster(t, 64, 7, DefaultConfig())
	c.bootstrap(100 * time.Millisecond)
	c.net.RunUntil(60 * time.Second)
	asym := 0
	for id, p := range c.peers {
		for _, nb := range p.Active() {
			if !c.peers[nb].ActiveContains(id) {
				asym++
				t.Logf("asymmetric link: %v has %v but not vice versa", id, nb)
			}
		}
	}
	// Transient asymmetry can exist mid-handshake, but after 60 quiet
	// seconds the overlay must be fully symmetric.
	if asym != 0 {
		t.Fatalf("%d asymmetric active links", asym)
	}
	c.checkViews(t)
}

func TestViewSizeBounds(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ActiveSize = 4
	cfg.ExpansionFactor = 2
	c := newCluster(t, 128, 3, cfg)
	c.bootstrap(50 * time.Millisecond)
	c.net.RunUntil(60 * time.Second)
	for id, p := range c.peers {
		if got := len(p.Active()); got > 8 {
			t.Errorf("node %v active view %d exceeds cap 8", id, got)
		}
		if got := len(p.Passive()); got > cfg.PassiveSize {
			t.Errorf("node %v passive view %d exceeds cap %d", id, got, cfg.PassiveSize)
		}
	}
	c.checkViews(t)
}

func TestFailureRecovery(t *testing.T) {
	cfg := DefaultConfig()
	c := newCluster(t, 64, 11, cfg)
	c.bootstrap(50 * time.Millisecond)
	c.net.RunUntil(40 * time.Second)

	// Kill 20% of the nodes at once.
	alive := c.net.NodeIDs()
	for i := 0; i < len(alive)/5; i++ {
		c.net.Crash(alive[c.net.Rand().Intn(len(alive))])
	}
	c.net.RunFor(30 * time.Second)

	live := c.net.NodeIDs()
	if got := c.connectedComponent(); got != len(live) {
		t.Fatalf("overlay did not heal: component %d of %d survivors", got, len(live))
	}
	// No survivor should keep a dead node in its active view.
	for _, id := range live {
		for _, nb := range c.peers[id].Active() {
			if !c.net.Alive(nb) {
				t.Errorf("node %v still lists dead neighbor %v", id, nb)
			}
		}
	}
	c.checkViews(t)
}

func TestRTTMeasurement(t *testing.T) {
	t.Run("clean links", func(t *testing.T) {
		testRTTMeasurement(t, func(_ ids.NodeID, h node.Handler) node.Handler { return h })
	})
	// A lost heartbeat leaves its receiver nothing to echo, so the sender
	// gets no sample that period — never a stale one.
	t.Run("first heartbeat of every link dropped", func(t *testing.T) {
		droppers := map[ids.NodeID]*dropFirstKeepAlive{}
		c := testRTTMeasurement(t, func(id ids.NodeID, h node.Handler) node.Handler {
			d := &dropFirstKeepAlive{Handler: h, dropped: map[ids.NodeID]int{}}
			droppers[id] = d
			return d
		})
		for _, id := range c.order {
			for _, nb := range c.peers[id].Active() {
				if droppers[id].dropped[nb] == 0 {
					t.Errorf("%v dropped no heartbeat from its neighbour %v", id, nb)
				}
			}
		}
	})
}

// dropFirstKeepAlive loses the first heartbeat that arrives from each peer
// and counts what it dropped, per peer.
type dropFirstKeepAlive struct {
	node.Handler
	dropped map[ids.NodeID]int
}

func (d *dropFirstKeepAlive) Receive(from ids.NodeID, m wire.Message) {
	if _, ok := asKeepAlive(m); ok && d.dropped[from] == 0 {
		d.dropped[from]++
		return
	}
	d.Handler.Receive(from, m)
}

func testRTTMeasurement(t *testing.T, wrap func(ids.NodeID, node.Handler) node.Handler) *cluster {
	cfg := DefaultConfig()
	c := &cluster{
		net:   simnet.New(simnet.Options{Seed: 1, Latency: simnet.FixedLatency(5 * time.Millisecond)}),
		peers: make(map[ids.NodeID]*Protocol),
	}
	for i := 0; i < 8; i++ {
		id := ids.NodeID(i + 1)
		p := New(cfg)
		c.net.AddNode(id, wrap(id, muxFor(p)))
		c.peers[id] = p
		c.order = append(c.order, id)
	}
	c.bootstrap(100 * time.Millisecond)
	c.net.RunUntil(20 * time.Second)
	// With a fixed 5 ms one-way latency every measured RTT must be 10 ms.
	measured := 0
	for _, p := range c.peers {
		for _, nb := range p.Active() {
			if rtt := p.RTT(nb); rtt != 0 {
				measured++
				if rtt != 10*time.Millisecond {
					t.Errorf("RTT = %v, want 10ms", rtt)
				}
			}
		}
	}
	if measured == 0 {
		t.Fatal("no RTTs were measured")
	}
	return c
}

func TestPiggybackDelivery(t *testing.T) {
	netw := simnet.New(simnet.Options{Seed: 5})
	// OnPiggyback runs on scheduler shard goroutines (one shard per CPU by
	// default), so the shared map is guarded.
	var mu sync.Mutex
	got := make(map[ids.NodeID]string)
	mk := func(self ids.NodeID) *Protocol {
		cfg := DefaultConfig()
		cfg.Piggyback = func() []byte { return []byte(fmt.Sprintf("state-of-%d", uint64(self))) }
		cfg.OnPiggyback = func(peer ids.NodeID, blob []byte) {
			mu.Lock()
			got[peer] = string(blob)
			mu.Unlock()
		}
		return New(cfg)
	}
	var protos []*Protocol
	for i := 0; i < 4; i++ {
		id := ids.NodeID(i + 1)
		p := mk(id)
		mux := node.NewMux()
		mux.Register(p, Kinds()...)
		netw.AddNode(id, mux)
		protos = append(protos, p)
	}
	for i := 1; i < 4; i++ {
		i := i
		netw.At(time.Duration(i)*100*time.Millisecond, func() {
			protos[i].Join(ids.NodeID(1))
		})
	}
	netw.RunUntil(10 * time.Second)
	if len(got) == 0 {
		t.Fatal("no piggyback blobs delivered")
	}
	for peer, blob := range got {
		want := fmt.Sprintf("state-of-%d", uint64(peer))
		if blob != want {
			t.Errorf("piggyback from %v = %q, want %q", peer, blob, want)
		}
	}
}

func TestExpansionFactorAllowsGrowth(t *testing.T) {
	// With expansion factor 2 and heavy join pressure on one contact, some
	// view should exceed the target size without exceeding the cap.
	cfg := DefaultConfig()
	cfg.ActiveSize = 4
	cfg.ExpansionFactor = 2
	c := newCluster(t, 32, 9, cfg)
	c.bootstrap(20 * time.Millisecond)
	c.net.RunUntil(30 * time.Second)
	grew := false
	for _, p := range c.peers {
		if len(p.Active()) > cfg.ActiveSize {
			grew = true
		}
		if len(p.Active()) > 8 {
			t.Fatalf("active view %d exceeds cap", len(p.Active()))
		}
	}
	if !grew {
		t.Log("no view exceeded the target size (allowed, but unusual under join pressure)")
	}
}
