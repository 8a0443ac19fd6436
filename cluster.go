package brisa

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/simnet"
)

// ClusterConfig describes a simulated deployment.
type ClusterConfig struct {
	// Nodes is the network size.
	Nodes int
	// Peer configures every peer. Its OnDeliver and OnEvent callbacks are
	// shared by all peers and receive no peer argument: for per-peer
	// callbacks, derive each peer's Config with PeerConfigAt instead.
	Peer Config
	// PeerConfigAt, when set, derives a per-peer configuration from the
	// peer's 0-based creation index, churned-in peers continuing the count
	// (overrides Peer) — the derivation shared with the live runtime, where
	// identifiers are unknown before the sockets bind. On the simulator the
	// peer with index i has identifier NodeID(i+1).
	PeerConfigAt func(i int) Config
	// Seed drives all simulation randomness (default 1).
	Seed int64
	// Latency is the network latency model (default ClusterLatency()).
	Latency LatencyModel
	// JoinInterval staggers the bootstrap joins (default 50ms). The
	// paper's traces join one node per second; experiments compress this.
	JoinInterval time.Duration
	// StabilizeTime is how long Bootstrap runs after the last join
	// (default 15s of virtual time).
	StabilizeTime time.Duration
	// DetectDelay overrides the failure-detection latency.
	DetectDelay time.Duration
	// NodeBandwidth is each node's shared egress throughput in
	// bytes/second (0 = infinite). Floods queue behind it, as on real
	// testbeds.
	NodeBandwidth int64
	// LinkBandwidth is the per-link throughput in bytes/second (0 =
	// infinite).
	LinkBandwidth int64
	// ProcessingDelay, when set, adds per-message scheduling delay at
	// receivers (see simnet.LogNormalDelay).
	ProcessingDelay func(r *rand.Rand) time.Duration
	// Faults, when set, injects deterministic network faults once the
	// dissemination phase starts (see FaultModel). Buffer drops surface to
	// the affected peer's OnEvent as EvMsgDropped.
	Faults *FaultModel
	// Workers is the number of scheduler shards the simulator partitions
	// node actors across. Zero (the default) picks one shard per CPU,
	// capped at the scheduler's shard limit; 1 forces the sequential
	// engine. With more than one shard the conservative safe-time
	// scheduler runs shards on worker goroutines; results are
	// byte-identical for every worker count, but shared instrumentation
	// callbacks (Peer OnDeliver/OnEvent) then run concurrently and must
	// be thread-safe. Requires a Latency model with a positive minimum
	// delay (all built-in models qualify); otherwise the engine silently
	// degrades to 1 worker. Call Cluster.Close when done to release the
	// worker goroutines.
	Workers int
	// ParallelThreshold tunes when the sharded scheduler fans a window out
	// to worker goroutines instead of running it inline (see
	// simnet.Options.ParallelThreshold; tests use -1 to force fan-out).
	ParallelThreshold int
}

// Cluster is a simulated BRISA deployment: N peers on a virtual network.
type Cluster struct {
	// Net is the underlying simulator; use it to advance virtual time,
	// schedule workload events, inject churn, and read traffic counters.
	Net   *simnet.Network
	cfg   ClusterConfig
	peers map[NodeID]*Peer
	order []NodeID
	next  uint64

	bootstrapped bool
	// onAddPeer, when set by the scenario runner, instruments peers that
	// join after the run started (churn joiners).
	onAddPeer func(*Peer)

	// dropSinks routes simulated buffer drops to each peer's OnEvent as
	// EvMsgDropped. Written only in driver context (addPeer runs before the
	// simulation or inside barrier events); read on shard goroutines, which
	// the scheduler's span handoff orders after every barrier write.
	dropSinks map[NodeID]func(Event)
}

// Validate checks the configuration. Zero values mean "use the documented
// default"; negative values are errors rather than silently corrected.
func (cfg ClusterConfig) Validate() error {
	if cfg.Nodes <= 0 {
		return fmt.Errorf("brisa: ClusterConfig.Nodes must be positive, got %d", cfg.Nodes)
	}
	if cfg.JoinInterval < 0 {
		return fmt.Errorf("brisa: ClusterConfig.JoinInterval must not be negative, got %v", cfg.JoinInterval)
	}
	if cfg.StabilizeTime < 0 {
		return fmt.Errorf("brisa: ClusterConfig.StabilizeTime must not be negative, got %v", cfg.StabilizeTime)
	}
	if cfg.DetectDelay < 0 {
		return fmt.Errorf("brisa: ClusterConfig.DetectDelay must not be negative, got %v", cfg.DetectDelay)
	}
	if cfg.NodeBandwidth < 0 {
		return fmt.Errorf("brisa: ClusterConfig.NodeBandwidth must not be negative, got %d", cfg.NodeBandwidth)
	}
	if cfg.LinkBandwidth < 0 {
		return fmt.Errorf("brisa: ClusterConfig.LinkBandwidth must not be negative, got %d", cfg.LinkBandwidth)
	}
	if cfg.Workers < 0 {
		return fmt.Errorf("brisa: ClusterConfig.Workers must not be negative, got %d", cfg.Workers)
	}
	if cfg.Faults != nil {
		if err := cfg.Faults.Validate(); err != nil {
			return fmt.Errorf("brisa: ClusterConfig: %w", err)
		}
	}
	if cfg.PeerConfigAt == nil {
		if err := cfg.Peer.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// NewCluster builds the peers and registers them with a fresh simulator, or
// reports why the configuration is invalid. Nodes are not joined to each
// other yet; call Bootstrap (or schedule joins manually for custom traces).
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.JoinInterval == 0 {
		cfg.JoinInterval = 50 * time.Millisecond
	}
	if cfg.StabilizeTime == 0 {
		cfg.StabilizeTime = 15 * time.Second
	}
	c := &Cluster{
		cfg:   cfg,
		peers: make(map[NodeID]*Peer),
	}
	faults := cfg.Faults
	if faults != nil && faults.Buffer != nil {
		// Surface buffer drops to the affected peer's OnEvent. The copy
		// keeps the caller's FaultModel callback-free and reusable.
		c.dropSinks = make(map[NodeID]func(Event))
		f := *faults
		userDrop := f.OnDrop
		f.OnDrop = func(id NodeID, at time.Time) {
			if sink := c.dropSinks[id]; sink != nil {
				sink(Event{Type: EvMsgDropped, At: at})
			}
			if userDrop != nil {
				userDrop(id, at)
			}
		}
		faults = &f
	}
	c.Net = simnet.New(simnet.Options{
		Seed:              cfg.Seed,
		Latency:           cfg.Latency,
		DetectDelay:       cfg.DetectDelay,
		NodeBandwidth:     cfg.NodeBandwidth,
		Bandwidth:         cfg.LinkBandwidth,
		ProcessingDelay:   cfg.ProcessingDelay,
		Faults:            faults,
		Workers:           cfg.Workers,
		ParallelThreshold: cfg.ParallelThreshold,
	})
	for i := 0; i < cfg.Nodes; i++ {
		if _, err := c.addPeer(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

func (c *Cluster) addPeer() (*Peer, error) {
	c.next++
	id := NodeID(c.next)
	pcfg := c.cfg.Peer
	if c.cfg.PeerConfigAt != nil {
		pcfg = c.cfg.PeerConfigAt(len(c.order))
	}
	p, err := newPeer(id, pcfg, c.cfg.Nodes)
	if err != nil {
		c.next--
		return nil, err
	}
	if c.dropSinks != nil && pcfg.OnEvent != nil {
		c.dropSinks[id] = pcfg.OnEvent
	}
	c.peers[id] = p
	c.Net.AddNode(id, p.Handler())
	c.order = append(c.order, id)
	if c.onAddPeer != nil {
		c.onAddPeer(p)
	}
	return p, nil
}

// Bootstrap joins every peer to a random earlier peer, one per
// JoinInterval, then runs the simulation until the overlay stabilizes.
func (c *Cluster) Bootstrap() {
	c.bootstrapped = true
	for i, id := range c.order {
		if i == 0 {
			continue
		}
		i, id := i, id
		c.Net.At(time.Duration(i)*c.cfg.JoinInterval, func() {
			contact := c.order[c.Net.Rand().Intn(i)]
			c.peers[id].Join(contact)
		})
	}
	c.Net.RunUntil(time.Duration(len(c.order))*c.cfg.JoinInterval + c.cfg.StabilizeTime)
}

// Peers returns all peers in creation order, including crashed ones.
func (c *Cluster) Peers() []*Peer {
	out := make([]*Peer, 0, len(c.order))
	for _, id := range c.order {
		out = append(out, c.peers[id])
	}
	return out
}

// AlivePeers returns the peers whose node is still alive.
func (c *Cluster) AlivePeers() []*Peer {
	out := make([]*Peer, 0, len(c.order))
	for _, id := range c.order {
		if c.Net.Alive(id) {
			out = append(out, c.peers[id])
		}
	}
	return out
}

// Peer returns the peer with the given id, or nil.
func (c *Cluster) Peer(id NodeID) *Peer { return c.peers[id] }

// JoinNew adds a brand-new peer and joins it via a random alive member (the
// churn "join" primitive). It returns the new peer. The only error source is
// an invalid PeerConfigAt-derived configuration.
func (c *Cluster) JoinNew() (*Peer, error) {
	p, err := c.addPeer()
	if err != nil {
		return nil, err
	}
	alive := c.Net.NodeIDs()
	// Exclude the newborn itself from contact candidates.
	candidates := alive[:0]
	for _, id := range alive {
		if id != p.ID() {
			candidates = append(candidates, id)
		}
	}
	if len(candidates) > 0 {
		contact := candidates[c.Net.Rand().Intn(len(candidates))]
		// The new node's Start event is queued but has not run yet; join
		// right after it. The node may also be crashed by churn within the
		// same event batch, before Start ever runs — skip the join then.
		c.Net.After(0, func() {
			if c.Net.Alive(p.ID()) {
				p.Join(contact)
			}
		})
		// Bootstrap retry: a contact can die mid-join under churn, leaving
		// the newborn isolated. Re-join through another member until the
		// overlay accepts it — the shared joinPolicy, scheduled in
		// virtual time.
		c.retryJoin(p, simJoinPolicy.Attempts)
	}
	return p, nil
}

func (c *Cluster) retryJoin(p *Peer, attempts int) {
	if attempts <= 0 {
		return
	}
	c.Net.After(simJoinPolicy.Wait, func() {
		if !c.Net.Alive(p.ID()) || len(p.Neighbors()) > 0 {
			return
		}
		alive := c.Net.NodeIDs()
		candidates := alive[:0]
		for _, id := range alive {
			if id != p.ID() {
				candidates = append(candidates, id)
			}
		}
		if len(candidates) == 0 {
			return
		}
		p.Join(candidates[c.Net.Rand().Intn(len(candidates))])
		c.retryJoin(p, attempts-1)
	})
}

// CrashRandom kills one random alive peer, never one of the excluded ids
// (e.g., the stream source). It returns the victim, or Nil if none was
// available.
func (c *Cluster) CrashRandom(exclude ...NodeID) NodeID {
	skip := make(map[NodeID]bool, len(exclude))
	for _, id := range exclude {
		skip[id] = true
	}
	alive := c.Net.NodeIDs()
	candidates := alive[:0]
	for _, id := range alive {
		if !skip[id] {
			candidates = append(candidates, id)
		}
	}
	if len(candidates) == 0 {
		return 0
	}
	victim := candidates[c.Net.Rand().Intn(len(candidates))]
	c.Net.Crash(victim)
	return victim
}

// churnTarget adapts the cluster's churn primitives to the trace replayer.
type churnTarget struct {
	c       *Cluster
	protect []NodeID
}

func (t *churnTarget) Join() {
	if _, err := t.c.JoinNew(); err != nil {
		panic("brisa: churn join: " + err.Error())
	}
}
func (t *churnTarget) Fail()     { t.c.CrashRandom(t.protect...) }
func (t *churnTarget) Size() int { return len(t.c.Net.NodeIDs()) }
func (t *churnTarget) Stop()     {}

// Close releases the simulator's worker goroutines (Workers > 1). It is
// idempotent and safe on sequential clusters; a closed cluster still runs,
// executing scheduler windows inline.
func (c *Cluster) Close() { c.Net.Close() }

// Workers returns the effective scheduler shard count (1 unless
// ClusterConfig.Workers enabled sharding and the latency model supports it).
func (c *Cluster) Workers() int { return c.Net.Workers() }

// String summarizes the cluster state.
func (c *Cluster) String() string {
	return fmt.Sprintf("cluster{nodes=%d alive=%d t=%v}",
		len(c.order), len(c.Net.NodeIDs()), c.Net.Since())
}
