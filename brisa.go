// Package brisa is the public API of this BRISA reproduction: epidemic data
// dissemination where efficient tree/DAG structures emerge from a HyParView
// overlay by selective link deactivation (Matos et al., IPDPS 2012).
//
// A Peer bundles the two protocol layers — the HyParView peer sampling
// service and the BRISA dissemination core — wired together (membership
// callbacks, keep-alive piggybacks). The same Peer runs unchanged on two
// runtimes, both reachable without importing internal packages:
//
//   - the deterministic discrete-event simulator: NewCluster assembles N
//     peers on a virtual network for experiments and tests;
//   - real TCP sockets: Listen binds an address, derives the 48-bit ip:port
//     node identifier from it, and returns a live Node.
//
// Delivered payloads are consumed per stream through Peer.Subscribe, which
// works identically on both runtimes (SubscribeOpts bounds the queue for
// slow consumers). For instrumentation, the Config.OnDeliver and
// Config.OnEvent callbacks run on the peer's actor ahead of every
// subscription; OnDeliver sees receptions only, never the peer's own
// publishes.
//
// Whole experiments are declared as Scenario values — a Topology, one or
// more Workloads (multi-stream, multi-source), optional Churn, and Probes —
// and executed on any Runtime by the single entrypoint
// Run(ctx, rt, sc): SimRuntime replays them in virtual time, LiveRuntime
// on real sockets with churn, wire-traffic taps, and per-peer configs.
// Both return a Report of per-stream results with CDF and table renderers.
//
// Quickstart (simulated):
//
//	cluster, err := brisa.NewCluster(brisa.ClusterConfig{Nodes: 64})
//	if err != nil { ... }
//	cluster.Bootstrap()
//	source := cluster.Peers()[0]
//	sub := source.Subscribe(1)
//	cluster.Net.After(0, func() { source.Publish(1, []byte("hello")) })
//	cluster.Net.RunFor(5 * time.Second)
//	msg := <-sub.C() // Message{Stream: 1, Seq: 1, Payload: "hello"}
//
// Quickstart (live TCP):
//
//	node, err := brisa.Listen("127.0.0.1:0", brisa.Config{Mode: brisa.ModeTree})
//	if err != nil { ... }
//	defer node.Close()
//	if err := node.Join("10.0.0.1:7001"); err != nil { ... }
//	sub := node.Subscribe(1)
//	for msg := range sub.C() { ... }
package brisa

import (
	"fmt"
	"time"

	"repro/internal/baselines/simplegossip"
	"repro/internal/baselines/simpletree"
	"repro/internal/baselines/tag"
	"repro/internal/blob"
	"repro/internal/core"
	"repro/internal/hyparview"
	"repro/internal/ids"
	"repro/internal/node"
	"repro/internal/wire"
)

// Re-exported identifiers so callers only import this package.
type (
	// NodeID identifies a node (48-bit, the paper's ip:port width).
	NodeID = ids.NodeID
	// StreamID names one dissemination stream.
	StreamID = wire.StreamID
	// Mode selects the system a peer runs: one of BRISA's emerged structures
	// (flood, tree, DAG) or one of the paper's comparison systems.
	Mode = core.Mode
	// Strategy ranks candidate parents (§II-E).
	Strategy = core.Strategy
	// Event is a structural protocol event (for instrumentation).
	Event = core.Event
	// EventType classifies events.
	EventType = core.EventType
	// Metrics are the BRISA protocol counters.
	Metrics = core.Metrics
	// BlobStats are the per-stream blob dissemination counters.
	BlobStats = core.BlobStats
)

// Structure modes, and the §III-D comparison systems: SimpleTree (a
// coordinator-built push tree), SimpleGossip (Cyclon rumor mongering with
// fanout ln N plus anti-entropy) and TAG (a pull-based tree along a join-
// ordered list, ViewSize children per node). The three baselines run under
// the same Cluster, Scenario and Report as BRISA, on the simulator only:
// SimpleTree's coordinator and TAG's source are the node with identifier 1
// — the simulator's first — and live identifiers are addresses.
const (
	ModeFlood        = core.ModeFlood
	ModeTree         = core.ModeTree
	ModeDAG          = core.ModeDAG
	ModeSimpleTree   = core.ModeSimpleTree
	ModeSimpleGossip = core.ModeSimpleGossip
	ModeTAG          = core.ModeTAG
)

// baselineRoot is the node the rooted baselines are built around.
const baselineRoot NodeID = 1

// baseline reports whether the mode is a comparison system rather than a
// BRISA structure, and rooted whether that system grows from baselineRoot.
func baseline(m Mode) bool { return m >= ModeSimpleTree && m <= ModeTAG }
func rooted(m Mode) bool   { return m == ModeSimpleTree || m == ModeTAG }

// Event types (see core.EventType for semantics).
const (
	EvDeliver          = core.EvDeliver
	EvDuplicate        = core.EvDuplicate
	EvParentAdopt      = core.EvParentAdopt
	EvParentLost       = core.EvParentLost
	EvOrphan           = core.EvOrphan
	EvSoftRepair       = core.EvSoftRepair
	EvHardRepair       = core.EvHardRepair
	EvRepaired         = core.EvRepaired
	EvCycleDetected    = core.EvCycleDetected
	EvConstructionDone = core.EvConstructionDone
	EvDepthChange      = core.EvDepthChange
	EvStallRepair      = core.EvStallRepair
	EvBlobDeliver      = core.EvBlobDeliver
	EvBlobDropped      = core.EvBlobDropped
	EvMsgDropped       = core.EvMsgDropped
)

// Parent selection strategies.
type (
	// FirstCome picks the earliest heard sender (§II-E strategy 1).
	FirstCome = core.FirstCome
	// DelayAware picks the lowest-RTT sender (§II-E strategy 2).
	DelayAware = core.DelayAware
	// Gerontocratic prefers long-lived candidates (§IV).
	Gerontocratic = core.Gerontocratic
	// LoadBalancing prefers candidates with few outgoing links (§IV).
	LoadBalancing = core.LoadBalancing
)

// Config assembles one peer.
type Config struct {
	// Mode is the dissemination structure. The zero value is ModeFlood
	// (plain epidemic flooding, no structure emergence); set ModeTree or
	// ModeDAG for the paper's main configurations, or one of the baseline
	// modes to run a comparison system in BRISA's place (simulator only;
	// Parents and Strategy must stay unset).
	Mode Mode
	// Parents is the DAG parent target (default 2 in ModeDAG).
	Parents int
	// Strategy is the parent selection strategy (default FirstCome, with
	// symmetric deactivation enabled as in the paper).
	Strategy Strategy
	// ViewSize is the HyParView active view target (default 4, the
	// paper's baseline); in ModeTAG, how many children a node accepts.
	ViewSize int
	// ExpansionFactor lets the active view stretch (default 2, §II-A).
	ExpansionFactor float64
	// OnDeliver receives every message the peer receives from another
	// node; the peer's own publishes are not receptions and never reach
	// it. It runs on the peer's actor, first among the delivery listeners
	// (before the scenario collector and every Subscription).
	OnDeliver func(stream StreamID, seq uint32, payload []byte)
	// OnEvent receives structural events (evaluation instrumentation) on
	// the peer's actor, first among the event listeners.
	OnEvent func(ev Event)
	// DisablePiggyback turns off the keep-alive piggyback channel used by
	// informed soft repair (for ablations).
	DisablePiggyback bool
	// DisableSymmetricDeactivation turns off the §II-E symmetric
	// deactivation optimization (for ablations).
	DisableSymmetricDeactivation bool
}

// Validate checks the configuration for values that cannot be defaulted
// away. Zero values mean "use the documented default"; negative or otherwise
// contradictory values are errors rather than silently corrected.
func (c Config) Validate() error {
	switch {
	case c.Mode >= ModeFlood && c.Mode <= ModeDAG:
	case !baseline(c.Mode):
		return fmt.Errorf("brisa: unknown Mode %d", int(c.Mode))
	case c.Parents != 0:
		return fmt.Errorf("brisa: Mode %v selects no parents, got Parents=%d", c.Mode, c.Parents)
	case c.Strategy != nil:
		return fmt.Errorf("brisa: Mode %v selects no parents, got Strategy %T", c.Mode, c.Strategy)
	}
	if c.Parents < 0 {
		return fmt.Errorf("brisa: Parents must not be negative, got %d", c.Parents)
	}
	if c.Mode == ModeTree && c.Parents > 1 {
		return fmt.Errorf("brisa: ModeTree keeps a single parent, got Parents=%d (use ModeDAG)", c.Parents)
	}
	if c.Mode == ModeFlood && c.Parents > 0 {
		return fmt.Errorf("brisa: ModeFlood emerges no structure, got Parents=%d", c.Parents)
	}
	if c.ViewSize < 0 {
		return fmt.Errorf("brisa: ViewSize must not be negative, got %d", c.ViewSize)
	}
	if c.ExpansionFactor < 0 {
		return fmt.Errorf("brisa: ExpansionFactor must not be negative, got %g", c.ExpansionFactor)
	}
	if c.ExpansionFactor > 0 && c.ExpansionFactor < 1 {
		return fmt.Errorf("brisa: ExpansionFactor below 1 would shrink the active view, got %g", c.ExpansionFactor)
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.Mode == ModeDAG && c.Parents <= 0 {
		c.Parents = 2
	}
	if c.Strategy == nil && !baseline(c.Mode) {
		c.Strategy = FirstCome{}
	}
	if c.ViewSize <= 0 {
		c.ViewSize = 4
	}
	if c.ExpansionFactor == 0 {
		c.ExpansionFactor = 2
	}
	return c
}

// ParseNodeID converts an "a.b.c.d:port" address into the 48-bit node
// identifier it is in a live deployment — the inverse of NodeID.String.
func ParseNodeID(s string) (NodeID, error) {
	return ids.Parse(s)
}

// stack is what a Cluster, the scenario driver and the collector need from
// the system a Peer runs, whichever Mode chose it: HyParView + BRISA
// (brisaStack) or one of the internal/baselines peers.
type stack interface {
	Join(contact NodeID)
	Publish(stream StreamID, payload []byte) uint32
	// Now is the node's own clock, valid inside its actor callbacks.
	Now() time.Time
	Deliveries() *node.Listeners[core.Delivery]
	Events() *node.Listeners[Event]
	DeliveredCount(stream StreamID) uint64
	Parents(stream StreamID) []NodeID
	IsOrphan(stream StreamID) bool
	ConstructionTime(stream StreamID) (time.Duration, bool)
	Metrics() Metrics
}

// brisaStack is the paper's system: BRISA joins through its HyParView.
type brisaStack struct {
	*core.Protocol
	pss *hyparview.Protocol
}

func (s brisaStack) Join(contact NodeID) { s.pss.Join(contact) }

// Peer is one assembled protocol stack on a single actor: HyParView + BRISA,
// or in a baseline mode that system's own layers. What only BRISA has —
// neighbors, children, depth, RTT, PSS counters, blobs — reads as empty on a
// baseline peer.
type Peer struct {
	id    NodeID
	sys   stack
	pss   *hyparview.Protocol // nil in the baseline modes
	brisa *core.Protocol      // nil in the baseline modes
	mux   *node.Mux
	// closers cancels the peer's live subscriptions when the runtime that
	// owns the peer shuts down (Node.Close).
	closers node.Listeners[struct{}]
}

// NewPeer assembles a peer, or reports why the configuration is invalid.
// Register Handler() with a runtime (simnet or livenet) under the same id —
// or use NewCluster/Listen, which do all of this.
func NewPeer(id NodeID, cfg Config) (*Peer, error) { return newPeer(id, cfg, 0) }

// newPeer is NewPeer for a deployment of a known size, which is what
// SimpleGossip derives its fanout from (ln N, §III-D(a)); 0 leaves the
// simplegossip package's default.
func newPeer(id NodeID, cfg Config, nodes int) (*Peer, error) {
	if !id.Valid() {
		return nil, fmt.Errorf("brisa: invalid peer id %v", id)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if baseline(cfg.Mode) {
		var sys interface {
			stack
			Handler() *node.Mux
		}
		switch cfg.Mode {
		case ModeSimpleTree:
			sys = simpletree.New(id, baselineRoot)
		case ModeSimpleGossip:
			var gcfg simplegossip.Config
			if nodes > 0 {
				gcfg.Fanout = simplegossip.FanoutFor(nodes)
			}
			sys = simplegossip.New(gcfg)
		case ModeTAG:
			sys = tag.New(id, tag.Config{Source: baselineRoot, MaxChildren: cfg.ViewSize})
		}
		return (&Peer{id: id, sys: sys, mux: sys.Handler()}).hook(cfg), nil
	}

	hvCfg := hyparview.DefaultConfig()
	hvCfg.ActiveSize = cfg.ViewSize
	hvCfg.ExpansionFactor = cfg.ExpansionFactor
	hvCfg.PassiveSize = 6 * cfg.ViewSize

	var bp *core.Protocol // captured by the callbacks below
	hvCfg.OnNeighborUp = func(peer NodeID) { bp.NeighborUp(peer) }
	hvCfg.OnNeighborDown = func(peer NodeID) { bp.NeighborDown(peer) }
	if !cfg.DisablePiggyback {
		hvCfg.Piggyback = func() []byte { return bp.PiggybackBlob() }
		hvCfg.OnPiggyback = func(peer NodeID, blob []byte) { bp.HandlePiggyback(peer, blob) }
	}
	pss := hyparview.New(hvCfg)

	symmetric := false
	if _, ok := cfg.Strategy.(FirstCome); ok && cfg.Mode == ModeTree && !cfg.DisableSymmetricDeactivation {
		// §II-E: the optimization's argument ("the duplicate's sender
		// received the message first, so we cannot be its parent") only
		// holds for single-parent trees under first-come ordering; a DAG
		// node may still want us as an additional parent.
		symmetric = true
	}
	bp = core.New(core.Config{
		Mode:                  cfg.Mode,
		Parents:               cfg.Parents,
		Strategy:              cfg.Strategy,
		SymmetricDeactivation: symmetric,
		PSS:                   pss,
	})

	mux := node.NewMux()
	mux.Register(pss, hyparview.Kinds()...)
	mux.Register(bp, core.Kinds()...)
	return (&Peer{id: id, sys: brisaStack{bp, pss}, pss: pss, brisa: bp, mux: mux}).hook(cfg), nil
}

// hook registers the configuration's callbacks ahead of every other
// listener: OnEvent for every event, OnDeliver for every reception.
func (p *Peer) hook(cfg Config) *Peer {
	if cfg.OnEvent != nil {
		p.sys.Events().Add(cfg.OnEvent)
	}
	if fn := cfg.OnDeliver; fn != nil {
		p.sys.Deliveries().Add(func(d core.Delivery) {
			if d.From != ids.Nil {
				fn(d.Stream, d.Seq, d.Payload)
			}
		})
	}
	return p
}

// ID returns the peer's identifier.
func (p *Peer) ID() NodeID { return p.id }

// Handler returns the actor to register with a runtime.
func (p *Peer) Handler() node.Handler { return p.mux }

// Join bootstraps the peer into the overlay via an existing member.
func (p *Peer) Join(contact NodeID) { p.sys.Join(contact) }

// Publish injects the next message of a stream this peer sources.
func (p *Peer) Publish(stream StreamID, payload []byte) uint32 {
	return p.sys.Publish(stream, payload)
}

// BlobOptions tunes PublishBlob. The zero value means 64 KiB chunks with no
// erasure coding.
type BlobOptions struct {
	// ChunkSize is the bytes per data chunk (default 64 KiB, max 1 MiB).
	ChunkSize int
	// Parity adds that many erasure-coded chunks (systematic Reed–Solomon
	// over GF(256)): the blob splits into K data chunks and any K of the
	// K+Parity total reconstruct it. Parity requires K+Parity ≤ 256.
	Parity int
}

// PublishBlob splits a large payload into chunks and disseminates it over
// the stream's emerged structure; receivers reassemble it and deliver it
// through SubscribeBlobs. Missing chunks are pulled from neighbors via the
// Have/Want repair path. Returns the per-stream blob id (from 1). The
// caller must not modify data afterwards.
func (p *Peer) PublishBlob(stream StreamID, data []byte, opts BlobOptions) (uint32, error) {
	if p.brisa == nil {
		return 0, fmt.Errorf("brisa: the baseline modes disseminate no blobs")
	}
	cs := opts.ChunkSize
	if cs <= 0 {
		cs = blob.DefaultChunkSize
	}
	if opts.Parity < 0 {
		return 0, fmt.Errorf("brisa: Parity must not be negative, got %d", opts.Parity)
	}
	prm := blob.Params{ChunkSize: cs}
	if opts.Parity > 0 {
		k := (len(data) + cs - 1) / cs
		prm.Total = k + opts.Parity
	}
	return p.brisa.PublishBlob(stream, data, prm)
}

// BlobsDelivered returns how many blobs of the stream this peer holds
// intact (reconstructed or locally published).
func (p *Peer) BlobsDelivered(stream StreamID) uint64 {
	if p.brisa == nil {
		return 0
	}
	return p.brisa.BlobsDelivered(stream)
}

// BlobStats returns the per-stream blob dissemination counters.
func (p *Peer) BlobStats(stream StreamID) BlobStats {
	if p.brisa == nil {
		return BlobStats{}
	}
	return p.brisa.BlobStats(stream)
}

// Neighbors returns the current HyParView active view. The slice is the
// caller's to keep: the PSS-internal snapshot is copied out.
func (p *Peer) Neighbors() []NodeID {
	if p.pss == nil {
		return nil
	}
	return ids.Clone(p.pss.Active())
}

// Parents returns the peer's current parents for a stream.
func (p *Peer) Parents(stream StreamID) []NodeID { return p.sys.Parents(stream) }

// Children returns the neighbors the peer currently relays a stream to.
func (p *Peer) Children(stream StreamID) []NodeID {
	if p.brisa == nil {
		return nil
	}
	return p.brisa.Children(stream)
}

// Depth returns the peer's structural depth for a stream.
func (p *Peer) Depth(stream StreamID) (int, bool) {
	if p.brisa == nil {
		return 0, false
	}
	return p.brisa.Depth(stream)
}

// DeliveredCount returns how many distinct messages the peer delivered.
func (p *Peer) DeliveredCount(stream StreamID) uint64 { return p.sys.DeliveredCount(stream) }

// IsOrphan reports whether the peer is currently cut off from the stream.
func (p *Peer) IsOrphan(stream StreamID) bool { return p.sys.IsOrphan(stream) }

// ConstructionTime returns the Figure 13 metric for this peer.
func (p *Peer) ConstructionTime(stream StreamID) (time.Duration, bool) {
	return p.sys.ConstructionTime(stream)
}

// Metrics returns the protocol counters.
func (p *Peer) Metrics() Metrics { return p.sys.Metrics() }

// PSSMetrics returns the HyParView protocol counters.
func (p *Peer) PSSMetrics() hyparview.Metrics {
	if p.pss == nil {
		return hyparview.Metrics{}
	}
	return p.pss.Metrics()
}

// RTT returns the keep-alive RTT estimate for an active neighbor.
func (p *Peer) RTT(peer NodeID) time.Duration {
	if p.pss == nil {
		return 0
	}
	return p.pss.RTT(peer)
}
