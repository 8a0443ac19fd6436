// Package core implements BRISA (§II of the paper): efficient dissemination
// structures — trees or DAGs — that emerge from an epidemic overlay by
// selective link deactivation, with the overlay kept as a repair fallback.
//
// The protocol is written as a single-threaded actor (node.Proto) and runs
// on both the discrete-event simulator and the live goroutine/TCP runtime.
package core

import (
	"time"

	"repro/internal/ids"
	"repro/internal/wire"
)

// Mode selects the emerged structure.
type Mode int

// Structure modes.
const (
	// ModeFlood disables structure emergence entirely: every node relays
	// first receptions to all neighbors forever. This is the paper's plain
	// HyParView flooding baseline (Figure 2) and the transport BRISA
	// bootstraps from.
	ModeFlood Mode = iota
	// ModeTree prunes inbound links down to a single parent; cycles are
	// prevented exactly by path embedding (§II-D).
	ModeTree
	// ModeDAG keeps Parents inbound links active; cycles are prevented
	// approximately by depth labels (§II-G).
	ModeDAG
	// ModeSimpleTree, ModeSimpleGossip and ModeTAG name the three systems
	// the paper compares BRISA with (§III-D): a coordinator-built push tree,
	// Cyclon rumor mongering with anti-entropy, and TAG's pull-based list
	// tree. They are values of Mode so that the system under test is one
	// choice; this package runs none of them — the assembler (package brisa)
	// builds the stack from internal/baselines instead of a Protocol.
	ModeSimpleTree
	ModeSimpleGossip
	ModeTAG
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeFlood:
		return "flood"
	case ModeTree:
		return "tree"
	case ModeDAG:
		return "dag"
	case ModeSimpleTree:
		return "simpletree"
	case ModeSimpleGossip:
		return "simplegossip"
	case ModeTAG:
		return "tag"
	}
	return "mode(?)"
}

// Config tunes one BRISA instance.
type Config struct {
	// Mode is the structure to emerge.
	Mode Mode
	// Parents is the target number of parents per node in ModeDAG (the
	// paper evaluates 2). ModeTree forces 1.
	Parents int
	// Strategy ranks eligible parents (§II-E). Defaults to FirstCome.
	Strategy Strategy
	// SymmetricDeactivation enables the §II-E optimization: when a node
	// keeps its current parent and deactivates the duplicate sender's
	// inbound link, it also marks its own outbound link to that sender
	// inactive (the sender received the message first, so we can never be
	// its parent). Sound for the first-come strategy.
	SymmetricDeactivation bool
	// MaxBlobs bounds the per-stream blob buffer: how many blobs (complete
	// or in flight) a node retains reassembly/serving state for. Inserting
	// beyond the bound evicts the lowest blob id — the oldest, since
	// sources number blobs monotonically — trading reliability for bounded
	// memory (the buffer-occupancy tradeoff of Chen et al.).
	MaxBlobs int
	// BlobWantRetry is the per-chunk re-request interval: a missing chunk
	// already requested from some neighbor is not re-requested (from any
	// neighbor) until this much time passes without it arriving.
	BlobWantRetry time.Duration

	// PSS is the peer sampling service underneath (HyParView in the
	// paper). Core only reads views and RTTs; membership callbacks arrive
	// via NeighborUp/NeighborDown.
	PSS PSS
}

// Protocol constants. No deployment, benchmark or experiment ever ran with
// other values, so they are not configuration.
const (
	// bufferSize is how many recent messages are retained per stream to
	// answer MsgRequest retransmissions during parent recovery (§II-F).
	bufferSize = 64
	// recoveryMinInterval rate-limits gap-recovery requests per stream.
	recoveryMinInterval = 50 * time.Millisecond
	// stallTimeout triggers a stall repair: if no parent has delivered
	// anything for this long while keep-alive piggybacks show neighbors
	// advancing, the node's feed is broken (typically a structure cycle
	// formed by racing parent switches — it carries no data, so the exact
	// path check can never observe it) and the parents are dropped and
	// replaced. Safety net beyond the paper; see DESIGN.md.
	stallTimeout = 3 * time.Second
	// switchMargin is the hysteresis for strategy-driven parent switches:
	// a duplicate's sender replaces an incumbent parent only if its score
	// improves on the incumbent's by this relative margin. Dampens the
	// mutual-adoption races that symmetric metrics (RTT) provoke.
	switchMargin = 0.15
	// readoptCooldown is how long a peer dropped by cycle detection or
	// stall repair stays barred from proactive re-adoption.
	readoptCooldown = 5 * time.Second
	// gracePeriod is the make-before-break window for strategy-driven
	// parent switches: the displaced parent's inbound link stays active
	// this long so a bad switch (e.g., into the node's own subtree) can
	// be detected by the path check and reverted without data loss.
	gracePeriod = 1500 * time.Millisecond
)

// PSS is the view core needs from the peer sampling service.
type PSS interface {
	// Active returns the current active view (connected neighbors).
	Active() []ids.NodeID
	// ActiveContains reports whether peer is a connected neighbor.
	ActiveContains(peer ids.NodeID) bool
	// RTT returns the last measured round-trip time to an active
	// neighbor, or 0 if unknown.
	RTT(peer ids.NodeID) time.Duration
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Parents <= 0 || c.Mode == ModeTree {
		c.Parents = 1
	}
	if c.Mode == ModeFlood {
		c.Parents = 0
	}
	if c.Strategy == nil {
		c.Strategy = FirstCome{}
	}
	if c.MaxBlobs <= 0 {
		c.MaxBlobs = 8
	}
	if c.BlobWantRetry <= 0 {
		c.BlobWantRetry = time.Second
	}
	return c
}

// EventType classifies protocol events.
type EventType int

// Event types emitted through Protocol.Events.
const (
	// EvDeliver: a new message was delivered (Seq set).
	EvDeliver EventType = iota
	// EvDuplicate: a duplicate reception (Seq, Peer set).
	EvDuplicate
	// EvParentAdopt: Peer became a parent.
	EvParentAdopt
	// EvParentLost: Peer stopped being a parent (failure or replacement).
	EvParentLost
	// EvOrphan: the node lost all parents.
	EvOrphan
	// EvSoftRepair: an orphan found a replacement in its active view
	// (Peer = new parent).
	EvSoftRepair
	// EvHardRepair: no replacement existed; flooding fallback engaged.
	EvHardRepair
	// EvRepaired: first delivery after an orphan event (Dur = recovery
	// delay from orphan detection to restored flow).
	EvRepaired
	// EvCycleDetected: a message from a parent contained the node in its
	// path (§II-D, continuous detection).
	EvCycleDetected
	// EvConstructionDone: all inbound links except the target number of
	// parents are deactivated (Dur = time since the first deactivation
	// was sent; the paper's Figure 13 metric).
	EvConstructionDone
	// EvDepthChange: the node's DAG depth label changed (Seq = new depth).
	EvDepthChange
	// EvStallRepair: the node's parents stopped delivering while
	// neighbors advanced; the feed was rebuilt.
	EvStallRepair
	// EvBlobDeliver: a blob was fully reconstructed (Seq = blob id, Dur =
	// time from the first chunk reception to reconstruction).
	EvBlobDeliver
	// EvBlobDropped: an incomplete blob was evicted by the MaxBlobs bound
	// (Seq = blob id).
	EvBlobDropped
	// EvMsgDropped: the network dropped an inbound message at this node's
	// full receive buffer (simulated fault injection; the protocol never
	// saw the message — recovery paths must cover the hole). Emitted by
	// the runtime harness, not by core itself: only the network knows what
	// it dropped.
	EvMsgDropped
)

// Event is one structural protocol event.
type Event struct {
	Type   EventType
	Stream wire.StreamID
	Seq    uint32
	Peer   ids.NodeID
	At     time.Time
	Dur    time.Duration
	Hard   bool // for EvRepaired: recovery followed a hard repair
}

// Metrics counts protocol activity. All counters are cumulative.
type Metrics struct {
	Delivered         uint64
	Duplicates        uint64
	DeactivationsSent uint64
	ReactivationsSent uint64
	ParentsLost       uint64
	Orphans           uint64
	SoftRepairs       uint64
	HardRepairs       uint64
	FloodRepairOrders uint64
	Retransmissions   uint64
	CycleDetections   uint64
	RecoveryRequests  uint64
	StallRepairs      uint64
	BlobChunks        uint64 // new chunk receptions
	BlobChunkDups     uint64 // duplicate chunk receptions
	BlobsDelivered    uint64 // blobs fully reconstructed (receivers only)
	BlobsDropped      uint64 // incomplete blobs evicted by MaxBlobs
	BlobWantsSent     uint64 // pull-repair requests issued
}

// Kinds returns the wire kinds owned by the BRISA protocol, for Mux
// registration.
func Kinds() []wire.Kind {
	return []wire.Kind{
		wire.KindData, wire.KindDeactivate, wire.KindReactivate,
		wire.KindFloodRepair, wire.KindDepthUpdate, wire.KindMsgRequest,
		wire.KindBlobChunk, wire.KindBlobHave, wire.KindBlobWant,
	}
}
