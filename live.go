package brisa

import (
	"fmt"
	"time"

	"repro/internal/livenet"
)

// Node is one live BRISA peer bound to a real TCP address. Its identifier is
// the paper's 48-bit ip:port pair derived from the bound address, so a
// NodeID is dialable and no external address book is needed.
//
// All protocol state lives on the node's single actor goroutine, exactly as
// on the simulator. The Node methods are safe to call from any goroutine:
// state accessors run on the actor and return copies.
type Node struct {
	ln   *livenet.Node
	peer *Peer
}

// Listen binds addr (e.g. "127.0.0.1:0" or "10.0.0.1:7001"), derives the
// node's identifier from the bound address, assembles a peer with the given
// configuration, and starts the runtime. The returned node is live: it
// accepts connections and disseminates until Close.
func Listen(addr string, cfg Config) (*Node, error) {
	if baseline(cfg.Mode) {
		return nil, fmt.Errorf("brisa: Mode %v runs on the simulator only", cfg.Mode)
	}
	ln, err := livenet.Listen(livenet.Config{Listen: addr})
	if err != nil {
		return nil, err
	}
	peer, err := NewPeer(ln.ID(), cfg)
	if err != nil {
		ln.Stop()
		return nil, err
	}
	if err := ln.Run(peer.Handler()); err != nil {
		ln.Stop()
		return nil, err
	}
	return &Node{ln: ln, peer: peer}, nil
}

// ID returns the node's identifier (its bound ip:port).
func (n *Node) ID() NodeID { return n.ln.ID() }

// Addr returns the bound listen address, e.g. "127.0.0.1:7001".
func (n *Node) Addr() string { return n.ln.Addr() }

// Peer returns the underlying protocol stack. Peer methods touch actor
// state; on a live node call them through Do to avoid racing the runtime.
func (n *Node) Peer() *Peer { return n.peer }

// Do runs fn on the node's actor goroutine and waits for it — the safe way
// to use Peer methods not mirrored on Node. After Close, Do returns without
// guaranteeing fn ran.
func (n *Node) Do(fn func(p *Peer)) {
	n.ln.Call(func() { fn(n.peer) })
}

// Join bootstraps the node into an existing overlay through one or more
// members listening on the given "ip:port" addresses. It runs the shared
// bootstrap retry policy: try a contact, wait briefly for the overlay to
// accept the node, move to the next, cycling through the contacts up to a
// bounded number of attempts. It returns nil as soon as the node holds an
// active neighbor, or an error when every attempt failed, any address is
// invalid, or the node was closed.
func (n *Node) Join(contacts ...string) error {
	if len(contacts) == 0 {
		return fmt.Errorf("brisa: Join needs at least one contact")
	}
	cands := make([]NodeID, 0, len(contacts))
	for _, addr := range contacts {
		contact, err := ParseNodeID(addr)
		if err != nil {
			return err
		}
		if contact == n.ID() {
			continue // joining through self is a no-op, skip it
		}
		cands = append(cands, contact)
	}
	if len(cands) == 0 {
		return fmt.Errorf("brisa: cannot join through self (%v)", n.ID())
	}

	joined := func() bool {
		var ok bool
		n.Do(func(p *Peer) { ok = len(p.Neighbors()) > 0 })
		return ok
	}
	pol := liveJoinPolicy
	for attempt := 0; attempt < pol.Attempts; attempt++ {
		if n.ln.Stopped() {
			return fmt.Errorf("brisa: Join on a closed node")
		}
		contact := cands[attempt%len(cands)]
		n.Do(func(p *Peer) { p.Join(contact) })
		deadline := time.Now().Add(pol.Wait)
		for time.Now().Before(deadline) {
			if joined() {
				return nil
			}
			time.Sleep(liveJoinPoll)
		}
	}
	if joined() {
		return nil
	}
	return fmt.Errorf("brisa: join via %v failed after %d attempts", contacts, pol.Attempts)
}

// Publish injects the next message of a stream this node sources and
// returns its sequence number.
func (n *Node) Publish(stream StreamID, payload []byte) uint32 {
	var seq uint32
	n.ln.Call(func() { seq = n.peer.Publish(stream, payload) })
	return seq
}

// PublishBlob splits a large payload into chunks and disseminates it over
// the stream's emerged structure (see Peer.PublishBlob). Returns the
// per-stream blob id.
func (n *Node) PublishBlob(stream StreamID, data []byte, opts BlobOptions) (uint32, error) {
	var (
		id  uint32
		err error
	)
	n.Do(func(p *Peer) { id, err = p.PublishBlob(stream, data, opts) })
	return id, err
}

// SubscribeBlobs registers for every blob the node completes on the stream,
// local PublishBlob calls included.
func (n *Node) SubscribeBlobs(stream StreamID) *BlobSubscription {
	return n.peer.SubscribeBlobs(stream)
}

// BlobsDelivered returns how many blobs of the stream the node holds intact.
func (n *Node) BlobsDelivered(stream StreamID) uint64 {
	var out uint64
	n.Do(func(p *Peer) { out = p.BlobsDelivered(stream) })
	return out
}

// BlobStats returns the node's per-stream blob dissemination counters.
func (n *Node) BlobStats(stream StreamID) BlobStats {
	var out BlobStats
	n.Do(func(p *Peer) { out = p.BlobStats(stream) })
	return out
}

// Subscribe registers for every future delivery of the stream on this node,
// local publishes included.
func (n *Node) Subscribe(stream StreamID) *Subscription {
	return n.peer.Subscribe(stream)
}

// SubscribeOpts is Subscribe with a bounded delivery queue (see
// Peer.SubscribeOpts). Note that the Block policy stalls this node's actor
// goroutine while the consumer lags.
func (n *Node) SubscribeOpts(stream StreamID, opts SubOptions) *Subscription {
	return n.peer.SubscribeOpts(stream, opts)
}

// Neighbors returns the node's current HyParView active view.
func (n *Node) Neighbors() []NodeID {
	var out []NodeID
	n.Do(func(p *Peer) { out = p.Neighbors() })
	return out
}

// Parents returns the node's current parents for a stream.
func (n *Node) Parents(stream StreamID) []NodeID {
	var out []NodeID
	n.Do(func(p *Peer) { out = p.Parents(stream) })
	return out
}

// Children returns the neighbors the node currently relays a stream to.
func (n *Node) Children(stream StreamID) []NodeID {
	var out []NodeID
	n.Do(func(p *Peer) { out = p.Children(stream) })
	return out
}

// DeliveredCount returns how many distinct messages of the stream the node
// has delivered.
func (n *Node) DeliveredCount(stream StreamID) uint64 {
	var out uint64
	n.Do(func(p *Peer) { out = p.DeliveredCount(stream) })
	return out
}

// Metrics returns the BRISA protocol counters.
func (n *Node) Metrics() Metrics {
	var out Metrics
	n.Do(func(p *Peer) { out = p.Metrics() })
	return out
}

// WireTraffic counts framed protocol messages and wire bytes over a live
// node or one of its connections — the traffic tap behind ProbeTraffic on
// the live runtime.
type WireTraffic = livenet.Traffic

// Traffic returns the node's cumulative wire counters, summed over every
// connection it ever held. Safe from any goroutine; unlike the Peer
// accessors it does not touch actor state, so it also works after Close.
func (n *Node) Traffic() WireTraffic { return n.ln.Traffic() }

// ConnTraffic returns the per-connection wire counters of the node's
// currently open connections, keyed by remote node.
func (n *Node) ConnTraffic() map[NodeID]WireTraffic { return n.ln.ConnTraffic() }

// Close shuts the node down: every subscription is cancelled, the protocol
// stack stops on the actor, and all connections and the listener close.
// Subscriptions go first — a Block-policy subscription whose consumer
// stalled may be holding the actor inside push, and only cancellation
// releases it so the runtime can stop. Close is idempotent.
func (n *Node) Close() error {
	n.peer.closers.Emit(struct{}{})
	n.ln.Stop()
	return nil
}
