// Package simpletree implements the paper's efficiency-end baseline
// (§III-D(b)): a tree built with the help of a centralized node. A joiner
// asks the coordinator for a parent; the coordinator picks any node that
// joined earlier, which makes the tree acyclic by construction (the same
// argument TAG uses). Messages are pushed straight down tree links, which
// minimizes latency. The baseline has no repair story: the paper notes
// "SimpleTree does not consider dynamic scenarios".
package simpletree

import (
	"time"

	"repro/internal/baselines/kit"
	"repro/internal/ids"
	"repro/internal/node"
	"repro/internal/wire"
)

// Peer is one SimpleTree node. The peer hosting Coordinator() additionally
// assigns parents.
type Peer struct {
	kit.Base
	coord ids.NodeID // the coordinator's id
	// Coordinator state (only used on the coordinator itself).
	isCoord bool
	joined  []ids.NodeID

	parent   ids.NodeID
	children *ids.Set
	asked    bool // a join request went out
}

// New builds a peer. coord names the coordinator node; the peer whose own
// id equals coord acts as coordinator and tree root.
func New(self, coord ids.NodeID) *Peer {
	return &Peer{
		coord:    coord,
		isCoord:  self == coord,
		children: ids.NewSet(),
	}
}

// Handler returns the actor to register with a runtime.
func (p *Peer) Handler() *node.Mux {
	mux := node.NewMux()
	mux.Register(p, wire.KindCoordJoin, wire.KindCoordAssign, wire.KindTreeData)
	return mux
}

// Parent returns the peer's tree parent (Nil for the root, and for a node
// whose parent died).
func (p *Peer) Parent() ids.NodeID { return p.parent }

// Parents returns the tree parent as the harness's per-stream parent list;
// the one tree carries every stream.
func (p *Peer) Parents(wire.StreamID) []ids.NodeID { return kit.ParentList(p.parent) }

// IsOrphan reports whether the peer has no place in the tree: not yet
// assigned, or cut off for good by its parent's death.
func (p *Peer) IsOrphan(wire.StreamID) bool { return !p.isCoord && p.parent == ids.Nil }

// ConstructionTime is not measured: the coordinator hands out positions.
func (p *Peer) ConstructionTime(wire.StreamID) (time.Duration, bool) { return 0, false }

// Children returns the peer's children, ascending.
func (p *Peer) Children() []ids.NodeID { return p.children.Snapshot() }

// Start implements node.Proto.
func (p *Peer) Start(env node.Env) {
	p.Env = env
	if p.isCoord {
		p.joined = append(p.joined, env.ID())
	}
}

// Join asks the coordinator for a parent assignment, once: the coordinator
// is the only way in, so the harness's contact is not used and a repeated
// call (its bootstrap retry) changes nothing.
func (p *Peer) Join(ids.NodeID) {
	if p.isCoord || p.asked {
		return
	}
	p.asked = true
	p.SendTo(p.coord, wire.CoordJoin{})
}

// Publish pushes the next message of a stream down the tree (root only in
// the paper's experiments, but any attached node can source a stream).
func (p *Peer) Publish(id wire.StreamID, payload []byte) uint32 {
	seq := p.Originate(p.Stream(id), payload)
	p.relay(ids.Nil, wire.TreeData{Stream: id, Seq: seq, Payload: payload})
	return seq
}

func (p *Peer) relay(except ids.NodeID, m wire.TreeData) {
	for _, c := range p.children.Snapshot() {
		if c != except {
			p.Env.Send(c, m)
		}
	}
}

// Receive implements node.Proto.
func (p *Peer) Receive(from ids.NodeID, m wire.Message) {
	switch msg := m.(type) {
	case wire.CoordJoin:
		p.onJoinRequest(from)
	case wire.CoordAssign:
		p.onAssign(msg)
	case wire.TreeData:
		if p.Deliver(p.Stream(msg.Stream), from, msg.Seq, msg.Payload) {
			p.relay(from, msg)
		}
	}
}

// onJoinRequest runs on the coordinator (join request) and on parents
// (attach notification): the two cases are distinguished by role, keeping
// the wire format minimal.
func (p *Peer) onJoinRequest(from ids.NodeID) {
	if p.isCoord {
		// Assign a random previously joined node; the joiner then attaches
		// to it directly.
		parent := p.joined[p.Env.Rand().Intn(len(p.joined))]
		p.joined = append(p.joined, from)
		if parent == p.Env.ID() {
			// Shortcut: the joiner is our own child.
			p.children.Add(from)
		}
		p.SendTo(from, wire.CoordAssign{Parent: parent})
		return
	}
	// Attach notification from a new child.
	p.children.Add(from)
}

func (p *Peer) onAssign(m wire.CoordAssign) {
	p.parent = m.Parent
	if m.Parent != p.coord {
		p.SendTo(m.Parent, wire.CoordJoin{}) // attach to the parent
	}
}

// ConnDown implements node.Proto.
func (p *Peer) ConnDown(peer ids.NodeID, err error) {
	p.Base.ConnDown(peer, err)
	p.children.Remove(peer) // no repair: SimpleTree ignores dynamism
	if peer == p.parent {
		p.parent = ids.Nil
	}
}
