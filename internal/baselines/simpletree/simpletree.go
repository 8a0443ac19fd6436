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

	"repro/internal/ids"
	"repro/internal/node"
	"repro/internal/wire"
)

// Metrics counts per-peer activity.
type Metrics struct {
	Delivered  uint64
	Duplicates uint64
	Relayed    uint64
}

// Peer is one SimpleTree node. The peer hosting Coordinator() additionally
// assigns parents.
type Peer struct {
	node.BaseProto
	env   node.Env
	coord ids.NodeID // the coordinator's id
	// Coordinator state (only used on the coordinator itself).
	isCoord bool
	joined  []ids.NodeID

	parent    ids.NodeID
	children  *ids.Set
	attached  bool
	outbox    []queued
	streams   map[wire.StreamID]*streamState
	metrics   Metrics
	onDeliver func(stream wire.StreamID, seq uint32, payload []byte)
}

type queued struct {
	to ids.NodeID
	m  wire.Message
}

type streamState struct {
	started    bool
	base       uint32
	contigUpTo uint32
	sparse     map[uint32]struct{}
	nextSeq    uint32
}

// New builds a peer. coord names the coordinator node; the peer whose own
// id equals coord acts as coordinator and tree root.
func New(self, coord ids.NodeID, onDeliver func(wire.StreamID, uint32, []byte)) *Peer {
	return &Peer{
		coord:     coord,
		isCoord:   self == coord,
		children:  ids.NewSet(),
		streams:   make(map[wire.StreamID]*streamState),
		onDeliver: onDeliver,
	}
}

// Now returns the node's own clock — the one instrumentation callbacks must
// read: under the sharded simulator the network-level clock is only valid at
// barriers.
func (p *Peer) Now() time.Time { return p.env.Now() }

// Handler returns the actor to register with a runtime.
func (p *Peer) Handler() node.Handler {
	mux := node.NewMux()
	mux.Register(p, wire.KindCoordJoin, wire.KindCoordAssign, wire.KindTreeData)
	return mux
}

// Metrics returns the peer's counters.
func (p *Peer) Metrics() Metrics { return p.metrics }

// Parent returns the peer's tree parent (Nil for the root).
func (p *Peer) Parent() ids.NodeID { return p.parent }

// Children returns the peer's children, ascending.
func (p *Peer) Children() []ids.NodeID { return p.children.Snapshot() }

// DeliveredCount returns how many distinct messages were delivered.
func (p *Peer) DeliveredCount(stream wire.StreamID) uint64 {
	st, ok := p.streams[stream]
	if !ok || !st.started {
		return 0
	}
	return uint64(st.contigUpTo-st.base) + uint64(len(st.sparse))
}

// Start implements node.Proto.
func (p *Peer) Start(env node.Env) {
	p.env = env
	if p.isCoord {
		p.attached = true
		p.joined = append(p.joined, env.ID())
	}
}

// Join asks the coordinator for a parent assignment.
func (p *Peer) Join() {
	if p.isCoord {
		return
	}
	p.sendTo(p.coord, wire.CoordJoin{})
}

func (p *Peer) stream(id wire.StreamID) *streamState {
	st, ok := p.streams[id]
	if !ok {
		st = &streamState{sparse: make(map[uint32]struct{})}
		p.streams[id] = st
	}
	return st
}

func (st *streamState) delivered(seq uint32) bool {
	if !st.started {
		return false
	}
	if seq < st.base || seq < st.contigUpTo {
		return true
	}
	_, ok := st.sparse[seq]
	return ok
}

func (st *streamState) mark(seq uint32) {
	if !st.started {
		st.started = true
		st.base = seq
		st.contigUpTo = seq
	}
	st.sparse[seq] = struct{}{}
	for {
		if _, ok := st.sparse[st.contigUpTo]; !ok {
			break
		}
		delete(st.sparse, st.contigUpTo)
		st.contigUpTo++
	}
}

// Publish pushes the next message of a stream down the tree (root only in
// the paper's experiments, but any attached node can source a stream).
func (p *Peer) Publish(id wire.StreamID, payload []byte) uint32 {
	st := p.stream(id)
	if st.nextSeq == 0 {
		st.nextSeq = 1
	}
	seq := st.nextSeq
	st.nextSeq++
	st.mark(seq)
	p.metrics.Delivered++
	p.relay(ids.Nil, wire.TreeData{Stream: id, Seq: seq, Payload: payload})
	return seq
}

func (p *Peer) relay(except ids.NodeID, m wire.TreeData) {
	for _, c := range p.children.Snapshot() {
		if c != except {
			p.env.Send(c, m)
			p.metrics.Relayed++
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
		p.onData(from, msg)
	}
}

// onJoinRequest runs on the coordinator (join request) and on parents
// (attach notification): the two cases are distinguished by role, keeping
// the wire format minimal.
func (p *Peer) onJoinRequest(from ids.NodeID) {
	if p.isCoord {
		// Assign a random previously joined node; the joiner then attaches
		// to it directly.
		parent := p.joined[p.env.Rand().Intn(len(p.joined))]
		p.joined = append(p.joined, from)
		if parent == p.env.ID() {
			// Shortcut: the joiner is our own child.
			p.children.Add(from)
			p.sendTo(from, wire.CoordAssign{Parent: p.env.ID()})
			return
		}
		p.sendTo(from, wire.CoordAssign{Parent: parent})
		return
	}
	// Attach notification from a new child.
	p.children.Add(from)
}

func (p *Peer) onAssign(m wire.CoordAssign) {
	p.parent = m.Parent
	p.attached = true
	if m.Parent != p.coord {
		p.sendTo(m.Parent, wire.CoordJoin{}) // attach to the parent
	}
}

func (p *Peer) onData(from ids.NodeID, m wire.TreeData) {
	st := p.stream(m.Stream)
	if st.delivered(m.Seq) {
		p.metrics.Duplicates++
		return
	}
	st.mark(m.Seq)
	p.metrics.Delivered++
	if p.onDeliver != nil {
		p.onDeliver(m.Stream, m.Seq, m.Payload)
	}
	p.relay(from, m)
}

func (p *Peer) sendTo(to ids.NodeID, m wire.Message) {
	if p.env.Connected(to) {
		p.env.Send(to, m)
		return
	}
	p.outbox = append(p.outbox, queued{to: to, m: m})
	p.env.Connect(to)
}

// ConnUp implements node.Proto.
func (p *Peer) ConnUp(peer ids.NodeID) {
	kept := p.outbox[:0]
	for _, q := range p.outbox {
		if q.to == peer {
			p.env.Send(peer, q.m)
		} else {
			kept = append(kept, q)
		}
	}
	p.outbox = kept
}

// ConnDown implements node.Proto.
func (p *Peer) ConnDown(peer ids.NodeID, err error) {
	kept := p.outbox[:0]
	for _, q := range p.outbox {
		if q.to != peer {
			kept = append(kept, q)
		}
	}
	p.outbox = kept
	p.children.Remove(peer) // no repair: SimpleTree ignores dynamism
}
