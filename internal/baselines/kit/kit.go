// Package kit is what the three §III-D baselines (simpletree, simplegossip,
// tag) have in common, written once: the per-stream delivery window, the
// dial-then-send outbox, and the delivery and event listeners through which
// the scenario harness measures a baseline exactly as it measures BRISA —
// same Event types, same counters, the node's own clock.
package kit

import (
	"cmp"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/node"
	"repro/internal/wire"
)

// Stream is one stream's delivery record at one peer: every sequence in
// [Base, UpTo) plus the out-of-order set above UpTo.
type Stream struct {
	ID      wire.StreamID
	Started bool
	Base    uint32
	UpTo    uint32
	sparse  map[uint32]struct{}
	// payloads holds every delivered payload (Base.Buffer): pull replies and
	// anti-entropy must be able to serve any sequence.
	payloads map[uint32][]byte
	next     uint32 // publisher side: the last sequence assigned
}

// StartAt pins the window's base before the first delivery. A window that
// was never pinned starts at the first sequence it sees.
func (s *Stream) StartAt(seq uint32) {
	if !s.Started {
		s.Started, s.Base, s.UpTo = true, seq, seq
	}
}

// Delivered reports whether seq was delivered (or predates the window).
func (s *Stream) Delivered(seq uint32) bool {
	if !s.Started {
		return false
	}
	if seq < s.UpTo {
		return true
	}
	_, ok := s.sparse[seq]
	return ok
}

func (s *Stream) mark(seq uint32, payload []byte) {
	s.StartAt(seq)
	s.sparse[seq] = struct{}{}
	if s.payloads != nil {
		s.payloads[seq] = payload
	}
	for {
		if _, ok := s.sparse[s.UpTo]; !ok {
			break
		}
		delete(s.sparse, s.UpTo)
		s.UpTo++
	}
}

// Count returns how many distinct sequences were delivered.
func (s *Stream) Count() uint64 {
	if !s.Started {
		return 0
	}
	return uint64(s.UpTo-s.Base) + uint64(len(s.sparse))
}

// Gaps reports whether deliveries above UpTo imply holes below them.
func (s *Stream) Gaps() bool { return len(s.sparse) > 0 }

// Missing lists up to limit holes between UpTo and the highest out-of-order
// delivery, ascending.
func (s *Stream) Missing(limit int) []uint32 {
	var hi uint32
	//brisa:orderinvariant a maximum over the keys is the same in every order
	for seq := range s.sparse {
		if seq > hi {
			hi = seq
		}
	}
	out := make([]uint32, 0, 8)
	for seq := s.UpTo; seq < hi && len(out) < limit; seq++ {
		if _, ok := s.sparse[seq]; !ok {
			out = append(out, seq)
		}
	}
	return out
}

// Payload returns a buffered payload.
func (s *Stream) Payload(seq uint32) ([]byte, bool) {
	p, ok := s.payloads[seq]
	return p, ok
}

type queued struct {
	to ids.NodeID
	m  wire.Message
}

// Base is the part of a baseline peer the three protocols share; each embeds
// it. Everything runs on the node's actor except registration with the
// listener registries, which is safe from any goroutine.
type Base struct {
	node.BaseProto
	// Env is the node's runtime; the embedding protocol's Start sets it.
	Env node.Env
	// Buffer makes every stream keep its payloads.
	Buffer bool
	// M counts protocol activity in BRISA's terms, so churn and repair folds
	// read a baseline like any other system.
	M core.Metrics

	streams    []*Stream // ascending by ID
	outbox     []queued
	deliveries node.Listeners[core.Delivery]
	events     node.Listeners[core.Event]
}

// Now returns the node's own clock.
func (b *Base) Now() time.Time { return b.Env.Now() }

// Metrics returns the counters.
func (b *Base) Metrics() core.Metrics { return b.M }

// Streams returns the streams the peer has state for, ascending by id.
func (b *Base) Streams() []*Stream { return b.streams }

// Stream returns the state of one stream, creating it on first use.
func (b *Base) Stream(id wire.StreamID) *Stream {
	i, ok := slices.BinarySearchFunc(b.streams, id, func(s *Stream, id wire.StreamID) int {
		return cmp.Compare(s.ID, id)
	})
	if ok {
		return b.streams[i]
	}
	s := &Stream{ID: id, sparse: make(map[uint32]struct{})}
	if b.Buffer {
		s.payloads = make(map[uint32][]byte)
	}
	b.streams = slices.Insert(b.streams, i, s)
	return s
}

// DeliveredCount returns how many distinct messages of the stream were
// delivered.
func (b *Base) DeliveredCount(id wire.StreamID) uint64 {
	for _, s := range b.streams {
		if s.ID == id {
			return s.Count()
		}
	}
	return 0
}

// Originate assigns the next sequence number of a stream this peer sources
// and delivers the message locally.
func (b *Base) Originate(s *Stream, payload []byte) uint32 {
	s.next++
	b.Deliver(s, ids.Nil, s.next, payload)
	return s.next
}

// Deliver records a reception. A first reception is counted, hands the
// payload to the delivery listeners and reports true; a repeat is counted,
// emitted as EvDuplicate and reports false.
func (b *Base) Deliver(s *Stream, from ids.NodeID, seq uint32, payload []byte) bool {
	if s.Delivered(seq) {
		b.M.Duplicates++
		b.Emit(core.Event{Type: core.EvDuplicate, Stream: s.ID, Seq: seq, Peer: from})
		return false
	}
	s.mark(seq, payload)
	b.M.Delivered++
	b.deliveries.Emit(core.Delivery{Stream: s.ID, Seq: seq, From: from, Payload: payload})
	return true
}

// Emit stamps an event with the node's clock and hands it to the listeners.
func (b *Base) Emit(ev core.Event) {
	if b.events.Empty() {
		return
	}
	ev.At = b.Env.Now()
	b.events.Emit(ev)
}

// Deliveries is the registry of delivery listeners: every first reception
// of every stream, local publishes included (From is ids.Nil for those).
func (b *Base) Deliveries() *node.Listeners[core.Delivery] { return &b.deliveries }

// Events is the registry of event listeners.
func (b *Base) Events() *node.Listeners[core.Event] { return &b.events }

// ParentList is a single-parent tree's answer to the harness's per-stream
// parent question: the parent, or nothing while there is none.
func ParentList(parent ids.NodeID) []ids.NodeID {
	if parent == ids.Nil {
		return nil
	}
	return []ids.NodeID{parent}
}

// SendTo sends over an existing connection, or dials and sends once the
// connection is up.
func (b *Base) SendTo(to ids.NodeID, m wire.Message) {
	if to == b.Env.ID() || to == ids.Nil {
		return
	}
	if b.Env.Connected(to) {
		b.Env.Send(to, m)
		return
	}
	b.outbox = append(b.outbox, queued{to: to, m: m})
	b.Env.Connect(to)
}

// ConnUp implements node.Proto: it flushes what was queued for the peer.
func (b *Base) ConnUp(peer ids.NodeID) {
	kept := b.outbox[:0]
	for _, q := range b.outbox {
		if q.to == peer {
			b.Env.Send(peer, q.m)
		} else {
			kept = append(kept, q)
		}
	}
	b.outbox = kept
}

// ConnDown implements node.Proto: it drops what was queued for the peer.
func (b *Base) ConnDown(peer ids.NodeID, _ error) {
	b.outbox = slices.DeleteFunc(b.outbox, func(q queued) bool { return q.to == peer })
}
