package wire

import "repro/internal/ids"

// HyParView messages (Leitão et al., DSN 2007), as used by the BRISA paper's
// PSS layer (§II-A).

// Join is sent by a new node to its contact point.
type Join struct{}

// Kind implements Message.
func (Join) Kind() Kind { return KindJoin }

// AppendTo implements Message.
func (Join) AppendTo(b []byte) []byte { return b }

// WireSize implements Message.
func (Join) WireSize() int { return 1 }

// ForwardJoin propagates a join through the overlay as a random walk.
type ForwardJoin struct {
	Joiner ids.NodeID
	TTL    uint8
}

// Kind implements Message.
func (ForwardJoin) Kind() Kind { return KindForwardJoin }

// AppendTo implements Message.
func (m ForwardJoin) AppendTo(b []byte) []byte {
	e := Encoder{B: b}
	e.NodeID(m.Joiner)
	e.U8(m.TTL)
	return e.B
}

// WireSize implements Message.
func (ForwardJoin) WireSize() int { return 1 + szID + szU8 }

// Disconnect tells a peer it has been evicted from the sender's active view.
type Disconnect struct{}

// Kind implements Message.
func (Disconnect) Kind() Kind { return KindDisconnect }

// AppendTo implements Message.
func (Disconnect) AppendTo(b []byte) []byte { return b }

// WireSize implements Message.
func (Disconnect) WireSize() int { return 1 }

// NeighborRequest asks a peer (drawn from the passive view) to become an
// active-view neighbor. Priority is set when the requester's active view is
// empty; prioritized requests must be accepted.
type NeighborRequest struct {
	Priority bool
}

// Kind implements Message.
func (NeighborRequest) Kind() Kind { return KindNeighborRequest }

// AppendTo implements Message.
func (m NeighborRequest) AppendTo(b []byte) []byte {
	e := Encoder{B: b}
	e.Bool(m.Priority)
	return e.B
}

// WireSize implements Message.
func (NeighborRequest) WireSize() int { return 1 + szBool }

// NeighborReply answers a NeighborRequest.
type NeighborReply struct {
	Accept bool
}

// Kind implements Message.
func (NeighborReply) Kind() Kind { return KindNeighborReply }

// AppendTo implements Message.
func (m NeighborReply) AppendTo(b []byte) []byte {
	e := Encoder{B: b}
	e.Bool(m.Accept)
	return e.B
}

// WireSize implements Message.
func (NeighborReply) WireSize() int { return 1 + szBool }

// Shuffle carries a sample of the origin's views on a random walk; the
// terminal node answers the origin directly with a ShuffleReply.
type Shuffle struct {
	Origin ids.NodeID
	TTL    uint8
	Nodes  []ids.NodeID
}

// Kind implements Message.
func (Shuffle) Kind() Kind { return KindShuffle }

// AppendTo implements Message.
func (m Shuffle) AppendTo(b []byte) []byte {
	e := Encoder{B: b}
	e.NodeID(m.Origin)
	e.U8(m.TTL)
	e.NodeIDs(m.Nodes)
	return e.B
}

// WireSize implements Message.
func (m Shuffle) WireSize() int { return 1 + szID + szU8 + szNodeIDs(m.Nodes) }

// ShuffleReply returns a passive-view sample to the shuffle origin.
type ShuffleReply struct {
	Nodes []ids.NodeID
}

// Kind implements Message.
func (ShuffleReply) Kind() Kind { return KindShuffleReply }

// AppendTo implements Message.
func (m ShuffleReply) AppendTo(b []byte) []byte {
	e := Encoder{B: b}
	e.NodeIDs(m.Nodes)
	return e.B
}

// WireSize implements Message.
func (m ShuffleReply) WireSize() int { return 1 + szNodeIDs(m.Nodes) }

// KeepAlive is the periodic heartbeat on active-view connections. It is
// one-way: nobody answers it. The active view is symmetric, so every link
// carries one heartbeat each way per period, and the round trip is closed
// by echo, as TCP's timestamp option does. SentAt is the sender's clock
// (nanoseconds). Echo is the receiver's own clock handed back: the SentAt
// of the last heartbeat the sender heard from the receiver plus how long
// the sender held it, so the receiver's now − Echo is the round-trip time.
// Echo is 0 when the sender heard nothing new since its last heartbeat.
// The paper's delay-aware parent selection leverages exactly these probes
// (§II-E), and §II-F piggybacks parent-selection state on them — the opaque
// Piggyback field carries that upper-layer state.
//
// A KeepAlive arrives in either form: the sender's round sends *KeepAlive
// (one slab per round, not one box per neighbour), which the simulator
// delivers as sent, while the decoders return the value. Receivers accept
// both; the pointer frames and sizes exactly as the value.
type KeepAlive struct {
	SentAt    int64
	Echo      int64
	Piggyback []byte
}

// Kind implements Message.
func (KeepAlive) Kind() Kind { return KindKeepAlive }

// AppendTo implements Message.
func (m KeepAlive) AppendTo(b []byte) []byte {
	e := Encoder{B: b}
	e.I64(m.SentAt)
	e.I64(m.Echo)
	e.Bytes(m.Piggyback)
	return e.B
}

// WireSize implements Message.
func (m KeepAlive) WireSize() int { return 1 + 2*szI64 + szBytes(m.Piggyback) }

func init() {
	register(KindJoin, func(body []byte) (Message, error) {
		d := Decoder{B: body}
		return Join{}, d.Finish()
	})
	register(KindForwardJoin, func(body []byte) (Message, error) {
		d := Decoder{B: body}
		m := ForwardJoin{Joiner: d.NodeID(), TTL: d.U8()}
		return m, d.Finish()
	})
	register(KindDisconnect, func(body []byte) (Message, error) {
		d := Decoder{B: body}
		return Disconnect{}, d.Finish()
	})
	register(KindNeighborRequest, func(body []byte) (Message, error) {
		d := Decoder{B: body}
		m := NeighborRequest{Priority: d.Bool()}
		return m, d.Finish()
	})
	register(KindNeighborReply, func(body []byte) (Message, error) {
		d := Decoder{B: body}
		m := NeighborReply{Accept: d.Bool()}
		return m, d.Finish()
	})
	register(KindShuffle, func(body []byte) (Message, error) {
		d := Decoder{B: body}
		m := Shuffle{Origin: d.NodeID(), TTL: d.U8(), Nodes: d.NodeIDs()}
		return m, d.Finish()
	})
	register(KindShuffleReply, func(body []byte) (Message, error) {
		d := Decoder{B: body}
		m := ShuffleReply{Nodes: d.NodeIDs()}
		return m, d.Finish()
	})
	register(KindKeepAlive, func(body []byte) (Message, error) {
		d := Decoder{B: body}
		m := KeepAlive{SentAt: d.I64(), Echo: d.I64(), Piggyback: cloneBytes(d.Bytes())}
		return m, d.Finish()
	})
}

// cloneBytes copies a decoded byte field so messages do not alias transport
// buffers that may be reused.
func cloneBytes(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}
