package wire

import "repro/internal/ids"

// BRISA messages (§II of the paper).

// StreamID names one dissemination stream (one source). The paper focuses on
// a single stream but the protocol state is per stream, so the identifier is
// explicit on the wire.
type StreamID uint32

// NoDepth marks an undefined DAG depth (a node that has not yet received the
// stream). Encoded depth 0xFFFF.
const NoDepth uint16 = 0xFFFF

// Data carries one stream message. Exactly one of the two cycle-prevention
// fields is meaningful depending on the structure mode:
//   - tree mode: Path is the list of node identifiers the message traversed
//     from the source (path embedding, §II-D);
//   - DAG mode: Depth is the sender's depth label (§II-G) and Path stays
//     empty.
//
// Both are always encoded (Path costs 2 bytes when empty, Depth 2 bytes), so
// the metadata-size comparison between the two mechanisms is directly
// measurable from WireSize.
type Data struct {
	Stream  StreamID
	Seq     uint32
	Depth   uint16
	Path    []ids.NodeID
	Payload []byte
}

// Kind implements Message.
func (Data) Kind() Kind { return KindData }

// AppendTo implements Message.
func (m Data) AppendTo(b []byte) []byte {
	e := Encoder{B: b}
	e.U32(uint32(m.Stream))
	e.U32(m.Seq)
	e.U16(m.Depth)
	e.NodeIDs(m.Path)
	e.Bytes(m.Payload)
	return e.B
}

// WireSize implements Message.
func (m Data) WireSize() int {
	return 1 + szU32 + szU32 + szU16 + szNodeIDs(m.Path) + szBytes(m.Payload)
}

// Deactivate asks the receiver to stop relaying the stream to the sender
// (the sender prunes this inbound link, §II-C). The link stays in the
// HyParView active view and can be re-activated later. Symmetric carries
// the §II-E optimization: the sender also stopped relaying to the receiver
// (it knows it cannot be the receiver's parent), so the receiver should
// count that inbound link as inactive without a further exchange.
type Deactivate struct {
	Stream    StreamID
	Symmetric bool
}

// Kind implements Message.
func (Deactivate) Kind() Kind { return KindDeactivate }

// AppendTo implements Message.
func (m Deactivate) AppendTo(b []byte) []byte {
	e := Encoder{B: b}
	e.U32(uint32(m.Stream))
	e.Bool(m.Symmetric)
	return e.B
}

// WireSize implements Message.
func (Deactivate) WireSize() int { return 1 + szU32 + szBool }

// Reactivate asks the receiver to resume relaying the stream to the sender
// (used by soft and hard repair, §II-F).
type Reactivate struct {
	Stream StreamID
}

// Kind implements Message.
func (Reactivate) Kind() Kind { return KindReactivate }

// AppendTo implements Message.
func (m Reactivate) AppendTo(b []byte) []byte {
	e := Encoder{B: b}
	e.U32(uint32(m.Stream))
	return e.B
}

// WireSize implements Message.
func (Reactivate) WireSize() int { return 1 + szU32 }

// FloodRepair is the re-activation order an orphan propagates to its current
// children during a hard repair (§II-F). A child that can find a replacement
// parent locally absorbs the order; otherwise it re-activates its inbound
// links and forwards the order to its own children.
type FloodRepair struct {
	Stream StreamID
}

// Kind implements Message.
func (FloodRepair) Kind() Kind { return KindFloodRepair }

// AppendTo implements Message.
func (m FloodRepair) AppendTo(b []byte) []byte {
	e := Encoder{B: b}
	e.U32(uint32(m.Stream))
	return e.B
}

// WireSize implements Message.
func (FloodRepair) WireSize() int { return 1 + szU32 }

// DepthUpdate immediately tells downstream children about the sender's new
// DAG depth after a same-depth reception forced it deeper (§II-G).
type DepthUpdate struct {
	Stream StreamID
	Depth  uint16
}

// Kind implements Message.
func (DepthUpdate) Kind() Kind { return KindDepthUpdate }

// AppendTo implements Message.
func (m DepthUpdate) AppendTo(b []byte) []byte {
	e := Encoder{B: b}
	e.U32(uint32(m.Stream))
	e.U16(m.Depth)
	return e.B
}

// WireSize implements Message.
func (DepthUpdate) WireSize() int { return 1 + szU32 + szU16 }

// MsgRequest asks a (new) parent to retransmit buffered messages in the
// half-open sequence range [From, To) that were lost during parent recovery
// (§II-F).
type MsgRequest struct {
	Stream StreamID
	From   uint32
	To     uint32
}

// Kind implements Message.
func (MsgRequest) Kind() Kind { return KindMsgRequest }

// AppendTo implements Message.
func (m MsgRequest) AppendTo(b []byte) []byte {
	e := Encoder{B: b}
	e.U32(uint32(m.Stream))
	e.U32(m.From)
	e.U32(m.To)
	return e.B
}

// WireSize implements Message.
func (MsgRequest) WireSize() int { return 1 + szU32 + szU32 + szU32 }

func init() {
	registerPathed(KindData, func(body []byte, c *ConnDecoder) (Message, error) {
		d := Decoder{B: body}
		m := Data{
			Stream:  StreamID(d.U32()),
			Seq:     d.U32(),
			Depth:   d.U16(),
			Path:    d.path(c),
			Payload: c.payload(d.Bytes()),
		}
		return m, d.Finish()
	})
	register(KindDeactivate, func(body []byte) (Message, error) {
		d := Decoder{B: body}
		m := Deactivate{Stream: StreamID(d.U32()), Symmetric: d.Bool()}
		return m, d.Finish()
	})
	register(KindReactivate, func(body []byte) (Message, error) {
		d := Decoder{B: body}
		m := Reactivate{Stream: StreamID(d.U32())}
		return m, d.Finish()
	})
	register(KindFloodRepair, func(body []byte) (Message, error) {
		d := Decoder{B: body}
		m := FloodRepair{Stream: StreamID(d.U32())}
		return m, d.Finish()
	})
	register(KindDepthUpdate, func(body []byte) (Message, error) {
		d := Decoder{B: body}
		m := DepthUpdate{Stream: StreamID(d.U32()), Depth: d.U16()}
		return m, d.Finish()
	})
	register(KindMsgRequest, func(body []byte) (Message, error) {
		d := Decoder{B: body}
		m := MsgRequest{Stream: StreamID(d.U32()), From: d.U32(), To: d.U32()}
		return m, d.Finish()
	})
}
