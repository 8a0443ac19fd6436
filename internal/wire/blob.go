package wire

import "repro/internal/ids"

// Blob dissemination messages: chunked large payloads pushed over the BRISA
// structure with a Have/Want pull-repair path and optional K-of-N erasure
// coding (see internal/blob).

// maxWantIndices bounds one BlobWant request; requesters split bigger pulls
// across advertisement rounds and servers truncate anything larger.
const MaxWantIndices = 64

// BlobChunk carries one chunk of a blob down the dissemination structure.
// Structural metadata (Depth, Path) mirrors Data: chunk receptions drive the
// same link-deactivation machinery, so a blob-only stream still emerges a
// tree. The geometry (K/N, sizes) rides every chunk so any chunk — received
// in any order, even by a node that missed the blob's start — suffices to
// set up reassembly state. Index 0..K−1 are data chunks, K..N−1 parity.
type BlobChunk struct {
	Stream    StreamID
	Blob      uint32 // per-stream blob counter assigned by the source
	Index     uint16
	K, N      uint16
	Size      uint32 // total blob bytes
	ChunkSize uint32 // bytes per data chunk (the last data chunk is short)
	Depth     uint16
	Path      []ids.NodeID
	Payload   []byte
}

// Kind implements Message.
func (BlobChunk) Kind() Kind { return KindBlobChunk }

// AppendTo implements Message.
func (m BlobChunk) AppendTo(b []byte) []byte {
	e := Encoder{B: b}
	e.U32(uint32(m.Stream))
	e.U32(m.Blob)
	e.U16(m.Index)
	e.U16(m.K)
	e.U16(m.N)
	e.U32(m.Size)
	e.U32(m.ChunkSize)
	e.U16(m.Depth)
	e.NodeIDs(m.Path)
	e.Bytes(m.Payload)
	return e.B
}

// WireSize implements Message.
func (m BlobChunk) WireSize() int {
	return 1 + szU32 + szU32 + 4*szU16 + szU32 + szU32 +
		szNodeIDs(m.Path) + szBytes(m.Payload)
}

// BlobHave advertises chunk possession for one blob as a bitmap over its N
// chunks. Nodes send it to outbound-active neighbors on blob completion, and
// the same possession info rides the keep-alive piggybacks; receivers answer
// with BlobWant for chunks they miss. The geometry fields let a node that
// never saw a single chunk (a late joiner) initialize reassembly state and
// pull the whole blob.
type BlobHave struct {
	Stream    StreamID
	Blob      uint32
	K, N      uint16
	Size      uint32
	ChunkSize uint32
	Bitmap    []byte // ceil(N/8) bytes, LSB-first per byte
}

// Kind implements Message.
func (BlobHave) Kind() Kind { return KindBlobHave }

// AppendTo implements Message.
func (m BlobHave) AppendTo(b []byte) []byte {
	e := Encoder{B: b}
	e.U32(uint32(m.Stream))
	e.U32(m.Blob)
	e.U16(m.K)
	e.U16(m.N)
	e.U32(m.Size)
	e.U32(m.ChunkSize)
	e.Bytes(m.Bitmap)
	return e.B
}

// WireSize implements Message.
func (m BlobHave) WireSize() int {
	return 1 + szU32 + szU32 + 2*szU16 + szU32 + szU32 + szBytes(m.Bitmap)
}

// BlobWant requests specific chunks of a blob from a neighbor that advertised
// them (BlobHave or piggyback). The receiver replies with one BlobChunk per
// requested index it can serve.
type BlobWant struct {
	Stream  StreamID
	Blob    uint32
	Indices []uint16
}

// Kind implements Message.
func (BlobWant) Kind() Kind { return KindBlobWant }

// AppendTo implements Message.
func (m BlobWant) AppendTo(b []byte) []byte {
	e := Encoder{B: b}
	e.U32(uint32(m.Stream))
	e.U32(m.Blob)
	e.U16(uint16(len(m.Indices)))
	for _, ix := range m.Indices {
		e.U16(ix)
	}
	return e.B
}

// WireSize implements Message.
func (m BlobWant) WireSize() int {
	return 1 + szU32 + szU32 + szU16 + len(m.Indices)*szU16
}

func init() {
	registerPathed(KindBlobChunk, func(body []byte, c *ConnDecoder) (Message, error) {
		d := Decoder{B: body}
		m := BlobChunk{
			Stream:    StreamID(d.U32()),
			Blob:      d.U32(),
			Index:     d.U16(),
			K:         d.U16(),
			N:         d.U16(),
			Size:      d.U32(),
			ChunkSize: d.U32(),
			Depth:     d.U16(),
			Path:      d.path(c),
			Payload:   cloneBytes(d.Bytes()),
		}
		return m, d.Finish()
	})
	register(KindBlobHave, func(body []byte) (Message, error) {
		d := Decoder{B: body}
		m := BlobHave{
			Stream:    StreamID(d.U32()),
			Blob:      d.U32(),
			K:         d.U16(),
			N:         d.U16(),
			Size:      d.U32(),
			ChunkSize: d.U32(),
			Bitmap:    cloneBytes(d.Bytes()),
		}
		return m, d.Finish()
	})
	register(KindBlobWant, func(body []byte) (Message, error) {
		d := Decoder{B: body}
		m := BlobWant{
			Stream: StreamID(d.U32()),
			Blob:   d.U32(),
		}
		n := int(d.U16())
		if d.Err == nil && n > 0 {
			if d.Off+n*szU16 > len(d.B) {
				return m, ErrTruncated
			}
			m.Indices = make([]uint16, n)
			for i := range m.Indices {
				m.Indices[i] = d.U16()
			}
		}
		return m, d.Finish()
	})
}
