package wire

// Native fuzz targets for the codec. Two complementary angles:
//
//   - FuzzDecoder feeds arbitrary frames to Unmarshal: the decoder must
//     never panic or over-allocate, and everything it accepts must satisfy
//     the codec invariants (WireSize == encoded length; encode∘decode is
//     idempotent — byte canonicality is not required because Bool accepts
//     any non-zero byte).
//   - FuzzFrameRoundTrip starts from structured field values, builds real
//     messages — covering AppendFrame's buffer handling and the id-list
//     paths — and requires exact round-trips, including through the
//     zero-allocation Decoder.NodeIDsAppend arena used by the keep-alive
//     piggyback hot path.
//   - FuzzConnDecode feeds a sequence of frames through one ConnDecoder, as
//     a connection's reader does: every result must equal the stateless
//     Unmarshal of its frame, and stay equal while later frames reuse the
//     read buffer, the interned path and the payload slab.
//
// The seed corpus under testdata/fuzz/ pins one frame per protocol family;
// CI runs the targets as a short -fuzztime smoke (see .github/workflows).

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"repro/internal/ids"
)

// fuzzSeedMessages is one representative message per protocol family,
// including empty and populated variable-length fields.
func fuzzSeedMessages() []Message {
	nodes := []ids.NodeID{0x010203040506, 0xa0b0c0d0e0f0, 1}
	return []Message{
		Join{},
		ForwardJoin{Joiner: 0x7f0000012345, TTL: 3},
		NeighborRequest{Priority: true},
		Shuffle{Origin: 42, TTL: 2, Nodes: nodes},
		ShuffleReply{Nodes: nil},
		KeepAlive{SentAt: 123456789, Echo: 123450000, Piggyback: []byte{1, 2, 3}},
		KeepAlive{SentAt: 1, Echo: -1, Piggyback: nil},
		Data{Stream: 7, Seq: 99, Depth: 4, Path: nodes, Payload: []byte("payload")},
		Data{Stream: 1, Seq: 1, Depth: NoDepth},
		Deactivate{Stream: 9, Symmetric: true},
		Reactivate{Stream: 9},
		FloodRepair{Stream: 2},
		DepthUpdate{Stream: 3, Depth: 17},
		MsgRequest{Stream: 5, From: 10, To: 20},
		CyclonShuffle{Entries: []CyclonEntry{{Node: 11, Age: 2}, {Node: 12, Age: 0}}},
		Rumor{Stream: 1, Seq: 5, Payload: []byte("r")},
		TreeData{Stream: 1, Seq: 8, Payload: []byte("t")},
		TagPullReply{Stream: 1, Items: []StreamItem{{Seq: 3, Payload: []byte("i")}}},
		BlobChunk{Stream: 2, Blob: 1, Index: 3, K: 16, N: 20, Size: 1 << 20,
			ChunkSize: 1 << 16, Depth: 2, Path: nodes, Payload: []byte("chunk")},
		BlobChunk{Stream: 2, Blob: 2, Index: 0, K: 1, N: 1, Size: 5, ChunkSize: 64},
		BlobHave{Stream: 2, Blob: 1, K: 16, N: 20, Size: 1 << 20,
			ChunkSize: 1 << 16, Bitmap: []byte{0xff, 0x0f, 0x01}},
		BlobWant{Stream: 2, Blob: 1, Indices: []uint16{0, 7, 19}},
		BlobWant{Stream: 2, Blob: 3},
	}
}

func FuzzDecoder(f *testing.F) {
	for _, m := range fuzzSeedMessages() {
		f.Add(Marshal(m))
	}
	// Hostile shapes: truncated, oversized length prefixes, unknown kinds.
	f.Add([]byte{})
	f.Add([]byte{byte(KindData)})
	f.Add([]byte{byte(KindShuffle), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 1, 0xff, 0xff})
	f.Add([]byte{0xee, 1, 2, 3})
	f.Fuzz(func(t *testing.T, frame []byte) {
		m, err := Unmarshal(frame)
		if err != nil {
			return // rejected input: the only requirement is "no panic"
		}
		enc := Marshal(m)
		if got := m.WireSize(); got != len(enc) {
			t.Fatalf("WireSize() = %d, encoded length = %d (kind %v)", got, len(enc), m.Kind())
		}
		m2, err := Unmarshal(enc)
		if err != nil {
			t.Fatalf("re-decode of re-encoding failed: %v (kind %v, % x)", err, m.Kind(), enc)
		}
		if enc2 := Marshal(m2); !bytes.Equal(enc, enc2) {
			t.Fatalf("encode∘decode not idempotent for kind %v:\n% x\n% x", m.Kind(), enc, enc2)
		}
	})
}

func FuzzFrameRoundTrip(f *testing.F) {
	f.Add(uint8(0), uint32(1), uint32(2), uint16(3), []byte("payload"), uint64(42), uint64(77), int64(123))
	f.Add(uint8(1), uint32(9), uint32(0), uint16(0), []byte{}, uint64(1), uint64(2), int64(-5))
	f.Add(uint8(2), uint32(0xffffffff), uint32(7), uint16(0xffff), []byte{0}, uint64(1<<47), uint64(3), int64(0))
	f.Add(uint8(3), uint32(5), uint32(6), uint16(1), []byte("x"), uint64(0x010203040506), uint64(0x060504030201), int64(1))
	f.Fuzz(func(t *testing.T, which uint8, a, b uint32, depth uint16, blob []byte, id1, id2 uint64, ts int64) {
		// Node ids are 48-bit on the wire; mask and reject Nil to keep the
		// constructed messages within the codec's domain.
		n1 := ids.NodeID(id1 & 0xffffffffffff)
		n2 := ids.NodeID(id2 & 0xffffffffffff)
		if n1 == ids.Nil {
			n1 = 1
		}
		if n2 == ids.Nil {
			n2 = 2
		}
		path := []ids.NodeID{n1, n2}
		var m Message
		switch which % 9 {
		case 0:
			m = Data{Stream: StreamID(a), Seq: b, Depth: depth, Path: path, Payload: blob}
		case 1:
			m = Shuffle{Origin: n1, TTL: uint8(depth), Nodes: path}
		case 2:
			m = KeepAlive{SentAt: ts, Echo: int64(id1), Piggyback: blob}
		case 3:
			m = CyclonShuffle{Entries: []CyclonEntry{{Node: n1, Age: uint16(a)}, {Node: n2, Age: depth}}}
		case 4:
			m = MsgRequest{Stream: StreamID(a), From: b, To: b + uint32(depth)}
		case 5:
			m = BlobChunk{Stream: StreamID(a), Blob: b, Index: depth, K: uint16(a),
				N: uint16(b), Size: a, ChunkSize: b, Depth: depth, Path: path, Payload: blob}
		case 6:
			m = BlobHave{Stream: StreamID(a), Blob: b, K: uint16(a), N: uint16(b),
				Size: a, ChunkSize: b, Bitmap: blob}
		case 7:
			m = BlobWant{Stream: StreamID(a), Blob: b, Indices: []uint16{depth, uint16(a), uint16(b)}}
		default:
			m = ShuffleReply{Nodes: path}
		}

		// AppendFrame must append exactly the marshaled frame, wherever the
		// buffer starts.
		prefix := []byte("prefix")
		framed := AppendFrame(append([]byte(nil), prefix...), m)
		if !bytes.HasPrefix(framed, prefix) {
			t.Fatal("AppendFrame clobbered the existing buffer")
		}
		frame := framed[len(prefix):]
		if !bytes.Equal(frame, Marshal(m)) {
			t.Fatalf("AppendFrame != Marshal for kind %v", m.Kind())
		}
		if m.WireSize() != len(frame) {
			t.Fatalf("WireSize() = %d, frame length = %d (kind %v)", m.WireSize(), len(frame), m.Kind())
		}

		out, err := Unmarshal(frame)
		if err != nil {
			t.Fatalf("round-trip decode failed for kind %v: %v", m.Kind(), err)
		}
		if !bytes.Equal(Marshal(out), frame) {
			t.Fatalf("round trip changed encoding for kind %v", m.Kind())
		}
		if ka, ok := out.(KeepAlive); ok && (ka.SentAt != ts || ka.Echo != int64(id1)) {
			t.Fatalf("KeepAlive came back as SentAt %d Echo %d, want %d and %d", ka.SentAt, ka.Echo, ts, int64(id1))
		}

		// The zero-allocation id-list decode path must agree with the
		// allocating one: decode the Shuffle body both ways.
		sh := Shuffle{Origin: n1, TTL: 1, Nodes: path}
		body := sh.AppendTo(nil)
		arena := make([]ids.NodeID, 0, 8)
		d := Decoder{B: body}
		_, _ = d.NodeID(), d.U8()
		arena, list := d.NodeIDsAppend(arena)
		if err := d.Finish(); err != nil {
			t.Fatalf("NodeIDsAppend decode failed: %v", err)
		}
		if len(list) != len(path) || list[0] != path[0] || list[1] != path[1] {
			t.Fatalf("NodeIDsAppend decoded %v, want %v", list, path)
		}
		_ = arena
	})
}

// connFrames packs frames for FuzzConnDecode: each one behind a u16 length.
func connFrames(frames ...[]byte) []byte {
	var b []byte
	for _, f := range frames {
		b = binary.BigEndian.AppendUint16(b, uint16(len(f)))
		b = append(b, f...)
	}
	return b
}

func FuzzConnDecode(f *testing.F) {
	path, other := []ids.NodeID{1, 2, 3}, []ids.NodeID{1, 4}
	data := func(seq uint32, p []ids.NodeID, n int) []byte {
		return Marshal(Data{Stream: 1, Seq: seq, Path: p, Payload: bytes.Repeat([]byte{byte(seq)}, n)})
	}
	var all [][]byte
	for _, m := range fuzzSeedMessages() {
		all = append(all, Marshal(m))
	}
	f.Add(connFrames(all...))
	f.Add(connFrames(data(1, path, 256), data(2, path, 256), data(3, other, 256), data(4, path, 256)))
	f.Add(connFrames(data(1, nil, 1), data(2, nil, 512), data(3, nil, 513), data(4, nil, 0), data(5, nil, 300)))
	f.Add(connFrames(data(1, path, 200), append(data(2, path, 200), 0), data(3, path, 200)[:40], data(4, path, 200)))
	f.Add(connFrames(data(1, path, 100),
		Marshal(BlobChunk{Stream: 1, K: 1, N: 1, Path: path, Payload: []byte("chunk")}), data(2, path, 100)))
	f.Fuzz(func(t *testing.T, in []byte) {
		var c ConnDecoder
		var got, want []Message
		buf := make([]byte, 0, 1<<16) // the transport's read buffer, reused frame after frame
		for len(in) >= 2 {
			n := min(int(binary.BigEndian.Uint16(in)), len(in)-2)
			frame := append(buf[:0], in[2:2+n]...)
			in = in[2+n:]
			ref, refErr := Unmarshal(bytes.Clone(frame))
			m, err := c.Unmarshal(frame)
			if (err == nil) != (refErr == nil) || (err != nil && err.Error() != refErr.Error()) {
				t.Fatalf("frame % x: ConnDecoder error %v, Unmarshal error %v", frame, err, refErr)
			}
			for i := range frame {
				frame[i] ^= 0x5a
			}
			if err != nil {
				continue
			}
			if !reflect.DeepEqual(m, ref) {
				t.Fatalf("ConnDecoder decoded %v, Unmarshal %v", m, ref)
			}
			got, want = append(got, m), append(want, ref)
			for i := range got {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("result %d changed after a later decode: %v, decoded as %v", i, got[i], want[i])
				}
			}
		}
	})
}
