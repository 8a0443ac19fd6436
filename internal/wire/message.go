package wire

import (
	"fmt"
	"sync"

	"repro/internal/ids"
)

// Kind identifies a message type on the wire. Kinds are grouped in ranges by
// protocol so a node-level router can dispatch a whole range to one handler.
type Kind uint8

// Kind ranges. Keep ranges stable: the simulator classifies bytes into
// control vs payload traffic by kind.
const (
	// HyParView (peer sampling service): 1–15.
	KindJoin Kind = 1 + iota
	KindForwardJoin
	KindDisconnect
	KindNeighborRequest
	KindNeighborReply
	KindShuffle
	KindShuffleReply
	KindKeepAlive
	// 9 is retired: it was the answer to a KeepAlive, which is now one-way.
)

const (
	// BRISA: 16–31.
	KindData Kind = 16 + iota
	KindDeactivate
	KindReactivate
	KindFloodRepair
	KindDepthUpdate
	KindMsgRequest
)

const (
	// Cyclon: 32–39.
	KindCyclonShuffle Kind = 32 + iota
	KindCyclonShuffleReply
)

const (
	// SimpleGossip: 40–47.
	KindRumor Kind = 40 + iota
	KindAntiEntropyRequest
	KindAntiEntropyReply
)

const (
	// SimpleTree: 48–55.
	KindCoordJoin Kind = 48 + iota
	KindCoordAssign
	KindTreeData
)

const (
	// TAG: 56–71.
	KindTagJoinRequest Kind = 56 + iota
	KindTagWalk
	KindTagJoinAccept
	KindTagLinkUpdate
	KindTagPull
	KindTagPullReply
	KindTagAnnounce
)

const (
	// Blob dissemination: 72–79.
	KindBlobChunk Kind = 72 + iota
	KindBlobHave
	KindBlobWant
)

// String names the kind for logs and errors.
func (k Kind) String() string {
	if name, ok := kindNames[k]; ok {
		return name
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

var kindNames = map[Kind]string{
	KindJoin:               "Join",
	KindForwardJoin:        "ForwardJoin",
	KindDisconnect:         "Disconnect",
	KindNeighborRequest:    "NeighborRequest",
	KindNeighborReply:      "NeighborReply",
	KindShuffle:            "Shuffle",
	KindShuffleReply:       "ShuffleReply",
	KindKeepAlive:          "KeepAlive",
	KindData:               "Data",
	KindDeactivate:         "Deactivate",
	KindReactivate:         "Reactivate",
	KindFloodRepair:        "FloodRepair",
	KindDepthUpdate:        "DepthUpdate",
	KindMsgRequest:         "MsgRequest",
	KindCyclonShuffle:      "CyclonShuffle",
	KindCyclonShuffleReply: "CyclonShuffleReply",
	KindRumor:              "Rumor",
	KindAntiEntropyRequest: "AntiEntropyRequest",
	KindAntiEntropyReply:   "AntiEntropyReply",
	KindCoordJoin:          "CoordJoin",
	KindCoordAssign:        "CoordAssign",
	KindTreeData:           "TreeData",
	KindTagJoinRequest:     "TagJoinRequest",
	KindTagWalk:            "TagWalk",
	KindTagJoinAccept:      "TagJoinAccept",
	KindTagLinkUpdate:      "TagLinkUpdate",
	KindTagPull:            "TagPull",
	KindTagPullReply:       "TagPullReply",
	KindTagAnnounce:        "TagAnnounce",
	KindBlobChunk:          "BlobChunk",
	KindBlobHave:           "BlobHave",
	KindBlobWant:           "BlobWant",
}

// IsControl reports whether the kind carries protocol control information
// rather than application payload. Payload kinds are charged to the
// "dissemination payload" bandwidth class by the simulator; everything else
// is overhead.
func (k Kind) IsControl() bool {
	switch k {
	case KindData, KindRumor, KindAntiEntropyReply, KindTreeData, KindTagPullReply,
		KindBlobChunk:
		return false
	}
	return true
}

// Message is implemented by every protocol message.
type Message interface {
	// Kind returns the wire discriminator.
	Kind() Kind
	// AppendTo appends the message body (without the kind byte) to b.
	AppendTo(b []byte) []byte
	// WireSize returns the encoded size of the body plus the kind byte,
	// computed arithmetically (no allocation). Invariant, checked by tests:
	// WireSize() == 1+len(AppendTo(nil)).
	WireSize() int
}

// Marshal encodes a message as kind byte + body.
func Marshal(m Message) []byte {
	return AppendFrame(make([]byte, 0, m.WireSize()), m)
}

// AppendFrame appends the message's frame (kind byte + body) to b and
// returns the extended slice — the allocation-free form of Marshal for
// callers that manage their own buffers.
func AppendFrame(b []byte, m Message) []byte {
	b = append(b, byte(m.Kind()))
	return m.AppendTo(b)
}

// bufPool recycles encode buffers across sends so the transport write path
// costs O(1) allocations per message regardless of rate.
var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 1024)
		return &b
	},
}

// GetBuffer borrows an empty encode buffer from the pool. Return it with
// PutBuffer once the encoded bytes have been flushed.
func GetBuffer() *[]byte {
	bp := bufPool.Get().(*[]byte)
	*bp = (*bp)[:0]
	return bp
}

// maxPooledBuf is the largest buffer the pool keeps: one blob chunk would
// otherwise pin a MiB-sized buffer for the life of the pool.
const maxPooledBuf = 64 << 10

// PutBuffer returns a borrowed buffer to the pool, unless it grew past
// maxPooledBuf.
func PutBuffer(bp *[]byte) {
	if cap(*bp) <= maxPooledBuf {
		bufPool.Put(bp)
	}
}

// Unmarshal decodes a frame produced by Marshal. The result never aliases
// frame — every decoder copies the bytes and identifiers it keeps — which is
// what lets a transport decode from storage it reuses for the next frame.
// It is ConnDecoder.Unmarshal with no decoder state: every result owns its
// slices, each payload in an allocation of exactly its size.
func Unmarshal(frame []byte) (Message, error) {
	return (*ConnDecoder)(nil).Unmarshal(frame)
}

// ConnDecoder is the decode state a transport keeps per connection, so that
// the messages one peer sends in a row cost fewer allocations than the same
// frames decoded one by one. It does two things:
//
//   - It interns the embedded path (§II-D) of Data and BlobChunk. On a
//     settled tree every message a node gets from its parent crossed the same
//     nodes, so the path is paid once per re-parent instead of once per
//     message. It holds ONE path, the last non-empty one it decoded: two
//     paths that alternate frame by frame miss every time.
//   - It carves every Data payload of at most slabMaxPayload bytes out of an
//     append-only slab instead of allocating each one. A payload is copied in
//     and handed out capped at its length, so a receiver's append copies; a
//     handed-out byte is never written again and a slab is never reused. When
//     the current slab cannot fit the next payload a fresh one starts, twice
//     the previous one's capacity up to slabMax, so a connection that carries
//     few payloads keeps a small slab. A kept payload pins its slab (at most
//     slabMax bytes) until nothing references it.
//
// BlobChunk payloads (large, and kept for reassembly) and payloads over
// slabMaxPayload get an allocation of exactly their size, as with Unmarshal.
// The zero value is ready to use; a nil *ConnDecoder decodes like Unmarshal.
// Not safe for concurrent use.
type ConnDecoder struct {
	raw  []byte       // the interned path as it was on the wire: u16 count + 6 B per hop
	path []ids.NodeID // what was handed out for raw; shared, so never written again
	slab []byte       // payload bytes handed out so far; only ever appended to
}

// The payload slab's limits: a payload larger than slabMaxPayload gets its
// own allocation, and no slab grows past slabMax.
const (
	slabMaxPayload = 512
	slabMax        = 2 << 10
)

// Unmarshal is the package-level Unmarshal with the connection's state: a
// path whose wire bytes equal the previous one's comes back as the same
// slice, and successive Data payloads may share a backing array (each capped
// at its length). Both are legal under the receivers' read-only rule
// (node.Handler.Receive). The result still never aliases frame. A frame that
// fails to decode forgets the interned path and leaves every payload handed out
// before it as it was.
func (c *ConnDecoder) Unmarshal(frame []byte) (Message, error) {
	if len(frame) == 0 {
		return nil, ErrTruncated
	}
	kind := Kind(frame[0])
	ctor, ok := decoders[kind]
	if !ok {
		return nil, fmt.Errorf("wire: unknown kind %d", kind)
	}
	m, err := ctor(frame[1:], c)
	if err != nil && c != nil {
		c.raw, c.path = c.raw[:0], nil
	}
	return m, err
}

// payload copies a decoded Data payload out of the frame: into the slab when
// there is a decoder and the payload fits slabMaxPayload, else into an
// allocation of its own.
func (c *ConnDecoder) payload(b []byte) []byte {
	if c == nil || len(b) == 0 || len(b) > slabMaxPayload {
		return cloneBytes(b)
	}
	if cap(c.slab)-len(c.slab) < len(b) {
		c.slab = make([]byte, 0, min(max(2*cap(c.slab), len(b)), slabMax))
	}
	start := len(c.slab)
	c.slab = append(c.slab, b...)
	return c.slab[start:len(c.slab):len(c.slab)]
}

// decodeFunc decodes one kind's body; c is nil outside ConnDecoder.Unmarshal
// and only the kinds that embed a path or a Data payload look at it.
type decodeFunc func(body []byte, c *ConnDecoder) (Message, error)

var decoders = map[Kind]decodeFunc{}

// register installs the decoder for a kind that embeds no path; called from
// init funcs of the per-protocol files.
func register(k Kind, fn func(body []byte) (Message, error)) {
	registerPathed(k, func(body []byte, _ *ConnDecoder) (Message, error) { return fn(body) })
}

// registerPathed installs a decoder that reads its path (and, for Data, its
// payload) through the connection's decoder.
// Panics on duplicates since that is a programming error.
func registerPathed(k Kind, fn decodeFunc) {
	if _, dup := decoders[k]; dup {
		panic(fmt.Sprintf("wire: duplicate decoder for %v", k))
	}
	decoders[k] = fn
}
