package wire

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/ids"
)

// allMessages returns one representative of every message type with
// non-trivial field values.
func allMessages() []Message {
	path := []ids.NodeID{1, 2, 3}
	return []Message{
		Join{},
		ForwardJoin{Joiner: 42, TTL: 6},
		Disconnect{},
		NeighborRequest{Priority: true},
		NeighborReply{Accept: true},
		Shuffle{Origin: 7, TTL: 3, Nodes: path},
		ShuffleReply{Nodes: path},
		KeepAlive{SentAt: 123456789, Echo: 987654321, Piggyback: []byte{1, 2, 3}},
		Data{Stream: 1, Seq: 77, Depth: 4, Path: path, Payload: []byte("payload")},
		Deactivate{Stream: 1, Symmetric: true},
		Reactivate{Stream: 2},
		FloodRepair{Stream: 3},
		DepthUpdate{Stream: 4, Depth: 9},
		MsgRequest{Stream: 5, From: 10, To: 20},
		CyclonShuffle{Entries: []CyclonEntry{{Node: 1, Age: 2}, {Node: 3, Age: 4}}},
		CyclonShuffleReply{Entries: []CyclonEntry{{Node: 5, Age: 6}}},
		Rumor{Stream: 6, Seq: 8, Payload: []byte("rumor")},
		AntiEntropyRequest{Stream: 7, UpTo: 100, Missing: []uint32{3, 5, 9}},
		AntiEntropyReply{Stream: 8, Items: []StreamItem{{Seq: 1, Payload: []byte("a")}, {Seq: 2, Payload: nil}}},
		CoordJoin{},
		CoordAssign{Parent: 77},
		TreeData{Stream: 9, Seq: 10, Payload: []byte("tree")},
		TagJoinRequest{},
		TagWalk{Joiner: 11},
		TagJoinAccept{Accept: true, Pred: 12, Pred2: 13},
		TagLinkUpdate{Pred: 1, Pred2: 2, Succ: 3, Succ2: 4},
		TagPull{Stream: 10, UpTo: 50, Missing: []uint32{44}},
		TagPullReply{Stream: 11, Items: []StreamItem{{Seq: 4, Payload: []byte("x")}}},
		TagAnnounce{Stream: 12, UpTo: 60},
	}
}

func TestRoundTripAllMessages(t *testing.T) {
	for _, m := range allMessages() {
		frame := Marshal(m)
		got, err := Unmarshal(frame)
		if err != nil {
			t.Errorf("%v: unmarshal: %v", m.Kind(), err)
			continue
		}
		// Normalize nil vs empty slices before comparing.
		if !reflect.DeepEqual(normalize(m), normalize(got)) {
			t.Errorf("%v: round trip mismatch:\n  sent %#v\n  got  %#v", m.Kind(), m, got)
		}
	}
}

// normalize re-encodes for comparison (empty slice vs nil).
func normalize(m Message) string { return string(Marshal(m)) }

func TestWireSizeMatchesEncoding(t *testing.T) {
	for _, m := range allMessages() {
		if got, want := m.WireSize(), len(Marshal(m)); got != want {
			t.Errorf("%v: WireSize() = %d, encoded size = %d", m.Kind(), got, want)
		}
	}
}

// TestKeepAlivePointerFramesLikeValue: the membership layer sends its
// heartbeats as *KeepAlive, so the pointer must frame and size exactly as
// the value the decoder returns.
func TestKeepAlivePointerFramesLikeValue(t *testing.T) {
	kas := []KeepAlive{{SentAt: 1, Echo: -1}} // no piggyback
	for _, m := range allMessages() {
		if ka, ok := m.(KeepAlive); ok {
			kas = append(kas, ka)
		}
	}
	for _, ka := range kas {
		var ptr, val Message = &ka, ka
		if got, want := AppendFrame(nil, ptr), AppendFrame(nil, val); !bytes.Equal(got, want) {
			t.Errorf("%+v: pointer frames as %x, value as %x", ka, got, want)
		}
		if got, want := ptr.WireSize(), val.WireSize(); got != want {
			t.Errorf("%+v: pointer WireSize %d, value %d", ka, got, want)
		}
	}
}

func TestKindsAreUniqueAndNamed(t *testing.T) {
	seen := map[Kind]bool{}
	for _, m := range allMessages() {
		k := m.Kind()
		if seen[k] {
			t.Errorf("kind %v used by two messages", k)
		}
		seen[k] = true
		if k.String() == "" || k.String()[0] == 'k' {
			t.Errorf("kind %d has no name", k)
		}
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{0xFF},                                  // unknown kind
		{9, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0}, // retired kind: the answer a keep-alive used to get
		{byte(KindData)},                        // truncated body
		{byte(KindData), 1, 2, 3},
	}
	for _, c := range cases {
		if _, err := Unmarshal(c); err == nil {
			t.Errorf("Unmarshal(%v) succeeded, want error", c)
		}
	}
	// Trailing bytes are an error too.
	frame := Marshal(Deactivate{Stream: 1})
	if _, err := Unmarshal(append(frame, 0)); err == nil {
		t.Error("trailing byte accepted")
	}
}

// TestKeepAliveLayout pins the one-way heartbeat's frame: both timestamps
// survive the round trip as themselves (the generic round-trip tests only
// compare re-encodings), the frame is 8 bytes wider than the layout it
// replaced, and the retired reply kind is refused as unknown, not misread.
func TestKeepAliveLayout(t *testing.T) {
	in := KeepAlive{SentAt: 1 << 40, Echo: -7, Piggyback: []byte{1, 2, 3}}
	frame := Marshal(in)
	if want := 1 + 8 + 8 + 4 + 3; len(frame) != want {
		t.Fatalf("frame is %d bytes, want %d", len(frame), want)
	}
	out, err := Unmarshal(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Errorf("round trip: got %#v, want %#v", out, in)
	}
	frame[0] = 9
	if _, err := Unmarshal(frame); err == nil || !strings.Contains(err.Error(), "unknown kind 9") {
		t.Errorf("kind 9 decoded with err = %v, want an unknown-kind error", err)
	}
}

func TestDataPathMetadataCost(t *testing.T) {
	// The paper's §II-D argument: a 7-hop path costs 7×48 bits = 42 bytes
	// of metadata. Verify the encoding matches that accounting exactly.
	with := Data{Stream: 1, Seq: 1, Path: make([]ids.NodeID, 7)}.WireSize()
	without := Data{Stream: 1, Seq: 1}.WireSize()
	if got, want := with-without, 7*ids.WireSize; got != want {
		t.Errorf("7-hop path costs %d bytes, want %d", got, want)
	}
}

// quick-check generators for property tests.

func randomIDs(r *rand.Rand, n int) []ids.NodeID {
	out := make([]ids.NodeID, r.Intn(n))
	for i := range out {
		out[i] = ids.NodeID(r.Uint64() & uint64(ids.MaxID))
	}
	return out
}

func TestQuickDataRoundTrip(t *testing.T) {
	f := func(stream uint32, seq uint32, depth uint16, pathSeed int64, payload []byte) bool {
		r := rand.New(rand.NewSource(pathSeed))
		m := Data{
			Stream:  StreamID(stream),
			Seq:     seq,
			Depth:   depth,
			Path:    randomIDs(r, 20),
			Payload: payload,
		}
		frame := Marshal(m)
		if len(frame) != m.WireSize() {
			return false
		}
		got, err := Unmarshal(frame)
		if err != nil {
			return false
		}
		return bytes.Equal(Marshal(got), frame)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickShuffleRoundTrip(t *testing.T) {
	f := func(origin uint64, ttl uint8, seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := Shuffle{
			Origin: ids.NodeID(origin & uint64(ids.MaxID)),
			TTL:    ttl,
			Nodes:  randomIDs(r, 30),
		}
		frame := Marshal(m)
		got, err := Unmarshal(frame)
		return err == nil && bytes.Equal(Marshal(got), frame) && len(frame) == m.WireSize()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDecoderNeverPanics(t *testing.T) {
	// Random byte soup must never panic the decoder — it may only error.
	f := func(body []byte) bool {
		for k := 0; k < 72; k++ {
			frame := append([]byte{byte(k)}, body...)
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("kind %d panicked on %v: %v", k, body, r)
					}
				}()
				Unmarshal(frame) //nolint:errcheck
			}()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestControlClassification(t *testing.T) {
	// Payload-bearing kinds are the ones charged as dissemination payload.
	payloadKinds := map[Kind]bool{
		KindData: true, KindRumor: true, KindAntiEntropyReply: true,
		KindTreeData: true, KindTagPullReply: true,
	}
	for _, m := range allMessages() {
		if got, want := !m.Kind().IsControl(), payloadKinds[m.Kind()]; got != want {
			t.Errorf("%v: IsControl() = %v, want %v", m.Kind(), !got, !want)
		}
	}
}

// TestEncodeHotPathAllocs pins the allocation cost of the accounting and
// framing hot paths: WireSize is arithmetic (zero allocations) and
// AppendFrame into a pre-sized buffer reallocates nothing, so the simulator
// charges bandwidth and the transport frames messages at O(1) allocations
// per hop.
func TestEncodeHotPathAllocs(t *testing.T) {
	// Hoist the interface conversion: the transport holds its messages as
	// wire.Message already, so boxing is not part of the measured path.
	var msg Message = Data{
		Stream:  7,
		Seq:     42,
		Depth:   3,
		Path:    []ids.NodeID{1, 2, 3, 4},
		Payload: make([]byte, 1024),
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if msg.WireSize() <= 0 {
			t.Fatal("bad size")
		}
	}); allocs != 0 {
		t.Errorf("WireSize allocates %.1f objects per call, want 0", allocs)
	}
	buf := make([]byte, 0, msg.WireSize())
	if allocs := testing.AllocsPerRun(100, func() {
		buf = AppendFrame(buf[:0], msg)
	}); allocs != 0 {
		t.Errorf("AppendFrame into sized buffer allocates %.1f objects per call, want 0", allocs)
	}
	if len(buf) != msg.WireSize() {
		t.Fatalf("frame length %d != WireSize %d", len(buf), msg.WireSize())
	}
	// The pooled buffer cycle stays allocation-free once warm.
	if allocs := testing.AllocsPerRun(100, func() {
		bp := GetBuffer()
		*bp = AppendFrame(*bp, msg)
		PutBuffer(bp)
	}); allocs > 0.1 {
		t.Errorf("pooled frame cycle allocates %.1f objects per call, want ~0", allocs)
	}
}

// TestAppendFrameMatchesMarshal cross-checks the pooled framing against the
// allocating reference encoder for every registered message type.
func TestAppendFrameMatchesMarshal(t *testing.T) {
	for _, m := range allMessages() {
		ref := Marshal(m)
		got := AppendFrame(nil, m)
		if !bytes.Equal(ref, got) {
			t.Errorf("%v: AppendFrame differs from Marshal", m.Kind())
		}
		if len(ref) != m.WireSize() {
			t.Errorf("%v: WireSize %d != encoded length %d", m.Kind(), m.WireSize(), len(ref))
		}
	}
}

// TestPutBufferDropsGrownBuffers: a buffer that one large frame (a blob
// chunk) grew past maxPooledBuf must not come back from the pool — it would
// stay pinned there for the life of the process.
func TestPutBufferDropsGrownBuffers(t *testing.T) {
	for i := 0; i < 64; i++ {
		bp := GetBuffer()
		*bp = append(*bp, make([]byte, maxPooledBuf+1)...)
		PutBuffer(bp)
	}
	for i := 0; i < 64; i++ {
		bp := GetBuffer()
		if len(*bp) != 0 || cap(*bp) > maxPooledBuf {
			t.Fatalf("GetBuffer returned len %d cap %d, want empty and at most %d", len(*bp), cap(*bp), maxPooledBuf)
		}
		defer PutBuffer(bp) // held until the end so that each Get digs deeper into the pool
	}
}

// pathOf returns the embedded path of the two kinds that carry one.
func pathOf(m Message) []ids.NodeID {
	switch m := m.(type) {
	case Data:
		return m.Path
	case BlobChunk:
		return m.Path
	}
	return nil
}

// TestQuickConnDecoderMatchesUnmarshal: for any run of frames — paths that
// repeat, change and come back, path-less kinds in between, frames cut inside
// the path, counts that point past the end, trailing bytes — decoding through
// one ConnDecoder gives, frame by frame, what the stateless Unmarshal gives,
// also straight after a frame that failed. A repeated path is the previous
// slice again, and nothing handed out earlier (path or slab-carved payload)
// is written afterwards or views the frame it came from.
func TestQuickConnDecoderMatchesUnmarshal(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		paths := [][]ids.NodeID{nil, randomIDs(r, 6), randomIDs(r, 6), randomIDs(r, 1)}
		var cache ConnDecoder
		var got, want []Message
		var shared []ids.NodeID // the cache's path, as this test predicts it
		for i := 0; i < 60; i++ {
			path := paths[r.Intn(len(paths))]
			if r.Intn(3) == 0 && len(got) > 0 {
				path = pathOf(want[len(want)-1]) // a run of equal paths
			}
			var m Message
			switch r.Intn(5) {
			case 0:
				m = BlobChunk{Stream: 1, Blob: uint32(i), K: 1, N: 1, Path: path, Payload: []byte{byte(i)}}
			case 1:
				m = Shuffle{Origin: 9, Nodes: path}
			default:
				m = Data{Stream: 1, Seq: uint32(i), Path: path, Payload: []byte{byte(i), 1}}
			}
			frame := Marshal(m)
			countAt := map[Kind]int{KindData: 11, KindBlobChunk: 25, KindShuffle: 8}[m.Kind()]
			switch r.Intn(8) {
			case 0: // cut inside the path (or just before the payload)
				frame = frame[:countAt+2+len(path)*ids.WireSize/2]
			case 1: // count x 6 runs past the end
				frame[countAt] = 0xff
			case 2:
				frame = append(frame, 0)
			}
			ref, refErr := Unmarshal(bytes.Clone(frame))
			m2, err := cache.Unmarshal(frame)
			if (err == nil) != (refErr == nil) || (err != nil && err.Error() != refErr.Error()) {
				t.Errorf("frame %d (%v): cached decode error %v, stateless %v", i, m.Kind(), err, refErr)
				return false
			}
			for j := range frame {
				frame[j] ^= 0xa5 // the transport reuses its buffer
			}
			if err != nil {
				shared = nil
				continue
			}
			if p := pathOf(m2); len(p) > 0 {
				if slices.Equal(p, shared) && &p[0] != &shared[0] {
					t.Errorf("frame %d: path %v repeats the previous one and was decoded again", i, p)
				}
				shared = p
			}
			got, want = append(got, m2), append(want, ref)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("cached decodes differ from stateless ones:\n got  %v\n want %v", got, want)
			return false
		}
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestConnDecoderPayloadSlab pins what the payload slab may and may not do:
// carve small Data payloads side by side, never let one reach into another,
// never rewrite a byte it handed out, stop growing at slabMax, and leave
// large payloads, BlobChunk and the stateless Unmarshal with exact-size
// copies of their own.
func TestConnDecoderPayloadSlab(t *testing.T) {
	data := func(c *ConnDecoder, n int, fill byte) []byte {
		t.Helper()
		m, err := c.Unmarshal(Marshal(Data{Stream: 1, Seq: 1, Payload: bytes.Repeat([]byte{fill}, n)}))
		if err != nil {
			t.Fatal(err)
		}
		return m.(Data).Payload
	}
	exact := func(p []byte, n int, fill byte) bool {
		return len(p) == n && !slices.ContainsFunc(p, func(b byte) bool { return b != fill })
	}

	t.Run("payloads of one slab are disjoint and capped", func(t *testing.T) {
		var c ConnDecoder
		p1 := data(&c, 100, 1) // the first slab holds exactly one payload
		p2 := data(&c, 100, 2) // the second has room for two
		p3 := data(&c, 100, 3)
		if len(c.slab) != len(p2)+len(p3) || &c.slab[0] != &p2[0] || &c.slab[len(p2)] != &p3[0] {
			t.Fatal("the second and third payloads do not sit side by side in one slab")
		}
		for _, p := range [][]byte{p1, p2, p3} {
			if cap(p) != len(p) {
				t.Fatalf("payload has capacity %d past its length %d", cap(p), len(p))
			}
		}
		_ = append(p2, 0xee, 0xee)
		if !exact(p1, 100, 1) || !exact(p2, 100, 2) || !exact(p3, 100, 3) {
			t.Fatal("an append to one payload wrote into another")
		}
	})

	t.Run("a payload over slabMaxPayload gets its own allocation", func(t *testing.T) {
		var c ConnDecoder
		data(&c, slabMaxPayload, 1)
		slab := c.slab
		big := data(&c, slabMaxPayload+1, 2)
		if cap(big) != slabMaxPayload+1 || len(c.slab) != len(slab) || &c.slab[0] != &slab[0] {
			t.Fatalf("a %d B payload came from the slab (cap %d)", len(big), cap(big))
		}
	})

	t.Run("a BlobChunk payload gets its own allocation", func(t *testing.T) {
		var c ConnDecoder
		data(&c, 100, 1)
		slab := c.slab
		m, err := c.Unmarshal(Marshal(BlobChunk{Stream: 1, K: 1, N: 1, Payload: bytes.Repeat([]byte{2}, 100)}))
		if err != nil {
			t.Fatal(err)
		}
		if p := m.(BlobChunk).Payload; cap(p) != 100 || len(c.slab) != len(slab) || &c.slab[:1][0] != &slab[0] || !exact(p, 100, 2) {
			t.Fatal("a BlobChunk payload came from the slab")
		}
	})

	t.Run("a frame that fails leaves earlier payloads alone", func(t *testing.T) {
		var c ConnDecoder
		p1 := data(&c, 200, 1) // fills its slab: the bad frame's payload starts a new one
		bad := append(Marshal(Data{Stream: 1, Payload: bytes.Repeat([]byte{9}, 200)}), 0)
		if _, err := c.Unmarshal(bad); err == nil {
			t.Fatal("a frame with a trailing byte decoded")
		}
		p2 := data(&c, 200, 2)
		if !exact(p1, 200, 1) || !exact(p2, 200, 2) {
			t.Fatal("a payload handed out before a failed frame changed")
		}
	})

	t.Run("the slab doubles up to slabMax", func(t *testing.T) {
		var c ConnDecoder
		var caps []int
		for i := 0; i < 1+2+4+8*4; i++ {
			if data(&c, 256, byte(i)); len(c.slab) == 256 { // a refill
				caps = append(caps, cap(c.slab))
			}
		}
		want := []int{256, 512, 1024, 2048, 2048, 2048, 2048}
		if !slices.Equal(caps, want) {
			t.Fatalf("slab capacities %v, want %v", caps, want)
		}
	})

	t.Run("Unmarshal copies every payload exactly", func(t *testing.T) {
		frame := Marshal(Data{Stream: 1, Path: []ids.NodeID{1, 2}, Payload: bytes.Repeat([]byte{7}, 100)})
		var got []Message
		for i := 0; i < 3; i++ {
			m, err := Unmarshal(frame)
			if err != nil {
				t.Fatal(err)
			}
			if p := m.(Data).Payload; cap(p) != len(p) || &p[0] == &frame[len(frame)-len(p)] {
				t.Fatal("Unmarshal's payload is not an exact copy of its own")
			}
			got = append(got, m)
		}
		if got[0].(Data).Path == nil || &got[0].(Data).Path[0] == &got[1].(Data).Path[0] ||
			&got[0].(Data).Payload[0] == &got[1].(Data).Payload[0] {
			t.Fatal("two Unmarshal results share storage")
		}
		for _, m := range got {
			if !reflect.DeepEqual(m, got[0]) {
				t.Fatalf("Unmarshal gave %v and %v for one frame", got[0], m)
			}
		}
	})
}
