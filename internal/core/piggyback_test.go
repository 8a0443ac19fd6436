package core

import (
	"bytes"
	"encoding/hex"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/blob"
	"repro/internal/ids"
	"repro/internal/wire"
)

// layoutHex is the piggyback of layoutNet's node 1: stream 3 with a tree
// path, stream 9 with two DAG parents and one blob ad. The layout is a wire
// format every peer reads, so this vector pins it byte for byte.
const layoutHex = "02" +
	"00000003" + "ffff" + "0000005a" + "0002" + "0000002a" + // stream, depth, uptime, degree, upTo
	"0001" + "000000000002" + // parents
	"0003" + "000000000064" + "000000000002" + "000000000001" + // path
	"00" + // ads
	"00000009" + "0003" + "0000005a" + "0002" + "00000011" +
	"0002" + "000000000003" + "000000000004" +
	"0000" +
	"01" + "00000005" + "0002" + "0003" + "00000064" + "00000040" + "00000001" + "01"

// layoutNet is a 5-node clique in the given mode whose node 1 holds the
// state layoutHex encodes, 90 s after it started. Node 2 knows stream 3
// and has delivered it up to 40.
func layoutNet(t *testing.T, mode Mode) *testNet {
	net := newTestNet(t, 5, Config{Mode: mode, Parents: 2})
	p := net.procs[1]
	net.now = net.now.Add(90 * time.Second)
	tree := p.getStream(3)
	tree.started, tree.contigUpTo = true, 42
	tree.myPath = []ids.NodeID{100, 2, 1}
	p.adoptParent(tree, 2)
	tree.info(5).facets |= fOutInactive
	dag := p.getStream(9)
	dag.started, dag.contigUpTo, dag.depth = true, 17, 3
	p.adoptParent(dag, 3)
	p.adoptParent(dag, 4)
	b := p.ensureBlob(dag, 5, 2, 3, 100, 64)
	b.have.Set(0)
	b.haveN = 1
	r := net.procs[2].getStream(3)
	r.markDelivered(1)
	r.contigUpTo = 40
	return net
}

// state copies every neighbour record and counter p holds, for comparing
// before and after a piggyback.
func state(p *Protocol) (map[wire.StreamID][]neighbor, Metrics) {
	out := make(map[wire.StreamID][]neighbor, len(p.streams))
	for _, st := range p.streams {
		out[st.id] = slices.Clone(st.nbrs)
	}
	return out, p.Metrics()
}

// handleUnchanged reports whether p ignored pb from peer: no record or
// counter moved.
func handleUnchanged(p *Protocol, peer ids.NodeID, pb []byte) bool {
	recs, m := state(p)
	p.HandlePiggyback(peer, pb)
	after, m2 := state(p)
	return reflect.DeepEqual(recs, after) && m == m2
}

func TestPiggybackLayout(t *testing.T) {
	if got := hex.EncodeToString(layoutNet(t, ModeDAG).procs[1].PiggybackBlob()); got != layoutHex {
		t.Errorf("piggyback\n got %s\nwant %s", got, layoutHex)
	}
}

func TestPiggybackRoundTrip(t *testing.T) {
	net := layoutNet(t, ModeDAG)
	r := net.procs[2]
	net.queue = nil
	r.HandlePiggyback(1, net.procs[1].PiggybackBlob())

	want := neighbor{id: 1, uptime: 90, degree: 2, depth: wire.NoDepth, pathHasMe: true, pathKnown: true, parentIsMe: true}
	if got := r.lookup(3).known(1); got == nil || *got != want {
		t.Errorf("stream 3 record = %+v, want %+v", got, want)
	}
	want = neighbor{id: 1, uptime: 90, degree: 2, depth: 3, pathKnown: true}
	if got := r.lookup(9).known(1); got == nil || *got != want {
		t.Errorf("stream 9 record = %+v, want %+v", got, want)
	}
	// upTo 42 against our 40: catch up from the peer that has it.
	req := wire.MsgRequest{Stream: 3, From: 40, To: 42}
	if !slices.ContainsFunc(net.queue, func(f testFrame) bool { return f.to == 1 && f.m == wire.Message(req) }) {
		t.Errorf("no %+v sent for the advertised progress: %+v", req, net.queue)
	}
}

func TestQuickPiggybackRoundTrip(t *testing.T) {
	f := func(stream uint32, depth uint16, uptime uint32, degree uint8, upTo uint32, seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		net := &testNet{t: t, procs: map[ids.NodeID]*Protocol{}, now: time.Unix(1000, 0)}
		active := []ids.NodeID{2}
		for i := 0; i < int(degree); i++ {
			active = append(active, ids.NodeID(10+i))
		}
		src := New(Config{Mode: ModeTree, PSS: &testPSS{active: active}})
		src.Start(&testEnv{net: net, id: 1})
		dst := New(Config{Mode: ModeTree, PSS: &testPSS{active: []ids.NodeID{1}}})
		dst.Start(&testEnv{net: net, id: 2})
		net.now = net.now.Add(time.Duration(uptime) * time.Second)

		path := make([]ids.NodeID, r.Intn(10))
		for i := range path {
			path[i] = ids.NodeID(r.Uint64() & uint64(ids.MaxID))
		}
		if len(path) > 0 && r.Intn(2) == 0 {
			path[r.Intn(len(path))] = 2
		}
		st := src.getStream(wire.StreamID(stream))
		st.started, st.depth, st.contigUpTo, st.myPath = true, depth, upTo, path
		dst.getStream(wire.StreamID(stream))
		dst.HandlePiggyback(1, src.PiggybackBlob())

		want := neighbor{id: 1, uptime: uptime, degree: int32(degree) + 1, depth: depth,
			pathHasMe: ids.Contains(path, 2), pathKnown: true}
		got := dst.lookup(wire.StreamID(stream)).known(1)
		return got != nil && *got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPiggybackBlobAdsRoundTrip(t *testing.T) {
	net := newTestNet(t, 2, Config{Mode: ModeTree})
	src, dst := net.procs[1], net.procs[2]
	st := src.getStream(1)
	for _, g := range []struct {
		id, k, n, size, chunk int
		have                  []int
	}{
		{1, 1, 1, 10, 64, []int{0}}, // the oldest: not advertised
		{3, 4, 6, 500, 128, []int{0, 1, 2, 3, 5}},
		{4, 1, 1, 10, 64, []int{0}},
	} {
		b := src.ensureBlob(st, uint32(g.id), g.k, g.n, g.size, g.chunk)
		for _, i := range g.have {
			b.have.Set(i)
		}
	}
	pb := src.PiggybackBlob()
	for cut := range len(pb) {
		if !handleUnchanged(dst, 1, pb[:cut]) {
			t.Fatalf("a piggyback truncated at %d of %d bytes changed the receiver", cut, len(pb))
		}
	}
	dst.HandlePiggyback(1, pb)

	got := dst.lookup(1)
	if got == nil || len(got.blobs) != 2 || got.blobs[1] != nil {
		t.Fatalf("receiver holds blobs %v, want 3 and 4", got.blobs)
	}
	for _, bid := range []uint32{3, 4} {
		s, r := st.blobs[bid], got.blobs[bid]
		if r.k != s.k || r.n != s.n || r.size != s.size || r.chunkSize != s.chunkSize || !bytes.Equal(r.ads[1], s.have) {
			t.Errorf("blob %d: receiver has k %d n %d size %d chunk %d ad %x, sender %d %d %d %d %x",
				bid, r.k, r.n, r.size, r.chunkSize, r.ads[1], s.k, s.n, s.size, s.chunkSize, s.have)
		}
	}
}

// TestPiggybackRejectsTruncation: every strict prefix of a valid piggyback
// is malformed and ignored whole, in either mode.
func TestPiggybackRejectsTruncation(t *testing.T) {
	for _, mode := range []Mode{ModeTree, ModeDAG} {
		net := layoutNet(t, mode)
		pb := net.procs[1].PiggybackBlob()
		for cut := range len(pb) {
			if !handleUnchanged(net.procs[2], 1, pb[:cut]) {
				t.Fatalf("%v: a piggyback truncated at %d of %d bytes changed the receiver", mode, cut, len(pb))
			}
		}
		if handleUnchanged(net.procs[2], 1, pb) {
			t.Fatalf("%v: the whole piggyback changed nothing either", mode)
		}
	}
}

// TestPiggybackAdvertisesAtMost255Streams: the stream count is one byte, so
// a node with more streams advertises the 255 lowest ids, not a count that
// wrapped and a blob every neighbour discards.
func TestPiggybackAdvertisesAtMost255Streams(t *testing.T) {
	net := newTestNet(t, 2, Config{Mode: ModeTree})
	src, dst := net.procs[1], net.procs[2]
	for id := wire.StreamID(300); id >= 1; id-- {
		if _, err := src.PublishBlob(id, []byte{byte(id)}, blob.Params{}); err != nil {
			t.Fatal(err)
		}
	}
	net.queue = nil
	dst.HandlePiggyback(1, src.PiggybackBlob())
	want := make([]wire.StreamID, 255)
	for i := range want {
		want[i] = wire.StreamID(i + 1)
	}
	if got := dst.StreamIDs(); !slices.Equal(got, want) {
		t.Fatalf("receiver holds streams %v, want 1..255", got)
	}
	for _, id := range want {
		if nb := dst.lookup(id).known(1); nb == nil || !nb.pathKnown {
			t.Fatalf("stream %d: no record of the source from its piggyback", id)
		}
	}
}

// FuzzPiggyback feeds arbitrary bytes to a receiver in each mode: it must
// not panic, a piggyback it rejects must leave it unchanged, and what it
// advertises afterwards must be well formed.
func FuzzPiggyback(f *testing.F) {
	pb, err := hex.DecodeString(layoutHex)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(pb)
	f.Add(pb[:len(pb)-1])
	f.Add(pb[:len(pb)/2])
	f.Fuzz(func(t *testing.T, pb []byte) {
		for _, mode := range []Mode{ModeTree, ModeDAG} {
			p := layoutNet(t, mode).procs[2]
			if valid := validPiggyback(pb); !handleUnchanged(p, 1, pb) && !valid {
				t.Fatalf("%v: a rejected piggyback changed the receiver", mode)
			}
			if out := p.PiggybackBlob(); out != nil && !validPiggyback(out) {
				t.Fatalf("%v: the receiver advertises a malformed piggyback %x", mode, out)
			}
		}
	})
}
