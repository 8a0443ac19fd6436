package core

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"repro/internal/blob"
	"repro/internal/ids"
	"repro/internal/node"
	"repro/internal/wire"
)

// ----------------------------------------------------- in-memory harness
//
// A tiny synchronous message net: every Send is queued and delivered FIFO,
// so a handful of Protocols exercise the real wire handlers without a
// runtime. Timers never fire — blob dissemination is event-driven, which is
// exactly what these tests pin.

type testNet struct {
	t     *testing.T
	procs map[ids.NodeID]*Protocol
	queue []testFrame
	// drop, when set, filters messages (returning true swallows them).
	drop func(from, to ids.NodeID, m wire.Message) bool
	now  time.Time
}

type testFrame struct {
	from, to ids.NodeID
	m        wire.Message
}

type testTimer struct{}

func (testTimer) Stop() bool { return false }

type testEnv struct {
	net *testNet
	id  ids.NodeID
	rnd *rand.Rand
}

func (e *testEnv) ID() ids.NodeID                         { return e.id }
func (e *testEnv) Now() time.Time                         { return e.net.now }
func (e *testEnv) Rand() *rand.Rand                       { return e.rnd }
func (e *testEnv) After(time.Duration, func()) node.Timer { return testTimer{} }
func (e *testEnv) Connect(ids.NodeID)                     {}
func (e *testEnv) Close(ids.NodeID)                       {}
func (e *testEnv) Connected(ids.NodeID) bool              { return true }
func (e *testEnv) Log(string, ...any)                     {}
func (e *testEnv) Send(to ids.NodeID, m wire.Message) {
	if _, ok := e.net.procs[to]; !ok {
		return
	}
	e.net.queue = append(e.net.queue, testFrame{from: e.id, to: to, m: m})
}

type testPSS struct{ active []ids.NodeID }

func (f *testPSS) Active() []ids.NodeID             { return f.active }
func (f *testPSS) ActiveContains(p ids.NodeID) bool { return ids.Contains(f.active, p) }
func (f *testPSS) RTT(ids.NodeID) time.Duration     { return 0 }

// newTestNet builds a fully-connected clique of n nodes (ids 1..n) running
// the protocol in the given mode.
func newTestNet(t *testing.T, n int, cfg Config) *testNet {
	net := &testNet{
		t:     t,
		procs: make(map[ids.NodeID]*Protocol, n),
		now:   time.Unix(1000, 0),
	}
	all := make([]ids.NodeID, n)
	for i := range all {
		all[i] = ids.NodeID(i + 1)
	}
	for _, id := range all {
		var active []ids.NodeID
		for _, other := range all {
			if other != id {
				active = append(active, other)
			}
		}
		c := cfg
		c.PSS = &testPSS{active: active}
		p := New(c)
		p.Start(&testEnv{net: net, id: id, rnd: rand.New(rand.NewSource(int64(id)))})
		net.procs[id] = p
	}
	return net
}

// run delivers queued messages until the net is quiescent.
func (n *testNet) run() {
	for steps := 0; len(n.queue) > 0; steps++ {
		if steps > 1_000_000 {
			n.t.Fatal("testNet did not quiesce")
		}
		f := n.queue[0]
		n.queue = n.queue[1:]
		if n.drop != nil && n.drop(f.from, f.to, f.m) {
			continue
		}
		n.procs[f.to].Receive(f.from, f.m)
	}
}

// ----------------------------------------------------------- dissemination

func TestBlobPushEndToEnd(t *testing.T) {
	net := newTestNet(t, 4, Config{Mode: ModeTree})
	data := make([]byte, 3000)
	rand.New(rand.NewSource(9)).Read(data)

	var got [][]byte
	for id := ids.NodeID(2); id <= 4; id++ {
		p := net.procs[id]
		p.Blobs().Add(func(d BlobDelivery) { got = append(got, d.Data) })
	}
	bid, err := net.procs[1].PublishBlob(7, data, blob.Params{ChunkSize: 256, Total: 14})
	if err != nil {
		t.Fatal(err)
	}
	if bid != 1 {
		t.Fatalf("first blob id = %d, want 1", bid)
	}
	net.run()

	if len(got) != 3 {
		t.Fatalf("%d deliveries, want 3", len(got))
	}
	for i, d := range got {
		if !bytes.Equal(d, data) {
			t.Fatalf("delivery %d is not byte-identical", i)
		}
	}
	for id := ids.NodeID(1); id <= 4; id++ {
		if n := net.procs[id].BlobsDelivered(7); n != 1 {
			t.Errorf("node %d: BlobsDelivered = %d, want 1", id, n)
		}
	}
	// Pushing K chunks through a 4-clique produces duplicates, which must
	// feed the deactivation machinery: a tree emerges even on a blob-only
	// stream.
	stats := net.procs[2].BlobStats(7)
	if stats.ChunksReceived == 0 || stats.ChunkDups == 0 {
		t.Errorf("receiver stats look wrong: %+v", stats)
	}
	if parents := net.procs[2].Parents(7); len(parents) != 1 {
		t.Errorf("node 2 has %d parents, want 1", len(parents))
	}
	src := net.procs[1].BlobStats(7)
	if src.Published != 1 || src.ChunkBytesSent == 0 {
		t.Errorf("source stats look wrong: %+v", src)
	}
}

func TestBlobPullRepairViaHave(t *testing.T) {
	net := newTestNet(t, 2, Config{Mode: ModeTree})
	data := make([]byte, 2000)
	rand.New(rand.NewSource(3)).Read(data)

	// Drop every pushed chunk with an even index on its way to node 2; no
	// parity, so the blob cannot complete from the push alone.
	net.drop = func(from, to ids.NodeID, m wire.Message) bool {
		c, ok := m.(wire.BlobChunk)
		return ok && to == 2 && c.Index%2 == 0
	}
	if _, err := net.procs[1].PublishBlob(7, data, blob.Params{ChunkSize: 128}); err != nil {
		t.Fatal(err)
	}
	net.run()
	if n := net.procs[2].BlobsDelivered(7); n != 0 {
		t.Fatalf("blob completed despite dropped chunks")
	}

	// The source's possession ad (as broadcast on completion, or as it
	// rides a keep-alive piggyback) triggers Want → served chunks → done.
	net.drop = nil
	st := net.procs[1].lookup(7)
	net.procs[1].sendHave(st, st.blobs[1])
	net.run()

	if n := net.procs[2].BlobsDelivered(7); n != 1 {
		t.Fatal("pull repair did not complete the blob")
	}
	stats := net.procs[2].BlobStats(7)
	if stats.WantsSent == 0 || stats.ChunksPulled == 0 {
		t.Errorf("pull counters not advanced: %+v", stats)
	}
	if served := net.procs[1].BlobStats(7).ChunksServed; served == 0 {
		t.Error("source served no chunks")
	}
}

func TestBlobPullRepairViaPiggyback(t *testing.T) {
	net := newTestNet(t, 2, Config{Mode: ModeTree})
	data := make([]byte, 900)
	rand.New(rand.NewSource(5)).Read(data)

	// Node 2 misses the entire push: it learns of the blob purely from the
	// keep-alive piggyback possession ad (the late-joiner path).
	net.drop = func(from, to ids.NodeID, m wire.Message) bool {
		_, ok := m.(wire.BlobChunk)
		return ok && to == 2
	}
	if _, err := net.procs[1].PublishBlob(7, data, blob.Params{ChunkSize: 128, Total: 10}); err != nil {
		t.Fatal(err)
	}
	net.run()
	net.drop = nil

	pb := net.procs[1].PiggybackBlob()
	if pb == nil {
		t.Fatal("source emitted no piggyback despite holding a blob")
	}
	net.procs[2].HandlePiggyback(1, pb)
	net.run()
	// One Want round pulls at most MaxWantIndices chunks; 8 data chunks
	// fit, so one round completes it.
	if n := net.procs[2].BlobsDelivered(7); n != 1 {
		t.Fatal("piggyback ad did not drive pull repair to completion")
	}
	out := net.procs[2].lookup(7).blobs[1].data
	if !bytes.Equal(out, data) {
		t.Fatal("reconstructed payload differs")
	}
}

func TestBlobWantRetryRateLimit(t *testing.T) {
	net := newTestNet(t, 2, Config{Mode: ModeTree, BlobWantRetry: time.Second})
	data := make([]byte, 512)
	rand.New(rand.NewSource(8)).Read(data)

	net.drop = func(from, to ids.NodeID, m wire.Message) bool {
		_, ok := m.(wire.BlobChunk)
		return ok // nothing gets through, ever
	}
	if _, err := net.procs[1].PublishBlob(7, data, blob.Params{ChunkSize: 128}); err != nil {
		t.Fatal(err)
	}
	net.run()

	pb := net.procs[1].PiggybackBlob()
	net.procs[2].HandlePiggyback(1, pb)
	net.procs[2].HandlePiggyback(1, pb) // immediate re-ad: must not re-Want
	net.run()
	if w := net.procs[2].BlobStats(7).WantsSent; w != 4 {
		t.Fatalf("WantsSent = %d, want 4 (one per missing chunk)", w)
	}
	net.now = net.now.Add(2 * time.Second) // past the retry interval
	net.procs[2].HandlePiggyback(1, pb)
	net.run()
	if w := net.procs[2].BlobStats(7).WantsSent; w != 8 {
		t.Fatalf("WantsSent after retry window = %d, want 8", w)
	}
}

func TestBlobWantRarestFirst(t *testing.T) {
	net := newTestNet(t, 2, Config{Mode: ModeTree, BlobWantRetry: time.Minute})
	p := net.procs[2]
	bm := func(idxs ...int) []byte {
		m := blob.NewBitmap(4)
		for _, i := range idxs {
			m.Set(i)
		}
		return m
	}
	ad := func(from ids.NodeID, idxs ...int) {
		p.Receive(from, wire.BlobHave{
			Stream: 7, Blob: 1, K: 4, N: 4, Size: 512, ChunkSize: 128,
			Bitmap: bm(idxs...),
		})
	}

	// Seed advertisements while every index is inside the retry window, so
	// only the population estimate accumulates — no Wants go out yet.
	st := p.getStream(7)
	b := p.ensureBlob(st, 1, 4, 4, 512, 128)
	b.wantedAt = map[uint16]time.Time{0: net.now, 1: net.now, 2: net.now, 3: net.now}
	ad(100, 0, 1, 3)
	ad(101, 0, 1, 2)
	ad(102, 0, 3)
	if w := p.BlobStats(7).WantsSent; w != 0 {
		t.Fatalf("WantsSent during seeding = %d, want 0", w)
	}

	// Past the retry window, a full advertisement triggers one Want for all
	// four chunks. Possession counts across the four ads: chunk 0 → 4,
	// chunk 1 → 3, chunk 2 → 2, chunk 3 → 3 — so rarest-first order is
	// chunk 2, then 1 and 3 (tie broken by index), then 0.
	var got []uint16
	net.drop = func(from, to ids.NodeID, m wire.Message) bool {
		if w, ok := m.(wire.BlobWant); ok && from == 2 {
			got = append(got, w.Indices...)
			return true
		}
		return false
	}
	net.now = net.now.Add(2 * time.Minute)
	ad(1, 0, 1, 2, 3)
	net.run()
	want := []uint16{2, 1, 3, 0}
	if len(got) != len(want) {
		t.Fatalf("Want indices = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Want indices = %v, want %v (rarest first)", got, want)
		}
	}
}

// ----------------------------------------------------------- drop policy

func TestBlobEvictionBound(t *testing.T) {
	net := newTestNet(t, 2, Config{Mode: ModeTree, MaxBlobs: 2})
	payload := func(i byte) []byte { return bytes.Repeat([]byte{i}, 300) }

	// Drop chunk 0 toward node 2 for blob 2 only: blob 2 stays incomplete.
	net.drop = func(from, to ids.NodeID, m wire.Message) bool {
		c, ok := m.(wire.BlobChunk)
		return ok && to == 2 && c.Blob == 2 && c.Index == 0
	}
	for i := byte(1); i <= 3; i++ {
		if _, err := net.procs[1].PublishBlob(7, payload(i), blob.Params{ChunkSize: 128}); err != nil {
			t.Fatal(err)
		}
		net.run()
	}
	st := net.procs[2].lookup(7)
	if len(st.blobs) != 2 {
		t.Fatalf("receiver retains %d blobs, want 2 (MaxBlobs)", len(st.blobs))
	}
	if _, ok := st.blobs[1]; ok {
		t.Error("lowest blob id not evicted")
	}
	if st.blobFloor != 1 {
		t.Errorf("blobFloor = %d, want 1", st.blobFloor)
	}
	// Blob 1 completed before eviction; blob 2 is the incomplete one and is
	// still buffered, so no drop has been counted yet.
	if d := net.procs[2].BlobStats(7).Dropped; d != 0 {
		t.Errorf("Dropped = %d, want 0", d)
	}
	// A late chunk of evicted blob 1 must not resurrect its state.
	net.procs[2].onBlobChunk(1, wire.BlobChunk{
		Stream: 7, Blob: 1, Index: 0, K: 3, N: 3, Size: 300, ChunkSize: 128,
		Payload: payload(1)[:128],
	})
	if _, ok := st.blobs[1]; ok {
		t.Error("evicted blob state recreated below the floor")
	}

	// The source, too, is bounded: it retains MaxBlobs of its own blobs.
	if srcSt := net.procs[1].lookup(7); len(srcSt.blobs) != 2 {
		t.Errorf("source retains %d blobs, want 2", len(srcSt.blobs))
	}

	// Evicting an *incomplete* blob counts as a drop.
	if _, err := net.procs[1].PublishBlob(7, payload(4), blob.Params{ChunkSize: 128}); err != nil {
		t.Fatal(err)
	}
	net.run()
	if d := net.procs[2].BlobStats(7).Dropped; d != 1 {
		t.Errorf("Dropped after evicting incomplete blob = %d, want 1", d)
	}
}

// ----------------------------------------------------------- hostile input

func TestBlobHostileFramesIgnored(t *testing.T) {
	net := newTestNet(t, 2, Config{Mode: ModeTree})
	p := net.procs[2]
	hostile := []wire.Message{
		// Geometry lies: K not matching Size/ChunkSize, zero fields, K>N.
		wire.BlobChunk{Stream: 7, Blob: 1, Index: 0, K: 9, N: 9, Size: 10, ChunkSize: 128, Payload: []byte("x")},
		wire.BlobChunk{Stream: 7, Blob: 1, Index: 0, K: 0, N: 0, Size: 10, ChunkSize: 128},
		wire.BlobChunk{Stream: 7, Blob: 1, Index: 5, K: 2, N: 2, Size: 200, ChunkSize: 128}, // index out of range
		wire.BlobChunk{Stream: 7, Blob: 0, Index: 0, K: 1, N: 1, Size: 10, ChunkSize: 128},  // blob id 0
		wire.BlobChunk{Stream: 7, Blob: 1, Index: 0, K: 2, N: 4, Size: 200, ChunkSize: 128,
			Payload: bytes.Repeat([]byte("y"), 300)}, // oversized payload
		wire.BlobChunk{Stream: 7, Blob: 1, Index: 0, K: 2, N: 300, Size: 200, ChunkSize: 128}, // N beyond GF(256)
		wire.BlobHave{Stream: 7, Blob: 1, K: 5, N: 2, Size: 200, ChunkSize: 128},
		wire.BlobWant{Stream: 99, Blob: 1, Indices: []uint16{0}}, // unknown stream
	}
	for _, m := range hostile {
		p.Receive(1, m)
	}
	net.run()
	if st := p.lookup(7); st != nil && len(st.blobs) != 0 {
		t.Fatalf("hostile frames created blob state: %d blobs", len(st.blobs))
	}
	if got := p.Metrics().BlobChunks; got != 0 {
		t.Fatalf("hostile chunks counted as receptions: %d", got)
	}

	// Geometry conflict with existing state: first valid chunk pins the
	// geometry, a conflicting one is ignored.
	valid := wire.BlobChunk{Stream: 7, Blob: 1, Index: 0, K: 2, N: 2, Size: 200,
		ChunkSize: 128, Payload: bytes.Repeat([]byte("a"), 128)}
	p.Receive(1, valid)
	conflict := valid
	conflict.Size = 199
	conflict.Index = 1
	p.Receive(1, conflict)
	net.run()
	st := p.lookup(7)
	if b := st.blobs[1]; b == nil || b.haveN != 1 || b.size != 200 {
		t.Fatal("geometry conflict corrupted blob state")
	}
}
