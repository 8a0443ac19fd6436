package core

// Blob dissemination: chunked large payloads pushed over the emerged BRISA
// structure, reassembled on receivers, with a Have/Want pull-repair path and
// optional K-of-N erasure coding (internal/blob).
//
// Chunks ride the same structural machinery as Data — a first reception
// drives structOnNew (path embedding / depth labels, parent adoption), a
// duplicate drives structOnDup (link deactivation) — so a blob-only stream
// still emerges a tree or DAG. The source pushes only the K data chunks;
// parity chunks exist on demand: any complete node recomputes chunk i from
// the reconstructed payload when a neighbor Wants it. Possession bitmaps
// ride the keep-alive piggybacks (piggyback.go) and an explicit BlobHave on
// completion; receivers answer with BlobWant for the chunks they miss, so a
// node can serve chunk i while still pulling chunk i+1.
//
// Per-stream blob state is bounded by Config.MaxBlobs with drop-lowest-id
// eviction — sources number blobs monotonically, so the lowest id is the
// oldest. blobFloor remembers the highest evicted id; pull repair can never
// resurrect a dropped blob, which would otherwise thrash the bound.

import (
	"slices"
	"time"

	"repro/internal/blob"
	"repro/internal/ids"
	"repro/internal/node"
	"repro/internal/wire"
)

// blobState is one blob's reassembly/serving state on one node.
type blobState struct {
	id        uint32
	k, n      int
	size      int
	chunkSize int

	have  blob.Bitmap
	haveN int
	// chunks holds received chunk payloads while incomplete; nil once
	// complete (chunks are then recomputed from data on demand).
	chunks [][]byte
	// data is the reconstructed payload; non-nil means complete.
	data []byte

	firstAt     time.Time // first chunk reception (publish time at the source)
	completedAt time.Time
	// wantedAt rate-limits pull requests per missing chunk index.
	wantedAt map[uint16]time.Time
	// ads remembers each peer's latest advertised possession bitmap while
	// incomplete — the population estimate rarest-first pulls rank
	// against. Dropped on completion.
	ads map[ids.NodeID]blob.Bitmap
}

// chunkAt returns chunk idx if this node can serve it, else nil.
func (b *blobState) chunkAt(idx int) []byte {
	if idx < 0 || idx >= b.n {
		return nil
	}
	if b.data != nil {
		return blob.ChunkAt(b.data, b.chunkSize, b.k, idx)
	}
	if b.have.Has(idx) {
		return b.chunks[idx]
	}
	return nil
}

// BlobStats counts one stream's blob activity on one node. All counters are
// cumulative.
type BlobStats struct {
	Published      uint64 // blobs sourced by this node
	Delivered      uint64 // blobs fully reconstructed by this node
	Dropped        uint64 // incomplete blobs evicted by the MaxBlobs bound
	ChunksReceived uint64 // new chunk receptions
	ChunkDups      uint64 // duplicate chunk receptions
	ChunksPulled   uint64 // new chunks that arrived after a Want for them
	ChunksServed   uint64 // chunks sent in reply to Wants
	WantsSent      uint64 // chunk indices requested via BlobWant
	ChunkBytesSent uint64 // wire bytes of every BlobChunk sent (push + serve)
}

// BlobStats returns the blob counters for a stream.
func (p *Protocol) BlobStats(id wire.StreamID) BlobStats {
	if st := p.lookup(id); st != nil {
		return st.blobStats
	}
	return BlobStats{}
}

// BlobsDelivered returns how many blobs of the stream this node holds intact
// (reconstructed or locally published).
func (p *Protocol) BlobsDelivered(id wire.StreamID) uint64 {
	if st := p.lookup(id); st != nil {
		return st.blobsDelivered
	}
	return 0
}

// BlobDelivery is one completed blob handed to blob listeners.
type BlobDelivery struct {
	// Stream is the stream the blob belongs to.
	Stream wire.StreamID
	// ID is the source-assigned per-stream blob id (monotone from 1).
	ID uint32
	// Data is the reconstructed payload. Listeners must not modify it.
	Data []byte
	// FirstChunkAt is when the first chunk arrived (publish time at the
	// source); At is when reconstruction completed. At−FirstChunkAt is the
	// node's blob transfer time.
	FirstChunkAt, At time.Time
}

// Blobs is the registry of blob listeners: they receive every blob the node
// completes, on every stream, local publishes included, in completion order
// on the actor. Registration is safe from any goroutine.
func (p *Protocol) Blobs() *node.Listeners[BlobDelivery] { return &p.blobs }

// ---------------------------------------------------------------- publish

// PublishBlob splits data into chunks per prm (zero-valued fields take
// defaults: 64 KiB chunks, no parity), becomes the stream's source if not
// already, and pushes the K data chunks over the dissemination structure in
// index order. It returns the blob id. The caller must not modify data
// afterwards: chunk serving aliases it.
func (p *Protocol) PublishBlob(id wire.StreamID, data []byte, prm blob.Params) (uint32, error) {
	if prm.ChunkSize <= 0 {
		prm.ChunkSize = blob.DefaultChunkSize
	}
	k, n, err := prm.Plan(len(data))
	if err != nil {
		return 0, err
	}
	st := p.getStream(id)
	if !st.source {
		st.source = true
		st.depth = 0
		st.myPath = []ids.NodeID{p.env.ID()}
		st.nextSeq = 1
	}
	// Skip ids occupied by hostile state or below the eviction floor.
	bid := st.nextBlob + 1
	for {
		if _, taken := st.blobs[bid]; !taken && bid > st.blobFloor {
			break
		}
		bid++
	}
	st.nextBlob = bid

	now := p.env.Now()
	b := p.ensureBlob(st, bid, k, n, len(data), prm.ChunkSize)
	if b == nil {
		// Unreachable given the id scan above; fail loudly if it regresses.
		panic("core: PublishBlob could not allocate blob state")
	}
	b.data = data
	b.have.SetAll(n)
	b.haveN = n
	b.firstAt = now
	b.completedAt = now
	st.blobsDelivered++
	st.blobStats.Published++
	p.blobs.Emit(BlobDelivery{Stream: id, ID: bid, Data: data, FirstChunkAt: now, At: now})
	for i := 0; i < k; i++ {
		p.relayChunk(st, ids.Nil, b, i, blob.ChunkAt(data, prm.ChunkSize, k, i))
	}
	return bid, nil
}

// blobChunkMsg builds the BlobChunk frame for one chunk, stamped with this
// node's structural position (mirrors relay for Data).
func (p *Protocol) blobChunkMsg(st *stream, b *blobState, idx int, payload []byte) wire.BlobChunk {
	msg := wire.BlobChunk{
		Stream:    st.id,
		Blob:      b.id,
		Index:     uint16(idx),
		K:         uint16(b.k),
		N:         uint16(b.n),
		Size:      uint32(b.size),
		ChunkSize: uint32(b.chunkSize),
		Depth:     st.depth,
		Payload:   payload,
	}
	if p.cfg.Mode != ModeDAG {
		msg.Path = st.myPath
	}
	return msg
}

// relayChunk forwards one chunk to every outbound-active neighbor except the
// one it came from.
func (p *Protocol) relayChunk(st *stream, except ids.NodeID, b *blobState, idx int, payload []byte) {
	msg := p.blobChunkMsg(st, b, idx, payload)
	var m wire.Message // boxed once, on the first recipient (see relay)
	sent := 0
	for _, nb := range p.cfg.PSS.Active() {
		if nb == except || st.has(nb, fOutInactive) {
			continue
		}
		if m == nil {
			m = msg
		}
		p.env.Send(nb, m)
		sent++
	}
	st.blobStats.ChunkBytesSent += uint64(sent * msg.WireSize())
}

// ---------------------------------------------------------------- receive

// validBlobGeometry rejects frames whose (K, N, Size, ChunkSize) are
// inconsistent: K must be exactly ceil(Size/ChunkSize), parity requires the
// GF(256) bound, and sizes must respect the wire limits.
func validBlobGeometry(k, n uint16, size, chunkSize uint32) bool {
	if k == 0 || n < k || size == 0 || chunkSize == 0 || chunkSize > blob.MaxChunkSize {
		return false
	}
	if uint64(size) > uint64(k)*uint64(chunkSize) ||
		uint64(size) <= uint64(k-1)*uint64(chunkSize) {
		return false
	}
	if n > k && int(n) > blob.MaxTotal {
		return false
	}
	return true
}

// ensureBlob finds or creates the reassembly state for blob id, evicting the
// lowest-id blob when the MaxBlobs bound is hit. It returns nil when the
// blob must be ignored: evicted history (at or below blobFloor), older than
// everything a full buffer retains, or a geometry conflict with existing
// state (hostile or corrupt sender).
func (p *Protocol) ensureBlob(st *stream, id uint32, k, n, size, chunkSize int) *blobState {
	if b, ok := st.blobs[id]; ok {
		if b.k != k || b.n != n || b.size != size || b.chunkSize != chunkSize {
			return nil
		}
		return b
	}
	if id <= st.blobFloor {
		return nil
	}
	if st.blobs == nil {
		st.blobs = make(map[uint32]*blobState, p.cfg.MaxBlobs)
	}
	for len(st.blobs) >= p.cfg.MaxBlobs {
		lowest := uint32(0)
		//brisa:orderinvariant min-tracking commutes: the lowest blob id is the same whatever the visit order
		for bid := range st.blobs {
			if lowest == 0 || bid < lowest {
				lowest = bid
			}
		}
		if id <= lowest {
			return nil
		}
		old := st.blobs[lowest]
		delete(st.blobs, lowest)
		if lowest > st.blobFloor {
			st.blobFloor = lowest
		}
		if old.data == nil {
			st.blobStats.Dropped++
			p.metrics.BlobsDropped++
			p.emit(Event{Type: EvBlobDropped, Stream: st.id, Seq: lowest})
		}
	}
	b := &blobState{id: id, k: k, n: n, size: size, chunkSize: chunkSize, have: blob.NewBitmap(n)}
	st.blobs[id] = b
	return b
}

func (p *Protocol) onBlobChunk(from ids.NodeID, m wire.BlobChunk) {
	if m.Blob == 0 || !validBlobGeometry(m.K, m.N, m.Size, m.ChunkSize) ||
		m.Index >= m.N || len(m.Payload) > int(m.ChunkSize) {
		return
	}
	st := p.getStream(m.Stream)
	p.noteSender(st, from, m.Depth, m.Path)
	b := p.ensureBlob(st, m.Blob, int(m.K), int(m.N), int(m.Size), int(m.ChunkSize))
	if b == nil {
		return // evicted history or hostile geometry: not even a duplicate
	}
	idx := int(m.Index)
	if b.data != nil || b.have.Has(idx) {
		p.metrics.BlobChunkDups++
		st.blobStats.ChunkDups++
		p.structOnDup(st, from, m.Depth, m.Path)
		return
	}

	// New chunk: store and relay downstream (pipelining — the node serves
	// chunk i onward while chunk i+1 is still in flight).
	now := p.env.Now()
	at := instant(now.UnixNano())
	if b.chunks == nil {
		b.chunks = make([][]byte, b.n)
	}
	b.chunks[idx] = m.Payload
	b.have.Set(idx)
	b.haveN++
	if b.firstAt.IsZero() {
		b.firstAt = now
	}
	if _, wanted := b.wantedAt[m.Index]; wanted {
		delete(b.wantedAt, m.Index)
		st.blobStats.ChunksPulled++
	}
	p.metrics.BlobChunks++
	st.blobStats.ChunksReceived++
	st.lastDeliveredAt = at
	if st.isParent(from) {
		st.lastParentDelivery = at
	}
	if st.orphanedAt != 0 {
		p.emit(Event{
			Type: EvRepaired, Stream: st.id, Peer: from,
			Dur: time.Duration(at - st.orphanedAt), Hard: st.orphanWasHard,
		})
		st.orphanedAt = 0
		st.orphanWasHard = false
	}
	if !st.source {
		p.structOnNew(st, from, m.Depth, m.Path)
	}
	p.relayChunk(st, from, b, idx, m.Payload)
	if b.haveN >= b.k && b.data == nil {
		p.completeBlob(st, b)
	}
}

// completeBlob reconstructs the payload once K chunks are in, drops the
// chunk storage (serving recomputes from data), and advertises possession.
func (p *Protocol) completeBlob(st *stream, b *blobState) {
	data, err := blob.Reconstruct(b.chunks, b.k, b.size, b.chunkSize)
	if err != nil {
		return // inconsistent chunk set (hostile sender); keep collecting
	}
	now := p.env.Now()
	b.data = data
	b.chunks = nil
	b.have.SetAll(b.n)
	b.haveN = b.n
	b.wantedAt = nil
	b.ads = nil
	b.completedAt = now
	st.blobsDelivered++
	st.blobStats.Delivered++
	p.metrics.BlobsDelivered++
	p.emit(Event{Type: EvBlobDeliver, Stream: st.id, Seq: b.id, Dur: now.Sub(b.firstAt)})
	p.blobs.Emit(BlobDelivery{Stream: st.id, ID: b.id, Data: data, FirstChunkAt: b.firstAt, At: now})
	p.sendHave(st, b)
}

// sendHave broadcasts this node's possession bitmap for a blob to its
// outbound-active neighbors, prompting BlobWant pulls from any that miss
// chunks. Sent on completion; the same information rides every keep-alive
// piggyback for late joiners.
func (p *Protocol) sendHave(st *stream, b *blobState) {
	var m wire.Message = wire.BlobHave{
		Stream: st.id, Blob: b.id, K: uint16(b.k), N: uint16(b.n),
		Size: uint32(b.size), ChunkSize: uint32(b.chunkSize),
		Bitmap: append([]byte(nil), b.have...),
	}
	for _, nb := range p.cfg.PSS.Active() {
		if st.has(nb, fOutInactive) {
			continue
		}
		p.env.Send(nb, m)
	}
}

func (p *Protocol) onBlobHave(from ids.NodeID, m wire.BlobHave) {
	if m.Blob == 0 || !validBlobGeometry(m.K, m.N, m.Size, m.ChunkSize) {
		return
	}
	st := p.getStream(m.Stream)
	b := p.ensureBlob(st, m.Blob, int(m.K), int(m.N), int(m.Size), int(m.ChunkSize))
	if b == nil {
		return
	}
	p.maybeWant(st, b, from, blob.Bitmap(m.Bitmap))
}

// maybeWant requests missing chunks the peer advertises, rarest first:
// candidates (missing ∩ advertised, not rate-limited by BlobWantRetry) are
// ordered by how few of the advertising peers seen so far possess them,
// ties broken by ascending index for determinism, capped at what completion
// still needs and at the wire bound. Pulling the rarest chunks first keeps
// scarce chunks circulating instead of letting every straggler converge on
// the same common ones.
func (p *Protocol) maybeWant(st *stream, b *blobState, peer ids.NodeID, peerHave blob.Bitmap) {
	if b.data != nil {
		return
	}
	// Remember this peer's advertisement (copied: piggyback bitmaps alias
	// the decode buffer) — the possession counts rarity ranks against.
	if b.ads == nil {
		b.ads = make(map[ids.NodeID]blob.Bitmap)
	}
	b.ads[peer] = append(b.ads[peer][:0], peerHave...)
	now := p.env.Now()
	need := b.k - b.haveN
	if need > wire.MaxWantIndices {
		need = wire.MaxWantIndices
	}
	var want []uint16
	for i := 0; i < b.n; i++ {
		if b.have.Has(i) || !peerHave.Has(i) {
			continue
		}
		if at, asked := b.wantedAt[uint16(i)]; asked && now.Sub(at) < p.cfg.BlobWantRetry {
			continue
		}
		want = append(want, uint16(i))
	}
	if len(want) == 0 {
		return
	}
	rarity := make(map[uint16]int, len(want))
	for _, have := range b.ads { //brisa:orderinvariant commutative possession counting
		for _, ix := range want {
			if have.Has(int(ix)) {
				rarity[ix]++
			}
		}
	}
	slices.SortFunc(want, func(a, c uint16) int {
		if rarity[a] != rarity[c] {
			return rarity[a] - rarity[c]
		}
		return int(a) - int(c)
	})
	if len(want) > need {
		want = want[:need]
	}
	if b.wantedAt == nil {
		b.wantedAt = make(map[uint16]time.Time, len(want))
	}
	for _, ix := range want {
		b.wantedAt[ix] = now
	}
	p.env.Send(peer, wire.BlobWant{Stream: st.id, Blob: b.id, Indices: want})
	st.blobStats.WantsSent += uint64(len(want))
	p.metrics.BlobWantsSent += uint64(len(want))
}

func (p *Protocol) onBlobWant(from ids.NodeID, m wire.BlobWant) {
	st := p.lookup(m.Stream)
	if st == nil {
		return
	}
	b, ok := st.blobs[m.Blob]
	if !ok {
		return
	}
	idxs := m.Indices
	if len(idxs) > wire.MaxWantIndices {
		idxs = idxs[:wire.MaxWantIndices]
	}
	for _, ix := range idxs {
		payload := b.chunkAt(int(ix))
		if payload == nil {
			continue
		}
		msg := p.blobChunkMsg(st, b, int(ix), payload)
		p.env.Send(from, msg)
		st.blobStats.ChunksServed++
		st.blobStats.ChunkBytesSent += uint64(msg.WireSize())
	}
}
