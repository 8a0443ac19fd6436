package core

import (
	"bytes"
	"time"

	"repro/internal/blob"
	"repro/internal/ids"
	"repro/internal/wire"
)

// Keep-alive piggyback blob (§II-F): "leveraging the keep-alive messages
// used for monitoring the active view at the PSS level and piggyback
// up-to-date information required by the parent selection procedure."
//
// Per stream we piggyback:
//   - the DAG depth label (2 bytes),
//   - the node's uptime in seconds and outgoing degree (strategy inputs for
//     gerontocratic / load-balancing selection),
//   - the node's current path from the source (tree mode), so neighbors can
//     evaluate the §II-D eligibility condition without waiting for data.
//
// Layout: u8 streamCount, then per stream:
//   u32 stream | u16 depth | u32 uptimeSec | u16 degree | u32 upTo |
//   nodeIDs parents | nodeIDs path | u8 blobCount, then per blob:
//   u32 id | u16 k | u16 n | u32 size | u32 chunkSize | bytes bitmap

// maxPiggyBlobs bounds the blob possession ads per stream entry: the two
// most recent blobs — older ones finish via the completion-time BlobHave
// broadcast, and bitmaps are the piggyback's largest variable cost.
const maxPiggyBlobs = 2

// piggyBlob is one blob possession advertisement: the geometry (so a node
// that never saw a chunk can initialize reassembly state) plus the bitmap.
type piggyBlob struct {
	id        uint32
	k, n      uint16
	size      uint32
	chunkSize uint32
	bitmap    []byte
}

type piggyStream struct {
	stream  wire.StreamID
	depth   uint16
	uptime  uint32
	degree  uint16
	upTo    uint32 // contiguous delivery progress (stall detection/catch-up)
	parents []ids.NodeID
	path    []ids.NodeID
	blobs   [maxPiggyBlobs]piggyBlob
	nBlobs  int
}

// appendPiggyback appends the encoded entries to dst.
func appendPiggyback(dst []byte, entries []piggyStream) []byte {
	e := wire.Encoder{B: dst}
	e.U8(uint8(len(entries)))
	for _, it := range entries {
		e.U32(uint32(it.stream))
		e.U16(it.depth)
		e.U32(it.uptime)
		e.U16(it.degree)
		e.U32(it.upTo)
		e.NodeIDs(it.parents)
		e.NodeIDs(it.path)
		e.U8(uint8(it.nBlobs))
		for _, ad := range it.blobs[:it.nBlobs] {
			e.U32(ad.id)
			e.U16(ad.k)
			e.U16(ad.n)
			e.U32(ad.size)
			e.U32(ad.chunkSize)
			e.Bytes(ad.bitmap)
		}
	}
	return e.B
}

// decodePiggyback parses pb into the protocol's reused scratch buffers
// (entries and the identifier arena both survive only until the next call;
// blob ad bitmaps alias pb itself); a piggyback arrives with every
// keep-alive, so this path must not allocate.
func (p *Protocol) decodePiggyback(pb []byte) ([]piggyStream, error) {
	d := wire.Decoder{B: pb}
	n := int(d.U8())
	out := p.pbEntries[:0]
	arena := p.pbIDs[:0]
	for i := 0; i < n; i++ {
		it := piggyStream{
			stream: wire.StreamID(d.U32()),
			depth:  d.U16(),
			uptime: d.U32(),
			degree: d.U16(),
			upTo:   d.U32(),
		}
		arena, it.parents = d.NodeIDsAppend(arena)
		arena, it.path = d.NodeIDsAppend(arena)
		nAds := int(d.U8())
		for j := 0; j < nAds; j++ {
			ad := piggyBlob{
				id:        d.U32(),
				k:         d.U16(),
				n:         d.U16(),
				size:      d.U32(),
				chunkSize: d.U32(),
				bitmap:    d.Bytes(),
			}
			// Hostile counts beyond our own bound are consumed (to keep the
			// stream entries that follow decodable) but not kept.
			if j < maxPiggyBlobs {
				it.blobs[j] = ad
				it.nBlobs = j + 1
			}
		}
		out = append(out, it)
	}
	p.pbEntries = out[:0]
	p.pbIDs = arena[:0]
	return out, d.Finish()
}

// PiggybackBlob encodes this node's per-stream structural state for
// inclusion in outgoing keep-alives. Wire through
// hyparview.Config.Piggyback, which asks once per heartbeat round. The state
// is encoded into a reused scratch and an exact-size copy is returned: blobs
// handed to Env.Send are aliased by in-flight messages (and by receivers'
// decodePiggyback on the simulator) and are never written again.
func (p *Protocol) PiggybackBlob() []byte {
	if len(p.streams) == 0 {
		return nil
	}
	entries, parents := p.pbOut[:0], p.pbParents[:0]
	sids := p.appendStreamIDs(p.sidScratch[:0])
	p.sidScratch = sids[:0]
	for _, id := range sids {
		st := p.streams[id]
		if !st.started && len(st.blobs) == 0 {
			continue
		}
		uptime := p.env.Now().Sub(p.startedAt)
		mine := len(parents)
		parents = st.appendParents(parents)
		it := piggyStream{
			stream:  st.id,
			depth:   st.depth,
			uptime:  uint32(uptime / time.Second),
			degree:  uint16(p.childCount(st)),
			upTo:    st.contigUpTo,
			parents: parents[mine:],
			path:    st.myPath,
		}
		p.adBlobs(st, &it)
		entries = append(entries, it)
	}
	p.pbOut, p.pbParents = entries[:0], parents[:0]
	if len(entries) == 0 {
		return nil
	}
	p.pbScratch = appendPiggyback(p.pbScratch[:0], entries)
	return bytes.Clone(p.pbScratch)
}

// adBlobs fills the entry's possession advertisements: the two most recent
// (highest-id) blobs, ascending — the ones most likely still spreading.
func (p *Protocol) adBlobs(st *stream, it *piggyStream) {
	if len(st.blobs) == 0 {
		return
	}
	var lo, hi uint32 // two highest ids; blob ids start at 1
	//brisa:orderinvariant top-2 max-tracking commutes: the two highest ids are the same whatever the visit order
	for bid := range st.blobs {
		if bid > hi {
			lo, hi = hi, bid
		} else if bid > lo {
			lo = bid
		}
	}
	for _, bid := range [...]uint32{lo, hi} {
		if bid == 0 {
			continue
		}
		b := st.blobs[bid]
		it.blobs[it.nBlobs] = piggyBlob{
			id: bid, k: uint16(b.k), n: uint16(b.n),
			size: uint32(b.size), chunkSize: uint32(b.chunkSize),
			bitmap: b.have,
		}
		it.nBlobs++
	}
}

// HandlePiggyback ingests a neighbor's keep-alive piggyback. Wire through
// hyparview.Config.OnPiggyback.
func (p *Protocol) HandlePiggyback(peer ids.NodeID, pb []byte) {
	entries, err := p.decodePiggyback(pb)
	if err != nil {
		return // a malformed piggyback from a peer is ignored, not fatal
	}
	for _, it := range entries {
		st, ok := p.streams[it.stream]
		if !ok {
			if it.nBlobs == 0 {
				continue
			}
			// A late joiner learns of a blob stream purely from possession
			// ads: create state so pull repair can fetch the whole blob.
			st = p.getStream(it.stream)
		}
		pi := st.info(peer)
		pi.depth = it.depth
		pi.uptime = time.Duration(it.uptime) * time.Second
		pi.degree = int(it.degree)
		pi.pathHasMe = ids.Contains(it.path, p.env.ID())
		pi.pathKnown = true
		pi.parentIsMe = ids.Contains(it.parents, p.env.ID())
		// A parent whose label drifted to or below ours must be followed
		// or dropped; fresh eligibility info may also unblock parent
		// acquisition (a DAG node below target, a tree node mid-repair).
		p.enforceParentDepth(st, peer)
		p.acquireParents(st)
		// The progress report drives catch-up and stall detection.
		p.checkProgress(st, peer, it.upTo)
		// Possession ads drive pull repair (blob.go): request advertised
		// chunks we miss.
		for _, ad := range it.blobs[:it.nBlobs] {
			if ad.id == 0 || !validBlobGeometry(ad.k, ad.n, ad.size, ad.chunkSize) {
				continue
			}
			b := p.ensureBlob(st, ad.id, int(ad.k), int(ad.n), int(ad.size), int(ad.chunkSize))
			if b == nil {
				continue
			}
			p.maybeWant(st, b, peer, blob.Bitmap(ad.bitmap))
		}
	}
}
