package core

import (
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

// maxPiggyStreams bounds the entries of one piggyback to what its u8 count
// can say; a node with more streams advertises the lowest ids.
const maxPiggyStreams = 255

// piggyBlob is one blob possession advertisement: the geometry (so a node
// that never saw a chunk can initialize reassembly state) plus the bitmap.
type piggyBlob struct {
	id        uint32
	k, n      uint16
	size      uint32
	chunkSize uint32
	bitmap    []byte
}

// advertised reports whether the piggyback carries an entry for st.
func advertised(st *stream) bool { return st.started || len(st.blobs) > 0 }

// adBlobs returns the blobs st's entry advertises: the two most recent
// (highest-id), ascending — the ones most likely still spreading.
func adBlobs(st *stream) (ads [maxPiggyBlobs]uint32, n int) {
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
		if bid != 0 {
			ads[n] = bid
			n++
		}
	}
	return ads, n
}

// entrySize is the encoded size of st's entry: the fixed fields, the two
// identifier lists, the ad count and each ad with its bitmap.
func entrySize(st *stream) int {
	size := 16 + 2 + st.nParents*ids.WireSize + 2 + len(st.myPath)*ids.WireSize + 1
	ads, n := adBlobs(st)
	for _, bid := range ads[:n] {
		size += 20 + len(st.blobs[bid].have)
	}
	return size
}

// PiggybackBlob encodes this node's per-stream structural state for
// inclusion in outgoing keep-alives. Wire through
// hyparview.Config.Piggyback, which asks once per heartbeat round. The state
// is sized first and then encoded into one exact-size slice: blobs handed to
// Env.Send are aliased by in-flight messages (and read in place by
// receivers on the simulator) and are never written again.
func (p *Protocol) PiggybackBlob() []byte {
	size, n := 1, 0
	for _, st := range p.streams {
		if n < maxPiggyStreams && advertised(st) {
			size += entrySize(st)
			n++
		}
	}
	if n == 0 {
		return nil
	}
	uptime := uint32(time.Duration(p.now()-p.startedAt) / time.Second)
	e := wire.Encoder{B: make([]byte, 0, size)}
	e.U8(uint8(n))
	for _, st := range p.streams {
		if n == 0 || !advertised(st) {
			continue
		}
		n-- // exactly the entries sized above
		e.U32(uint32(st.id))
		e.U16(st.depth)
		e.U32(uptime)
		e.U16(uint16(p.childCount(st)))
		e.U32(st.contigUpTo)
		e.U16(uint16(st.nParents))
		for i := range st.nbrs {
			if st.nbrs[i].facets&fParent != 0 {
				e.NodeID(st.nbrs[i].id)
			}
		}
		e.NodeIDs(st.myPath)
		ads, nAds := adBlobs(st)
		e.U8(uint8(nAds))
		for _, bid := range ads[:nAds] {
			b := st.blobs[bid]
			e.U32(bid)
			e.U16(uint16(b.k))
			e.U16(uint16(b.n))
			e.U32(uint32(b.size))
			e.U32(uint32(b.chunkSize))
			e.Bytes(b.have)
		}
	}
	return e.B
}

// pbEntry is a stream entry up to its blob ads, read in place: of the
// parent and path lists only whether they hold the reader is kept.
type pbEntry struct {
	stream                wire.StreamID
	depth, degree         uint16
	uptime, upTo          uint32
	parentIsMe, pathHasMe bool
	nAds                  int
}

// readEntry reads the next entry up to its blob ads.
func readEntry(d *wire.Decoder, me ids.NodeID) pbEntry {
	return pbEntry{ // fields in wire order: a literal evaluates left to right
		stream:     wire.StreamID(d.U32()),
		depth:      d.U16(),
		uptime:     d.U32(),
		degree:     d.U16(),
		upTo:       d.U32(),
		parentIsMe: readHas(d, me),
		pathHasMe:  readHas(d, me),
		nAds:       int(d.U8()),
	}
}

// readHas reads a u16-prefixed identifier list and reports whether it
// holds id.
func readHas(d *wire.Decoder, id ids.NodeID) bool {
	has := false
	for n := d.U16(); n > 0 && d.Err == nil; n-- {
		has = d.NodeID() == id || has
	}
	return has
}

// readAd reads one blob ad; its bitmap aliases the piggyback.
func readAd(d *wire.Decoder) piggyBlob {
	return piggyBlob{
		id:        d.U32(),
		k:         d.U16(),
		n:         d.U16(),
		size:      d.U32(),
		chunkSize: d.U32(),
		bitmap:    d.Bytes(),
	}
}

// validPiggyback reads pb to its end and reports whether it is well formed.
func validPiggyback(pb []byte) bool {
	d := wire.Decoder{B: pb}
	for n := d.U8(); n > 0; n-- {
		for ads := readEntry(&d, ids.Nil).nAds; ads > 0; ads-- {
			readAd(&d)
		}
	}
	return d.Finish() == nil
}

// HandlePiggyback ingests a neighbor's keep-alive piggyback. Wire through
// hyparview.Config.OnPiggyback. A piggyback arrives with every keep-alive,
// so it is read in place: once to validate it, once to apply it.
func (p *Protocol) HandlePiggyback(peer ids.NodeID, pb []byte) {
	if !validPiggyback(pb) {
		return // a malformed piggyback from a peer is ignored whole, not fatal
	}
	d := wire.Decoder{B: pb}
	for n := d.U8(); n > 0; n-- {
		it := readEntry(&d, p.env.ID())
		st := p.lookup(it.stream)
		if st == nil {
			if it.nAds == 0 {
				continue
			}
			// A late joiner learns of a blob stream purely from possession
			// ads: create state so pull repair can fetch the whole blob.
			st = p.getStream(it.stream)
		}
		pi := st.info(peer)
		pi.depth, pi.uptime, pi.degree = it.depth, it.uptime, int32(it.degree)
		pi.pathHasMe, pi.pathKnown, pi.parentIsMe = it.pathHasMe, true, it.parentIsMe
		// A parent whose label drifted to or below ours must be followed
		// or dropped; fresh eligibility info may also unblock parent
		// acquisition (a DAG node below target, a tree node mid-repair).
		p.enforceParentDepth(st, peer)
		p.acquireParents(st)
		// The progress report drives catch-up and stall detection.
		p.checkProgress(st, peer, it.upTo)
		// Possession ads drive pull repair (blob.go): request advertised
		// chunks we miss. Hostile counts beyond our own bound are read
		// past but not acted on.
		for j := 0; j < it.nAds; j++ {
			ad := readAd(&d)
			if j >= maxPiggyBlobs || ad.id == 0 || !validBlobGeometry(ad.k, ad.n, ad.size, ad.chunkSize) {
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
