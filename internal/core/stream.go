package core

import (
	"slices"
	"time"

	"repro/internal/ids"
	"repro/internal/wire"
)

// facet is a set a neighbor record can be in: a presence bit each.
type facet uint8

const (
	fParent      facet = 1 << iota // the peer feeds this stream; adoptedAt is set
	fInactiveIn                    // we deactivated the inbound link from the peer
	fOutInactive                   // the peer deactivated our link to it (or symmetric)
)

// instant is a reading of the node's clock in Unix nanoseconds, hyparview's
// heartbeat clock; 0 means never, which no reading is (the simulator's epoch
// is Unix 10⁹ s, a wall clock is never 0). An interval from never, now - 0,
// is above every threshold, as time.Sub from a zero time.Time is.
type instant int64

// time returns t as a time.Time, the zero one for never. Exact for the
// UnixNano that strategies score.
func (t instant) time() time.Time {
	if t == 0 {
		return time.Time{}
	}
	return time.Unix(0, int64(t))
}

// neighbor is all a stream remembers about one peer: the sets it is in and
// what we last learned about its position in the stream's structure — from
// its data messages and from keep-alive piggybacks. Soft repair (§II-F) uses
// this to pick an eligible replacement parent with local knowledge only. A
// record made for one reason leaves every other field at the value readers
// take as never learned: a cooldown does not make a position look known.
// The fields are ordered so the record packs into 56 bytes.
type neighbor struct {
	id ids.NodeID
	// lastHop is the peer's upstream node in the last path seen from it
	// (tree mode). Repair uses it to refuse candidates that were fed by the
	// node that just failed: two siblings of a dead parent would otherwise
	// adopt each other on equally-stale knowledge and close a silent cycle
	// that carries no data — invisible to the exact path check, and, with
	// piggybacks disabled, to the stall detector too.
	lastHop    ids.NodeID
	adoptedAt  instant // when the peer became a parent (with fParent)
	firstHeard instant // first data reception; 0 if none yet
	// cooldownUntil bars a peer dropped by cycle detection or stall repair
	// from proactive re-adoption until that instant.
	cooldownUntil instant
	uptime        uint32 // piggybacked uptime in seconds; 0 if unknown
	degree        int32  // piggybacked outgoing degree; -1 if unknown
	depth         uint16 // DAG depth label; wire.NoDepth if unknown
	facets        facet
	pathHasMe     bool // tree: the last path seen from this peer contains us
	pathKnown     bool
	// parentIsMe reports that the peer's last piggyback listed us among
	// its parents — adopting it would close a direct two-node cycle.
	parentIsMe bool
}

// seqWindow is a compacting bitset over the out-of-order delivered sequence
// numbers above a stream's contiguous prefix. The previous representation —
// map[uint32]struct{} — cost a heap-allocated bucket chain per gap and
// rehash churn at scale; the window costs one bit per in-flight sequence
// and compacts as the contiguous prefix advances. Sequences beyond the
// dense span (a malformed or hostile far-future Seq) fall back to a sparse
// map, so one bogus message cannot force a giant allocation.
type seqWindow struct {
	base  uint32 // sequence number of bit 0, 64-aligned below contigUpTo
	words []uint64
	far   map[uint32]struct{} // delivered seqs at or beyond base+denseSpan
}

// maxWindowWords bounds the dense bitset: a 1M-sequence span in 128 KiB.
const maxWindowWords = 1 << 14

// denseSpan is the number of sequences the dense bitset can cover.
const denseSpan = maxWindowWords << 6

// reset anchors the window at the stream's first observed sequence.
func (w *seqWindow) reset(floor uint32) {
	w.base = floor &^ 63
	w.words = w.words[:0]
	w.far = nil
}

func (w *seqWindow) has(seq uint32) bool {
	if seq < w.base {
		return false
	}
	i := seq - w.base
	if i >= denseSpan {
		_, ok := w.far[seq]
		return ok
	}
	word := int(i >> 6)
	return word < len(w.words) && w.words[word]&(1<<(i&63)) != 0
}

func (w *seqWindow) set(seq uint32) {
	i := seq - w.base
	if i >= denseSpan {
		if w.far == nil {
			w.far = make(map[uint32]struct{})
		}
		w.far[seq] = struct{}{}
		return
	}
	word := int(i >> 6)
	for word >= len(w.words) {
		w.words = append(w.words, 0)
	}
	w.words[word] |= 1 << (i & 63)
}

func (w *seqWindow) clear(seq uint32) {
	if seq < w.base {
		return
	}
	i := seq - w.base
	if i >= denseSpan {
		delete(w.far, seq)
		return
	}
	word := int(i >> 6)
	if word < len(w.words) {
		w.words[word] &^= 1 << (i & 63)
	}
}

// compactWords is how many fully-consumed leading words accumulate before
// the window shifts them out (amortizes the copy).
const compactWords = 8

// compact drops whole words strictly below contig — every bit under the
// contiguous prefix is dead (isDelivered answers from the prefix first) —
// and migrates far entries that the advanced base now covers densely.
func (w *seqWindow) compact(contig uint32) {
	if contig <= w.base {
		return
	}
	k := int((contig - w.base) >> 6)
	if k < compactWords {
		return
	}
	if k > len(w.words) {
		k = len(w.words)
	}
	copy(w.words, w.words[k:])
	w.words = w.words[:len(w.words)-k]
	w.base += uint32(k) << 6
	if len(w.far) > 0 {
		//brisa:orderinvariant bit sets commute: each far seq is deleted and set independently, no ordering can leak out
		for seq := range w.far {
			if seq-w.base < denseSpan {
				delete(w.far, seq)
				if seq >= contig {
					w.set(seq)
				}
			}
		}
	}
}

// stream is the per-stream protocol state of one node.
//
// Per-peer state is one table, nbrs: ascending by id and one record per
// peer, so every walk is in a run-stable order. info creates a record,
// forget removes it when the peer leaves the view; in between, set
// membership is a facet bit and every other field starts out unknown. A
// *neighbor points into the table and an insert moves records: no pointer
// is held across a call that can reach info for another peer.
type stream struct {
	id     wire.StreamID
	source bool
	// nextSeq is the next sequence number to publish (source only).
	nextSeq uint32

	// --- reception state ---
	started    bool      // received at least one message (or is the source)
	contigUpTo uint32    // every seq in [base, contigUpTo) is delivered
	base       uint32    // first seq ever seen; history below it is not recovered
	newest     uint32    // highest seq delivered
	sparse     seqWindow // delivered seqs >= contigUpTo
	sparseN    int       // population of sparse (for DeliveredCount)

	// --- structure state ---
	nbrs     []neighbor
	nParents int          // records with fParent
	depth    uint16       // own DAG depth label (wire.NoDepth = undefined)
	myPath   []ids.NodeID // path from source to us incl. us (tree)

	// --- repair state ---
	orphanedAt    instant // non-zero while disconnected from the structure
	orphanWasHard bool
	lastRecovery  instant
	// lastParentDelivery is the last time a current parent delivered a new
	// message; used by the stall detector.
	lastParentDelivery instant
	// lastDeliveredAt is the last time any new message was delivered; used
	// to gate piggyback-driven catch-up on genuine idleness.
	lastDeliveredAt instant
	// graceParent is the previous parent during a make-before-break
	// switch: its inbound link stays active until graceUntil so the node
	// can revert if the new parent turns out to sit in its own subtree.
	graceParent ids.NodeID
	graceUntil  instant

	// --- buffering ---
	// ring keeps payloads for retransmission: slot seq % len(ring) holds
	// seq iff seq was delivered here and is within len(ring) of newest —
	// read off the delivery record, not the payload (empty is a message).
	ring [][]byte

	// --- blob state (see blob.go) ---
	blobs map[uint32]*blobState // in-flight + retained blobs, lazily allocated
	// nextBlob is the next blob id to publish (source only; ids start at 1).
	nextBlob uint32
	// blobFloor is the highest blob id ever evicted: state below it is never
	// recreated, so a dropped blob cannot oscillate back in via pull repair.
	blobFloor uint32
	// blobsDelivered counts blobs fully reconstructed (or published) here.
	blobsDelivered uint64
	blobStats      BlobStats

	// --- construction-time tracking (Figure 13) ---
	firstDeactivateAt instant
	constructedAt     instant
}

// newStream returns an empty stream with room for the active view's peers.
func newStream(id wire.StreamID, neighbors int) *stream {
	return &stream{id: id, depth: wire.NoDepth, nbrs: make([]neighbor, 0, neighbors)}
}

// isDelivered reports whether seq has been delivered already.
func (s *stream) isDelivered(seq uint32) bool {
	if !s.started {
		return false
	}
	if seq < s.base {
		return true // pre-join history; treat as seen
	}
	if seq < s.contigUpTo {
		return true
	}
	return s.sparse.has(seq)
}

// markDelivered records seq and advances the contiguous prefix. The first
// ever reception sets the baseline: history before the join is not chased.
// Idempotent: re-marking a delivered sequence changes nothing.
func (s *stream) markDelivered(seq uint32) {
	if !s.started {
		s.started = true
		s.base, s.contigUpTo, s.newest = seq, seq, seq
		s.sparse.reset(seq)
	}
	if s.isDelivered(seq) {
		return
	}
	s.newest = max(s.newest, seq)
	if seq == s.contigUpTo {
		s.contigUpTo++
		for s.sparse.has(s.contigUpTo) {
			s.sparse.clear(s.contigUpTo)
			s.sparseN--
			s.contigUpTo++
		}
		s.sparse.compact(s.contigUpTo)
		return
	}
	s.sparse.set(seq)
	s.sparseN++
}

// gapsBelow lists undelivered seqs in [contigUpTo, upTo), capped at max.
func (s *stream) gapsBelow(upTo uint32, max int) (lo, hi uint32, any bool) {
	if !s.started || upTo <= s.contigUpTo {
		return 0, 0, false
	}
	lo = s.contigUpTo
	hi = upTo
	if int(hi-lo) > max {
		hi = lo + uint32(max)
	}
	return lo, hi, true
}

// remember stores a just-delivered message for possible retransmission,
// unless it arrived cap or more behind the newest: its slot is a newer one's.
func (s *stream) remember(seq uint32, payload []byte, cap int) {
	if s.ring == nil {
		s.ring = make([][]byte, cap)
	}
	if s.newest-seq < uint32(cap) {
		s.ring[seq%uint32(cap)] = payload
	}
}

// lookup finds a buffered message by seq.
func (s *stream) lookup(seq uint32) ([]byte, bool) {
	n := uint32(len(s.ring))
	if n == 0 || seq < s.base || s.newest-seq >= n || !s.isDelivered(seq) {
		return nil, false
	}
	return s.ring[seq%n], true
}

// find returns the index of peer's record or, with false, of where it goes:
// a scan, for a handful of records.
func (s *stream) find(peer ids.NodeID) (int, bool) {
	for i := range s.nbrs {
		if id := s.nbrs[i].id; id >= peer {
			return i, id == peer
		}
	}
	return len(s.nbrs), false
}

// known returns peer's record, nil if there is none.
func (s *stream) known(peer ids.NodeID) *neighbor {
	if i, ok := s.find(peer); ok {
		return &s.nbrs[i]
	}
	return nil
}

// info returns peer's record, inserting a blank one if there is none, which
// moves the records behind it and may move the table.
func (s *stream) info(peer ids.NodeID) *neighbor {
	i, ok := s.find(peer)
	if !ok {
		s.nbrs = slices.Insert(s.nbrs, i, neighbor{id: peer, depth: wire.NoDepth, degree: -1})
	}
	return &s.nbrs[i]
}

// has reports whether peer is in any of the sets f.
func (s *stream) has(peer ids.NodeID, f facet) bool {
	nb := s.known(peer)
	return nb != nil && nb.facets&f != 0
}

// unset takes peer out of the sets f.
func (s *stream) unset(peer ids.NodeID, f facet) {
	if nb := s.known(peer); nb != nil {
		nb.facets &^= f
	}
}

// isParent reports whether peer currently feeds this stream.
func (s *stream) isParent(peer ids.NodeID) bool { return s.has(peer, fParent) }

// drop takes peer out of the parent set and reports whether it was in it.
func (s *stream) drop(peer ids.NodeID) bool {
	nb := s.known(peer)
	was := nb != nil && nb.facets&fParent != 0
	if was {
		nb.facets &^= fParent
		s.nParents--
	}
	return was
}

// appendParents appends the current parents to dst, ascending.
func (s *stream) appendParents(dst []ids.NodeID) []ids.NodeID {
	for i := range s.nbrs {
		if s.nbrs[i].facets&fParent != 0 {
			dst = append(dst, s.nbrs[i].id)
		}
	}
	return dst
}

// firstParent returns the lowest parent id, ids.Nil without parents.
func (s *stream) firstParent() ids.NodeID {
	for i := range s.nbrs {
		if s.nbrs[i].facets&fParent != 0 {
			return s.nbrs[i].id
		}
	}
	return ids.Nil
}

// forget wipes all that is known about a departed neighbor except that it is
// a parent (callers handle that for repair accounting).
func (s *stream) forget(peer ids.NodeID) {
	i, ok := s.find(peer)
	if !ok {
		return
	}
	parent, since := s.nbrs[i].facets&fParent, s.nbrs[i].adoptedAt
	s.nbrs = slices.Delete(s.nbrs, i, i+1)
	if parent != 0 {
		nb := s.info(peer) // a blank record again
		nb.facets, nb.adoptedAt = parent, since
	}
}
