package core

// Property tests for the delivered-sequence tracking: the compacting
// seqWindow bitset and the stream-level markDelivered/isDelivered logic are
// driven with randomized interleavings of in-order, duplicate, gap-filling
// and far-future sequence numbers, and checked after every operation
// against a naive map model. The far-future draws force the sparse-map
// fallback (`far`), and the in-order phases force compaction, so all three
// representations and the migrations between them are covered.

import (
	"math/rand"
	"testing"
)

// naiveSeqs is the reference model: a plain set of delivered sequences. The
// contiguous prefix and the above-prefix population are maintained
// incrementally so the model stays O(1) amortized per op (a full rescan per
// op made the test quadratic), but always straight from the plain set.
type naiveSeqs struct {
	base      uint32
	delivered map[uint32]bool
	started   bool
	contigAt  uint32 // first undelivered sequence at or above base
	sparse    int    // delivered sequences at or above contigAt
}

func (n *naiveSeqs) mark(seq uint32) {
	if !n.started {
		n.started = true
		n.base = seq
		n.contigAt = seq
		n.delivered = make(map[uint32]bool)
	}
	if seq < n.base || n.delivered[seq] {
		return
	}
	n.delivered[seq] = true
	n.sparse++
	for n.delivered[n.contigAt] {
		n.contigAt++
		n.sparse--
	}
}

func (n *naiveSeqs) has(seq uint32) bool {
	if !n.started {
		return false
	}
	if seq < n.base {
		return true // pre-join history counts as seen
	}
	return n.delivered[seq]
}

// contig returns the first undelivered sequence at or above base.
func (n *naiveSeqs) contig() uint32 {
	if !n.started {
		return 0
	}
	return n.contigAt
}

// count returns the number of distinct delivered sequences.
func (n *naiveSeqs) count() uint64 { return uint64(len(n.delivered)) }

// seqDraw produces the next sequence number for a given op mix, biased to
// exercise specific representation transitions.
func seqDraw(r *rand.Rand, model *naiveSeqs) uint32 {
	if !model.started {
		return uint32(r.Intn(100))
	}
	c := model.contig()
	switch r.Intn(10) {
	case 0, 1, 2, 3: // in-order: advances the prefix, triggers compaction
		return c
	case 4, 5: // duplicate of something delivered (if any)
		if len(model.delivered) > 0 {
			for s := range model.delivered {
				return s
			}
		}
		return c
	case 6, 7: // near-future gap: lands in the dense bitset
		return c + uint32(r.Intn(2000))
	case 8: // mid-range gap: stresses word-boundary arithmetic
		return c + uint32(r.Intn(100_000))
	default: // far future: beyond denseSpan, forces the sparse-map fallback
		return c + denseSpan + uint32(r.Intn(10_000))
	}
}

// TestStreamDeliveredMatchesModel drives the full stream-level logic —
// markDelivered, isDelivered, contigUpTo, sparseN, DeliveredCount — against
// the naive model under random interleavings.
func TestStreamDeliveredMatchesModel(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		seed := seed
		r := rand.New(rand.NewSource(seed))
		st := newStream(1, 0)
		model := &naiveSeqs{}
		for op := 0; op < 3000; op++ {
			seq := seqDraw(r, model)
			st.markDelivered(seq)
			model.mark(seq)

			if st.contigUpTo != model.contig() {
				t.Fatalf("seed %d op %d: contigUpTo = %d, model = %d",
					seed, op, st.contigUpTo, model.contig())
			}
			// sparseN counts delivered sequences above the contiguous
			// prefix; DeliveredCount derives from both.
			if st.sparseN != model.sparse {
				t.Fatalf("seed %d op %d: sparseN = %d, model = %d", seed, op, st.sparseN, model.sparse)
			}
			if got, want := uint64(st.contigUpTo-st.base)+uint64(st.sparseN), model.count(); got != want {
				t.Fatalf("seed %d op %d: delivered count = %d, model = %d", seed, op, got, want)
			}

			// Probe membership: around the prefix boundary, the new seq's
			// neighborhood, and random points — no false delivered answers,
			// no false undelivered answers.
			probes := []uint32{
				seq, seq + 1, st.contigUpTo, st.contigUpTo + 1,
				st.base, seq + denseSpan,
				model.contig() + uint32(r.Intn(200_000)),
			}
			if seq > 0 {
				probes = append(probes, seq-1)
			}
			for _, p := range probes {
				if got, want := st.isDelivered(p), model.has(p); got != want {
					t.Fatalf("seed %d op %d: isDelivered(%d) = %v, model = %v (contig=%d base=%d)",
						seed, op, p, got, want, st.contigUpTo, st.base)
				}
			}
		}
	}
}

// TestSeqWindowMatchesModel drives the raw bitset — set/has/clear/compact,
// including base advancement and far-map migration — against a plain set.
func TestSeqWindowMatchesModel(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		r := rand.New(rand.NewSource(seed))
		var w seqWindow
		w.reset(uint32(r.Intn(1000)))
		model := make(map[uint32]bool)
		contig := w.base
		for op := 0; op < 4000; op++ {
			switch r.Intn(10) {
			case 0, 1, 2, 3, 4: // set, from near to far-future
				delta := uint32(r.Intn(3000))
				if r.Intn(8) == 0 {
					delta = denseSpan + uint32(r.Intn(5000))
				}
				s := contig + delta
				w.set(s)
				model[s] = true
			case 5, 6: // clear (mirrors prefix advancement consuming bits)
				s := contig + uint32(r.Intn(3000))
				w.clear(s)
				delete(model, s)
			default: // advance the consumed prefix and compact
				contig += uint32(r.Intn(600))
				for s := range model {
					if s < contig {
						delete(model, s) // the caller never queries below contig
					}
				}
				w.compact(contig)
			}
			// The window must agree with the model everywhere at or above
			// the consumed prefix.
			for i := 0; i < 40; i++ {
				p := contig + uint32(r.Intn(4000))
				if r.Intn(8) == 0 {
					p = contig + denseSpan + uint32(r.Intn(8000))
				}
				if got, want := w.has(p), model[p]; got != want {
					t.Fatalf("seed %d op %d: has(%d) = %v, model = %v (base=%d contig=%d)",
						seed, op, p, got, want, w.base, contig)
				}
			}
		}
	}
}

// TestSeqWindowFarMigration pins the compaction migration: far-map entries
// that an advanced base brings into dense range move into the bitset, and
// entries below the consumed prefix are dropped.
func TestSeqWindowFarMigration(t *testing.T) {
	var w seqWindow
	w.reset(0)
	far1 := uint32(denseSpan + 100)  // stays relevant after advance
	far2 := uint32(denseSpan + 5000) // also migrates, above contig
	w.set(far1)
	w.set(far2)
	if len(w.far) != 2 {
		t.Fatalf("far population = %d, want 2", len(w.far))
	}
	// Consume a prefix past far1 but below far2: both become dense-range
	// after compaction; far1 is below contig and must be dropped.
	contig := far1 + 1
	for s := uint32(0); s < contig; s++ {
		if s != far1 {
			w.set(s)
		}
	}
	w.compact(contig)
	if len(w.far) != 0 {
		t.Fatalf("far entries not migrated: %v", w.far)
	}
	if !w.has(far2) {
		t.Fatal("migrated far entry lost")
	}
	if w.base > contig {
		t.Fatalf("base %d advanced past contig %d", w.base, contig)
	}
}
