package core

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/wire"
)

// ----------------------------------------------------------- stream state

func TestStreamDeliveryTracking(t *testing.T) {
	st := newStream(1, 0)
	if st.isDelivered(1) {
		t.Error("virgin stream claims delivery")
	}
	st.markDelivered(3) // first ever: becomes the baseline
	if !st.isDelivered(3) || !st.isDelivered(2) /* pre-join history */ {
		t.Error("baseline semantics broken")
	}
	if st.isDelivered(4) {
		t.Error("future seq claimed")
	}
	st.markDelivered(5) // gap at 4
	if st.contigUpTo != 4 {
		t.Errorf("contigUpTo = %d, want 4", st.contigUpTo)
	}
	lo, hi, any := st.gapsBelow(5, 10)
	if !any || lo != 4 || hi != 5 {
		t.Errorf("gaps = [%d,%d) any=%v", lo, hi, any)
	}
	st.markDelivered(4)
	if st.contigUpTo != 6 {
		t.Errorf("contigUpTo after fill = %d, want 6", st.contigUpTo)
	}
	if _, _, any := st.gapsBelow(6, 10); any {
		t.Error("no gaps expected")
	}
}

func TestQuickStreamDeliveryInvariant(t *testing.T) {
	// Property: after any sequence of marks, every seq < contigUpTo and >=
	// base is delivered, and sparse holds only seqs >= contigUpTo.
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		st := newStream(1, 0)
		base := uint32(r.Intn(10) + 1)
		for i := 0; i < int(n); i++ {
			st.markDelivered(base + uint32(r.Intn(30)))
		}
		if !st.started {
			return n == 0
		}
		for s := st.base; s < st.contigUpTo; s++ {
			if !st.isDelivered(s) {
				return false
			}
		}
		// The window holds only seqs >= contigUpTo, and its population
		// matches the sparse count.
		count := 0
		end := st.sparse.base + uint32(len(st.sparse.words))*64
		for s := st.sparse.base; s < end; s++ {
			if st.sparse.has(s) {
				if s < st.contigUpTo {
					return false
				}
				count++
			}
		}
		return count == st.sparseN
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// deliver is what Publish and onData do with a message: a new one is marked
// delivered and remembered, a duplicate is neither.
func deliver(st *stream, seq uint32, payload []byte, cap int) {
	if !st.isDelivered(seq) {
		st.markDelivered(seq)
		st.remember(seq, payload, cap)
	}
}

func TestBufferRing(t *testing.T) {
	st := newStream(1, 0)
	for seq := uint32(1); seq <= 10; seq++ {
		deliver(st, seq, []byte{byte(seq)}, 4)
	}
	// Only the last 4 survive.
	for seq := uint32(1); seq <= 6; seq++ {
		if _, ok := st.lookup(seq); ok {
			t.Errorf("seq %d should have been evicted", seq)
		}
	}
	for seq := uint32(7); seq <= 10; seq++ {
		payload, ok := st.lookup(seq)
		if !ok || payload[0] != byte(seq) {
			t.Errorf("seq %d missing from buffer", seq)
		}
	}
}

// ringPayload is the payload the ring tests deliver as seq: its number, or
// nothing at all for every fifth one (§II-C's empty message is a message).
func ringPayload(seq uint32) []byte {
	if seq%5 == 0 {
		return nil
	}
	return []byte{byte(seq), byte(seq >> 8), byte(seq >> 16), byte(seq >> 24)}
}

// TestQuickRingMatchesModel drives the direct-mapped ring against the plain
// statement of what it holds — the delivered seqs less than cap behind the
// newest — under in-order and out-of-order arrival, gaps filled late,
// arrivals cap or more behind the newest (not stored, and evicting nothing),
// duplicates, empty payloads and a first seq other than 1.
func TestQuickRingMatchesModel(t *testing.T) {
	f := func(seed int64, capSel, steps uint8) bool {
		r := rand.New(rand.NewSource(seed))
		cap := 1 + int(capSel)%9
		first := uint32(r.Intn(200))
		st := newStream(1, 0)
		model := map[uint32][]byte{} // every seq delivered
		newest := int64(first)
		for i := 0; i <= int(steps); i++ {
			seq := int64(first)
			if i > 0 {
				switch r.Intn(8) {
				case 0, 1, 2: // in order
					seq = newest + 1
				case 3: // ahead, leaving a gap
					seq = newest + 1 + int64(r.Intn(2*cap))
				case 4: // the oldest gap, however late
					seq = int64(st.contigUpTo)
				case 5: // cap or more behind the newest
					seq = newest - int64(cap+r.Intn(cap+1))
				default: // anywhere near the window, duplicates included
					seq = newest + 2 - int64(r.Intn(2*cap+2))
				}
			}
			seq = max(seq, 0)
			if _, dup := model[uint32(seq)]; !dup && seq >= int64(first) {
				model[uint32(seq)] = ringPayload(uint32(seq))
				newest = max(newest, seq)
			}
			deliver(st, uint32(seq), ringPayload(uint32(seq)), cap)

			for probe := max(newest-int64(3*cap), 0); probe <= newest+2; probe++ {
				want, held := model[uint32(probe)]
				held = held && newest-probe < int64(cap)
				got, ok := st.lookup(uint32(probe))
				if ok != held || ok && string(got) != string(want) {
					t.Logf("cap %d first %d newest %d: lookup(%d) = %v %v, want %v %v",
						cap, first, newest, probe, got, ok, want, held)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestMsgRequestAroundWindowEdge asks a node that delivered 1..200 with two
// holes for the largest range a request may name, laid across both edges of
// its 64-message window: it retransmits what it holds, ascending, and stays
// silent about the evicted, the missing and the not yet published.
func TestMsgRequestAroundWindowEdge(t *testing.T) {
	p, net, msg := newSettledTree(t, 3)
	net.queue = nil
	for seq := uint32(2); seq <= 200; seq++ {
		if seq != 150 && seq != 190 {
			msg.Seq, msg.Payload = seq, ringPayload(seq)
			p.Receive(2, msg)
		}
	}
	net.queue = nil // the relays to child 3
	window := uint32(bufferSize)
	p.Receive(3, wire.MsgRequest{Stream: 1, From: 41, To: 298}) // 257 seqs: refused
	if len(net.queue) != 0 {
		t.Fatalf("a 257-seq request was answered with %d messages", len(net.queue))
	}
	p.Receive(3, wire.MsgRequest{Stream: 1, From: 41, To: 297})
	want := 201 - window
	for _, f := range net.queue {
		d, ok := f.m.(wire.Data)
		for want == 150 || want == 190 {
			want++
		}
		if !ok || f.to != 3 || d.Seq != want || string(d.Payload) != string(ringPayload(want)) {
			t.Fatalf("retransmitted %v to %v, want Data seq %d", f.m, f.to, want)
		}
		want++
	}
	if want != 201 || p.Metrics().Retransmissions != uint64(window-2) {
		t.Errorf("retransmitted up to seq %d (%d messages), want up to 200 (%d)",
			want-1, p.Metrics().Retransmissions, window-2)
	}
}

// ----------------------------------------------------------- strategies

func TestStrategyOrdering(t *testing.T) {
	now := time.Unix(1000, 0)
	early := Candidate{Peer: 1, FirstHeard: now, RTT: 50 * time.Millisecond, Uptime: time.Hour, Degree: 5}
	late := Candidate{Peer: 2, FirstHeard: now.Add(time.Second), RTT: 10 * time.Millisecond, Uptime: 2 * time.Hour, Degree: 1}

	if !better(FirstCome{}, early, late) {
		t.Error("first-come should prefer the earlier sender")
	}
	if !better(DelayAware{}, late, early) {
		t.Error("delay-aware should prefer the lower RTT")
	}
	if !better(Gerontocratic{}, late, early) {
		t.Error("gerontocratic should prefer the longer uptime")
	}
	if !better(LoadBalancing{}, late, early) {
		t.Error("load-balancing should prefer the lower degree")
	}
}

func TestStrategyUnknownValuesLose(t *testing.T) {
	known := Candidate{Peer: 1, FirstHeard: time.Unix(1, 0), RTT: time.Second, Degree: 3}
	unknown := Candidate{Peer: 2, Degree: -1} // zero FirstHeard, zero RTT
	if !better(FirstCome{}, known, unknown) {
		t.Error("never-heard candidate must lose under first-come")
	}
	if !better(DelayAware{}, known, unknown) {
		t.Error("unknown RTT must lose under delay-aware")
	}
	if !better(LoadBalancing{}, known, unknown) {
		t.Error("unknown degree must lose under load-balancing")
	}
}

func TestStrategyTieBreakIsDeterministic(t *testing.T) {
	a := Candidate{Peer: 1, RTT: time.Millisecond}
	b := Candidate{Peer: 2, RTT: time.Millisecond}
	if !better(DelayAware{}, a, b) || better(DelayAware{}, b, a) {
		t.Error("ties must break toward the lower id")
	}
}

// ----------------------------------------------------------- config

func TestConfigDefaults(t *testing.T) {
	c := Config{Mode: ModeTree, Parents: 5}.withDefaults()
	if c.Parents != 1 {
		t.Errorf("tree must force a single parent, got %d", c.Parents)
	}
	c = Config{Mode: ModeDAG, Parents: 3}.withDefaults()
	if c.Parents != 3 {
		t.Errorf("DAG parents overridden: %d", c.Parents)
	}
	c = Config{Mode: ModeFlood}.withDefaults()
	if c.Parents != 0 {
		t.Errorf("flood mode has no parents, got %d", c.Parents)
	}
	if c.Strategy == nil || c.MaxBlobs <= 0 || c.BlobWantRetry <= 0 {
		t.Error("defaults not filled")
	}
}

func TestModeString(t *testing.T) {
	if ModeFlood.String() != "flood" || ModeTree.String() != "tree" || ModeDAG.String() != "dag" ||
		ModeSimpleTree.String() != "simpletree" || ModeSimpleGossip.String() != "simplegossip" || ModeTAG.String() != "tag" {
		t.Error("mode names")
	}
}

func TestSeqWindowFarFutureIsBounded(t *testing.T) {
	// Regression: one malformed far-future sequence number must not force
	// the delivery window into a giant dense allocation.
	st := newStream(1, 0)
	st.markDelivered(1)
	st.markDelivered(0xFFFFFFFF)
	if len(st.sparse.words) > maxWindowWords {
		t.Fatalf("dense window grew to %d words", len(st.sparse.words))
	}
	if !st.isDelivered(0xFFFFFFFF) || st.isDelivered(0xFFFFFFFE) {
		t.Error("far-future delivery not tracked correctly")
	}
	if got := uint64(st.contigUpTo-st.base) + uint64(st.sparseN); got != 2 {
		t.Errorf("delivered count = %d, want 2", got)
	}
	// Normal in-window marks keep working alongside the far entry.
	for seq := uint32(2); seq < 100; seq++ {
		st.markDelivered(seq)
	}
	if st.contigUpTo != 100 {
		t.Errorf("contigUpTo = %d, want 100", st.contigUpTo)
	}
}
