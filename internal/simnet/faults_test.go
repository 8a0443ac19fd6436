package simnet

// Tests for the deterministic fault-injection layer: validation error paths,
// the bufVictim drop-policy kernel property-tested against a naive queue
// model, hash-stream determinism and rate accuracy, and integration tests
// covering loss, duplication, reorder, partitions, bounded buffers, and
// worker-count invariance of the whole pack.

import (
	"fmt"
	"math"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/ids"
	"repro/internal/node"
	"repro/internal/wire"
)

func TestFaultModelValidate(t *testing.T) {
	ok := func(f FaultModel) {
		t.Helper()
		if err := f.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", f, err)
		}
	}
	bad := func(f FaultModel) {
		t.Helper()
		if err := f.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", f)
		}
	}
	ok(FaultModel{})
	ok(FaultModel{Loss: 0.5, Duplicate: 0.99, Reorder: 0})
	ok(FaultModel{Partitions: []Partition{{Start: time.Second, End: 2 * time.Second, Fraction: 0.25}}})
	ok(FaultModel{Buffer: &BufferModel{Capacity: 1, Policy: DropRand}})

	bad(FaultModel{Loss: 1})    // probability 1 would lose everything forever
	bad(FaultModel{Loss: -0.1}) // negative probability
	bad(FaultModel{Duplicate: 1.5})
	bad(FaultModel{Reorder: 1})
	bad(FaultModel{ExtraDelay: -time.Second})
	bad(FaultModel{Partitions: []Partition{{Start: time.Second, End: time.Second, Fraction: 0.5}}}) // empty window
	bad(FaultModel{Partitions: []Partition{{Start: -time.Second, End: time.Second, Fraction: 0.5}}})
	bad(FaultModel{Partitions: []Partition{{Start: 0, End: time.Second, Fraction: 0}}}) // no minority side
	bad(FaultModel{Partitions: []Partition{{Start: 0, End: time.Second, Fraction: 1}}})
	bad(FaultModel{Buffer: &BufferModel{Capacity: 0}})
	bad(FaultModel{Buffer: &BufferModel{Capacity: 8, Policy: DropPolicy(42)}})
	bad(FaultModel{Buffer: &BufferModel{Capacity: 8, Service: -time.Millisecond}})
}

// naiveBuffer is the obviously-correct reference model of a bounded queue: a
// plain slice of message labels plus a drop log, with the policy applied by
// construction rather than via eviction indices.
type naiveBuffer struct {
	cap     int
	q       []int
	dropped []int
}

func (b *naiveBuffer) push(m int, policy DropPolicy, h uint64) {
	if len(b.q) < b.cap {
		b.q = append(b.q, m)
		return
	}
	switch policy {
	case DropOldest:
		b.dropped = append(b.dropped, b.q[0])
		b.q = append(b.q[1:], m)
	case DropNewest:
		b.dropped = append(b.dropped, m)
	case DropRand:
		j := int(h % uint64(len(b.q)+1))
		if j == len(b.q) {
			b.dropped = append(b.dropped, m)
		} else {
			b.dropped = append(b.dropped, b.q[j])
			b.q = append(append(b.q[:j:j], b.q[j+1:]...), m)
		}
	}
}

// TestBufVictimAgainstNaiveModel drives bufVictim through random arrival
// sequences and checks the resulting queue against the naive model:
// occupancy never exceeds the bound, exactly one drop per overflow arrival,
// DropOldest keeps the newest Capacity messages, DropNewest the oldest.
func TestBufVictimAgainstNaiveModel(t *testing.T) {
	prop := func(capRaw uint8, n uint8, policyRaw uint8, seed int64) bool {
		capacity := int(capRaw%16) + 1
		arrivals := int(n%64) + 1
		policy := DropPolicy(policyRaw % 3)

		naive := &naiveBuffer{cap: capacity}
		var q []int // bufVictim-driven model
		var drops int
		for m := 0; m < arrivals; m++ {
			h := mixNode(seed, fDropSalt, 7, uint64(m))
			naive.push(m, policy, h)
			if len(q) < capacity {
				q = append(q, m)
			} else {
				evict, admit := bufVictim(policy, len(q), h)
				drops++
				if evict >= 0 {
					if evict >= len(q) {
						t.Errorf("evict index %d out of range (occ %d)", evict, len(q))
						return false
					}
					q = append(q[:evict], q[evict+1:]...)
				}
				if admit {
					q = append(q, m)
				}
				if (evict >= 0) == admit == false {
					// Exactly one of "evict a queued message and admit" or
					// "reject the arrival" must happen.
					t.Errorf("policy %v: evict=%d admit=%v", policy, evict, admit)
					return false
				}
			}
			if len(q) > capacity {
				t.Errorf("occupancy %d exceeds capacity %d", len(q), capacity)
				return false
			}
		}
		if drops != len(naive.dropped) {
			t.Errorf("policy %v: %d drops, naive model dropped %d", policy, drops, len(naive.dropped))
			return false
		}
		if fmt.Sprint(q) != fmt.Sprint(naive.q) {
			t.Errorf("policy %v: queue %v, naive model %v", policy, q, naive.q)
			return false
		}
		// Policy-specific shape of the survivor set.
		switch policy {
		case DropOldest:
			for i, m := range q {
				if want := arrivals - len(q) + i; m != want {
					t.Errorf("DropOldest kept %v, want the newest %d", q, len(q))
					return false
				}
			}
		case DropNewest:
			for i, m := range q {
				if m != i {
					t.Errorf("DropNewest kept %v, want the oldest %d", q, len(q))
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestMixFaultDeterminismAndRate pins the hash streams: pure functions of
// their inputs, directionally distinct, and with draw rates that track the
// configured probability.
func TestMixFaultDeterminismAndRate(t *testing.T) {
	if mixPair(7, fStreamSalt, 1, 2, 3) != mixPair(7, fStreamSalt, 1, 2, 3) {
		t.Fatal("mixPair is not a pure function")
	}
	if mixPair(7, fStreamSalt, 1, 2, 3) == mixPair(7, fStreamSalt, 2, 1, 3) {
		t.Fatal("mixPair ignores direction")
	}
	if mixNode(7, fDropSalt, 1, 3) == mixPair(7, fStreamSalt, 1, 1, 3) {
		t.Fatal("drop stream collides with the message stream")
	}
	for _, p := range []float64{0.01, 0.05, 0.2, 0.5} {
		const draws = 200_000
		hits := 0
		for c := uint64(0); c < draws; c++ {
			if unit(node.Mix64(mixPair(42, fStreamSalt, 3, 9, c)^fLossDraw)) < p {
				hits++
			}
		}
		got := float64(hits) / draws
		// 5-sigma binomial band: deterministic inputs, so a failure is a
		// stream defect, not flake.
		tol := 5 * math.Sqrt(p*(1-p)/draws)
		if math.Abs(got-p) > tol {
			t.Errorf("loss draw rate %v for p=%v (tolerance %v)", got, p, tol)
		}
	}
}

// faultPair builds a two-node network with the given fault model, connects
// 1 -> 2, and switches to dissemination so the pack is active.
func faultPair(t *testing.T, f *FaultModel, opts Options) (*Network, *echoNode, *echoNode) {
	t.Helper()
	opts.Faults = f
	if opts.Latency == nil {
		opts.Latency = FixedLatency(time.Millisecond)
	}
	if opts.Seed == 0 {
		opts.Seed = 9
	}
	n := New(opts)
	a, b := &echoNode{}, &echoNode{}
	n.AddNode(1, a)
	n.AddNode(2, b)
	n.RunFor(time.Millisecond)
	a.env.Connect(2)
	n.RunFor(20 * time.Millisecond)
	if len(a.ups) != 1 {
		t.Fatal("connect failed")
	}
	n.SetPhase(PhaseDissemination)
	return n, a, b
}

func TestLossDropsAndCounts(t *testing.T) {
	n, a, b := faultPair(t, &FaultModel{Loss: 0.3}, Options{})
	defer n.Close()
	const sent = 1000
	for i := 0; i < sent; i++ {
		a.env.Send(2, wire.Rumor{Stream: 1, Seq: uint32(i)})
	}
	n.RunFor(time.Second)
	st := n.FaultStats()
	if st.Lost == 0 {
		t.Fatal("no losses at 30% loss")
	}
	if got := len(b.received); got != sent-int(st.Lost) {
		t.Fatalf("received %d, want sent(%d) - lost(%d)", got, sent, st.Lost)
	}
	if n.NodeFaultStats(1).Lost != st.Lost || n.NodeFaultStats(2).Lost != 0 {
		t.Fatalf("loss charged to the wrong side: %+v / %+v", n.NodeFaultStats(1), n.NodeFaultStats(2))
	}
}

// TestFaultsInactiveBeforeDissemination pins the activation contract: the
// pack only bites after the first switch to PhaseDissemination, so bootstrap
// traffic flows clean even under a brutal fault model.
func TestFaultsInactiveBeforeDissemination(t *testing.T) {
	f := &FaultModel{Loss: 0.9, Buffer: &BufferModel{Capacity: 1, Policy: DropNewest}}
	n := New(Options{Seed: 9, Latency: FixedLatency(time.Millisecond), Faults: f})
	defer n.Close()
	a, b := &echoNode{}, &echoNode{}
	n.AddNode(1, a)
	n.AddNode(2, b)
	n.RunFor(time.Millisecond)
	a.env.Connect(2)
	n.RunFor(20 * time.Millisecond)
	const sent = 200
	for i := 0; i < sent; i++ {
		a.env.Send(2, wire.Rumor{Stream: 1, Seq: uint32(i)})
	}
	n.RunFor(time.Second)
	if len(b.received) != sent {
		t.Fatalf("pre-activation traffic lost: received %d of %d", len(b.received), sent)
	}
	if st := n.FaultStats(); st.Total() != 0 {
		t.Fatalf("faults injected before activation: %+v", st)
	}
}

func TestDuplicateDeliversExtraCopies(t *testing.T) {
	n, a, b := faultPair(t, &FaultModel{Duplicate: 0.4}, Options{})
	defer n.Close()
	const sent = 500
	for i := 0; i < sent; i++ {
		a.env.Send(2, wire.Rumor{Stream: 1, Seq: uint32(i)})
	}
	n.RunFor(time.Second)
	st := n.FaultStats()
	if st.Duplicated == 0 {
		t.Fatal("no duplicates at 40% duplication")
	}
	if got := len(b.received); got != sent+int(st.Duplicated) {
		t.Fatalf("received %d, want sent(%d) + duplicated(%d)", got, sent, st.Duplicated)
	}
}

func TestReorderAllowsOvertaking(t *testing.T) {
	n, a, b := faultPair(t, &FaultModel{Reorder: 0.3, ExtraDelay: 50 * time.Millisecond},
		Options{Latency: UniformLatency{Min: time.Millisecond, Max: 2 * time.Millisecond}})
	defer n.Close()
	const sent = 300
	for i := 0; i < sent; i++ {
		a.env.Send(2, wire.Rumor{Stream: 1, Seq: uint32(i)})
	}
	n.RunFor(time.Second)
	if got := len(b.received); got != sent {
		t.Fatalf("reorder changed the delivery count: %d of %d", got, sent)
	}
	if st := n.FaultStats(); st.Reordered == 0 {
		t.Fatal("no reorders at 30% reorder")
	}
	inversions := 0
	last := uint32(0)
	for _, m := range b.received {
		seq := m.(wire.Rumor).Seq
		if seq < last {
			inversions++
		} else {
			last = seq
		}
	}
	if inversions == 0 {
		t.Fatal("reordered messages never overtook later traffic")
	}
}

// TestPartitionWindow finds a directed pair crossing the cut and pins the
// window semantics: blackholed during [Start, End), flowing before and
// after, with the asymmetric flag cutting only traffic into the minority.
func TestPartitionWindow(t *testing.T) {
	f := &FaultModel{Partitions: []Partition{{
		Start: 100 * time.Millisecond, End: 200 * time.Millisecond,
		Fraction: 0.5, Asymmetric: true,
	}}}
	n := New(Options{Seed: 21, Latency: FixedLatency(time.Millisecond), Faults: f})
	defer n.Close()
	const nodes = 8
	ns := make([]*echoNode, nodes)
	for i := 0; i < nodes; i++ {
		ns[i] = &echoNode{}
		n.AddNode(ids.NodeID(i+1), ns[i])
	}
	n.RunFor(time.Millisecond)
	// Pick one node on each side of the hashed cut.
	maj, min := -1, -1
	for i := 0; i < nodes; i++ {
		if n.partSide(0, ids.NodeID(i+1)) {
			min = i
		} else {
			maj = i
		}
	}
	if maj < 0 || min < 0 {
		t.Skip("hash put all 8 nodes on one side (vanishingly unlikely)")
	}
	ns[maj].env.Connect(ids.NodeID(min + 1))
	ns[min].env.Connect(ids.NodeID(maj + 1))
	n.RunFor(20 * time.Millisecond)
	n.SetPhase(PhaseDissemination)

	send := func(seq uint32) { // both directions, same instant
		ns[maj].env.Send(ids.NodeID(min+1), wire.Rumor{Stream: 1, Seq: seq})
		ns[min].env.Send(ids.NodeID(maj+1), wire.Rumor{Stream: 2, Seq: seq})
	}
	send(1)                                           // before the window: both arrive
	n.After(150*time.Millisecond, func() { send(2) }) // inside: into-minority cut
	n.After(250*time.Millisecond, func() { send(3) }) // after: both arrive
	n.RunFor(400 * time.Millisecond)

	gotMin := make([]uint32, 0, 3)
	for _, m := range ns[min].received {
		gotMin = append(gotMin, m.(wire.Rumor).Seq)
	}
	gotMaj := make([]uint32, 0, 3)
	for _, m := range ns[maj].received {
		gotMaj = append(gotMaj, m.(wire.Rumor).Seq)
	}
	if fmt.Sprint(gotMin) != "[1 3]" {
		t.Fatalf("minority received %v, want [1 3] (2 cut by the partition)", gotMin)
	}
	if fmt.Sprint(gotMaj) != "[1 2 3]" {
		t.Fatalf("majority received %v, want [1 2 3] (asymmetric cut lets minority send out)", gotMaj)
	}
	if st := n.FaultStats(); st.PartitionDropped != 1 {
		t.Fatalf("PartitionDropped = %d, want 1", st.PartitionDropped)
	}
}

// TestBufferBoundEnforced blasts a burst through a tiny buffer and checks
// conservation (delivered + dropped == sent), the OnDrop hook firing exactly
// once per drop, and the policy-specific survivor sets.
func TestBufferBoundEnforced(t *testing.T) {
	for _, policy := range []DropPolicy{DropOldest, DropNewest, DropRand} {
		t.Run(policy.String(), func(t *testing.T) {
			var hookDrops atomic.Uint64
			f := &FaultModel{
				Buffer: &BufferModel{Capacity: 4, Policy: policy, Service: time.Millisecond},
				OnDrop: func(id ids.NodeID, at time.Time) {
					if id != 2 {
						t.Errorf("OnDrop at node %v, want 2", id)
					}
					hookDrops.Add(1)
				},
			}
			n, a, b := faultPair(t, f, Options{})
			defer n.Close()
			const sent = 32
			for i := 0; i < sent; i++ {
				a.env.Send(2, wire.Rumor{Stream: 1, Seq: uint32(i)})
			}
			n.RunFor(time.Second)
			st := n.FaultStats()
			if st.BufferDropped == 0 {
				t.Fatalf("no buffer drops blasting %d messages through capacity 4", sent)
			}
			if got := len(b.received); got+int(st.BufferDropped) != sent {
				t.Fatalf("delivered(%d) + dropped(%d) != sent(%d)", got, st.BufferDropped, sent)
			}
			if hookDrops.Load() != st.BufferDropped {
				t.Fatalf("OnDrop fired %d times, stats say %d drops", hookDrops.Load(), st.BufferDropped)
			}
			if n.NodeFaultStats(2).BufferDropped != st.BufferDropped {
				t.Fatal("buffer drops charged to the wrong node")
			}
			seqs := make([]uint32, 0, len(b.received))
			for _, m := range b.received {
				seqs = append(seqs, m.(wire.Rumor).Seq)
			}
			switch policy {
			case DropOldest:
				// The burst arrives in one instant: the queue keeps the
				// newest 4, so the tail of the delivered set is the last 4.
				tail := seqs[len(seqs)-4:]
				if fmt.Sprint(tail) != fmt.Sprintf("[%d %d %d %d]", sent-4, sent-3, sent-2, sent-1) {
					t.Fatalf("DropOldest survivors end with %v, want the newest 4", tail)
				}
			case DropNewest:
				// Head-keep: the delivered set is a prefix of the sends.
				for i, s := range seqs {
					if s != uint32(i) {
						t.Fatalf("DropNewest delivered %v, want the oldest prefix", seqs)
					}
				}
			}
		})
	}
}

// runFaultMesh drives an 8-node mesh under the full fault pack and returns a
// transcript of deliveries and per-node fault counters.
func runFaultMesh(workers int) string {
	f := &FaultModel{
		Loss: 0.1, Duplicate: 0.05, Reorder: 0.15,
		Partitions: []Partition{{Start: 5 * time.Millisecond, End: 30 * time.Millisecond, Fraction: 0.4}},
		Buffer:     &BufferModel{Capacity: 6, Policy: DropRand, Service: 300 * time.Microsecond},
	}
	n := New(Options{
		Seed:              31,
		Latency:           UniformLatency{Min: 200 * time.Microsecond, Max: 900 * time.Microsecond},
		Workers:           workers,
		ParallelThreshold: -1, // force parallel windows even for a small mesh
		Faults:            f,
	})
	defer n.Close()
	const nodes = 8
	all := make([]ids.NodeID, nodes)
	gs := make([]*gossipNode, nodes)
	for i := range all {
		all[i] = ids.NodeID(i + 1)
	}
	for i := range all {
		gs[i] = &gossipNode{peers: all}
		n.AddNode(all[i], gs[i])
	}
	n.RunFor(50 * time.Millisecond)
	n.SetPhase(PhaseDissemination)
	for round := 0; round < 6; round++ {
		seq := uint32(round + 1)
		src := gs[round%nodes]
		n.After(time.Duration(round)*4*time.Millisecond, func() {
			var m wire.Message = wire.Rumor{Stream: 1, Seq: seq, Payload: []byte("x")}
			for _, p := range all {
				if p != src.env.ID() {
					src.env.Send(p, m)
				}
			}
		})
	}
	n.RunFor(500 * time.Millisecond)
	out := fmt.Sprintf("events=%d total=%+v\n", n.EventsFired(), n.FaultStats())
	for i, g := range gs {
		out += fmt.Sprintf("node%d:%+v:%v\n", i, n.NodeFaultStats(all[i]), g.log)
	}
	return out
}

// TestFaultEquivalenceAcrossWorkers is the engine-level determinism pin for
// the fault pack: the same lossy workload must produce an identical
// transcript — every delivery, every fault counter, every timestamp — for
// every worker count and on repeated runs.
func TestFaultEquivalenceAcrossWorkers(t *testing.T) {
	want := runFaultMesh(1)
	if again := runFaultMesh(1); again != want {
		t.Fatalf("two same-seed sequential runs diverged:\n%s\n---\n%s", want, again)
	}
	for _, workers := range []int{2, 8} {
		if got := runFaultMesh(workers); got != want {
			t.Fatalf("workers=%d diverged from sequential:\n--- sequential ---\n%s\n--- sharded ---\n%s",
				workers, want, got)
		}
	}
}
