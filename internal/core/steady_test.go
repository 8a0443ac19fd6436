package core

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/wire"
)

// newSettledTree is node 1 of a settled tree: parent 2 feeding it over the
// path 100→101→2, the given children below it. Sends to the children are
// queued on the returned net (nobody runs it); sends to anyone else vanish.
func newSettledTree(t *testing.T, children ...ids.NodeID) (*Protocol, *testNet, wire.Data) {
	net := &testNet{t: t, procs: map[ids.NodeID]*Protocol{}, now: time.Unix(1000, 0)}
	for _, c := range children {
		net.procs[c] = nil
	}
	p := New(Config{Mode: ModeTree, PSS: &testPSS{active: append([]ids.NodeID{2}, children...)}})
	p.Start(&testEnv{net: net, id: 1})
	msg := wire.Data{Stream: 1, Seq: 1, Path: []ids.NodeID{100, 101, 2}, Payload: make([]byte, 256)}
	p.Receive(2, msg)
	if got := p.Parents(1); !slices.Equal(got, []ids.NodeID{2}) {
		t.Fatalf("parents = %v, want [2]", got)
	}
	return p, net, msg
}

// TestSteadyStateAllocs pins the settled tree's cost: a new Data from the
// parent is delivered and relayed with no allocation on a leaf and exactly
// one — the boxed message all children share — on an interior node; a
// piggyback costs exactly one, the exact-size slice that is handed out, and
// reading one, which happens with every keep-alive, costs none.
func TestSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	for _, tc := range []struct {
		name     string
		children []ids.NodeID
		want     float64
	}{
		{"leaf", nil, 0},
		{"four children", []ids.NodeID{3, 4, 5, 6}, 1},
	} {
		p, net, msg := newSettledTree(t, tc.children...)
		clear(net.procs) // sends vanish from here on: queueing them would be the harness's cost
		net.queue = nil
		receive := func() {
			msg.Seq++
			p.Receive(2, msg)
		}
		for i := 0; i < 2*bufferSize; i++ {
			receive() // fill the retransmission ring
		}
		if got := testing.AllocsPerRun(200, receive); got != tc.want {
			t.Errorf("%s: %v allocs per new Data, want %v", tc.name, got, tc.want)
		}
		if len(net.queue) != 0 || p.Metrics().Duplicates != 0 {
			t.Fatalf("%s: harness broken: %d queued, %d duplicates", tc.name, len(net.queue), p.Metrics().Duplicates)
		}
		if got := testing.AllocsPerRun(200, func() { p.PiggybackBlob() }); got != 1 {
			t.Errorf("%s: %v allocs per PiggybackBlob, want exactly 1", tc.name, got)
		}
		pb := p.PiggybackBlob()
		if got := testing.AllocsPerRun(200, func() { p.HandlePiggyback(2, pb) }); got != 0 {
			t.Errorf("%s: %v allocs per HandlePiggyback, want 0", tc.name, got)
		}
		if nb := p.lookup(1).known(2); nb == nil || !nb.pathKnown {
			t.Fatalf("%s: harness broken: the piggyback was not applied", tc.name)
		}
	}
}

// TestSentSlicesAreImmutable pins the ownership rule the allocation-free
// relay rests on: a path or piggyback that went through Env.Send is shared
// with in-flight messages (and, on the simulator, with other shards), so a
// re-parent or a state change replaces it and never writes into it.
func TestSentSlicesAreImmutable(t *testing.T) {
	p, net, msg := newSettledTree(t, 3, 4)
	st := p.lookup(1)
	sent := net.queue[len(net.queue)-1].m.(wire.Data).Path
	want := []ids.NodeID{100, 101, 2, 1}
	if !slices.Equal(sent, want) {
		t.Fatalf("relayed path = %v, want %v", sent, want)
	}
	pb := p.PiggybackBlob()
	pbWant := bytes.Clone(pb)

	// Steady state keeps both.
	msg.Seq++
	p.Receive(2, msg)
	if &st.myPath[0] != &sent[0] {
		t.Error("an unchanged path was rebuilt")
	}
	if again := p.PiggybackBlob(); bytes.Equal(again, pbWant) {
		t.Error("piggyback did not record the delivery progress")
	}

	// The parent moved: same length, other contents — the case an in-place
	// update would get wrong — then a longer and a shorter path.
	for _, path := range [][]ids.NodeID{{100, 102, 2}, {100, 102, 103, 2}, {2}} {
		msg.Seq++
		msg.Path = path
		p.Receive(2, msg)
		if got := append(slices.Clone(path), 1); !slices.Equal(st.myPath, got) {
			t.Errorf("myPath = %v after receiving over %v", st.myPath, path)
		}
		if relayed := net.queue[len(net.queue)-1].m.(wire.Data).Path; &relayed[0] != &st.myPath[0] {
			t.Error("relay does not carry the current path")
		}
		p.PiggybackBlob()
	}
	if !slices.Equal(sent, want) {
		t.Errorf("re-parenting rewrote a sent path: %v, want %v", sent, want)
	}
	if !bytes.Equal(pb, pbWant) {
		t.Error("a changed piggyback rewrote the blob returned before")
	}
}
