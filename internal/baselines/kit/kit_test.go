package kit

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/node"
	"repro/internal/wire"
)

// fakeEnv records what a Base does to its runtime.
type fakeEnv struct {
	now       time.Time
	connected map[ids.NodeID]bool
	dialed    []ids.NodeID
	sent      []sentMsg
}

type sentMsg struct {
	to ids.NodeID
	m  wire.Message
}

func (e *fakeEnv) ID() ids.NodeID                         { return 1 }
func (e *fakeEnv) Now() time.Time                         { return e.now }
func (e *fakeEnv) Rand() *rand.Rand                       { return nil }
func (e *fakeEnv) After(time.Duration, func()) node.Timer { return nil }
func (e *fakeEnv) Connect(to ids.NodeID)                  { e.dialed = append(e.dialed, to) }
func (e *fakeEnv) Close(ids.NodeID)                       {}
func (e *fakeEnv) Send(to ids.NodeID, m wire.Message)     { e.sent = append(e.sent, sentMsg{to, m}) }
func (e *fakeEnv) Connected(to ids.NodeID) bool           { return e.connected[to] }
func (e *fakeEnv) Log(string, ...any)                     {}

// The window against the obvious model — a set of delivered sequences —
// under random arrival orders with repeats, unpinned and pinned at 1.
func TestStreamAgainstSetModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 200; round++ {
		b := &Base{Env: &fakeEnv{}, Buffer: round%2 == 0}
		st := b.Stream(7)
		pinned := round%3 == 0
		if pinned {
			st.StartAt(1)
		}
		model := map[uint32]bool{}
		first := uint32(0)
		for i := 0; i < 60; i++ {
			seq := uint32(1 + rng.Intn(40))
			fresh := b.Deliver(st, 2, seq, []byte{byte(seq)})
			if first == 0 {
				first = seq
			}
			base := first
			if pinned {
				base = 1
			}
			want := !model[seq] && seq >= base
			if fresh != want {
				t.Fatalf("round %d: Deliver(%d) fresh = %v, want %v (base %d)", round, seq, fresh, want, base)
			}
			if fresh {
				model[seq] = true
			}
			if got := st.Count(); got != uint64(len(model)) {
				t.Fatalf("round %d: Count = %d, model holds %d", round, got, len(model))
			}
			var hi uint32
			for s := range model {
				hi = max(hi, s)
			}
			var holes []uint32
			for s := st.UpTo; s < hi; s++ {
				if !model[s] {
					holes = append(holes, s)
				}
			}
			if got := st.Missing(1000); !slices.Equal(got, holes) {
				t.Fatalf("round %d: Missing = %v, model says %v", round, got, holes)
			}
			if got := st.Missing(2); len(got) > 2 {
				t.Fatalf("Missing(2) returned %d holes", len(got))
			}
			if st.Gaps() != (hi >= st.UpTo) {
				t.Fatalf("round %d: Gaps = %v with UpTo %d and highest delivery %d", round, st.Gaps(), st.UpTo, hi)
			}
			if p, ok := st.Payload(seq); ok != (b.Buffer && model[seq]) || ok && p[0] != byte(seq) {
				t.Fatalf("round %d: Payload(%d) = %v, %v with Buffer %v", round, seq, p, ok, b.Buffer)
			}
		}
		if b.M.Delivered != uint64(len(model)) || b.M.Delivered+b.M.Duplicates != 60 {
			t.Fatalf("round %d: counters %+v for %d distinct of 60", round, b.M, len(model))
		}
	}
}

func TestStreamsStayAscending(t *testing.T) {
	b := &Base{Env: &fakeEnv{}}
	for _, id := range []wire.StreamID{5, 1, 9, 3, 5, 1} {
		b.Stream(id)
	}
	var got []wire.StreamID
	for _, st := range b.Streams() {
		got = append(got, st.ID)
	}
	if want := []wire.StreamID{1, 3, 5, 9}; !slices.Equal(got, want) {
		t.Fatalf("Streams() = %v, want %v", got, want)
	}
	if b.Stream(3) != b.Streams()[1] {
		t.Fatal("Stream(3) built a second state for the stream")
	}
	if b.DeliveredCount(4) != 0 {
		t.Fatal("a stream the peer never saw has deliveries")
	}
}

func TestOriginateNumbersFromOne(t *testing.T) {
	b := &Base{Env: &fakeEnv{}}
	var seen []uint32
	b.Deliveries().Add(func(d core.Delivery) {
		if d.Stream == 2 && d.From == ids.Nil {
			seen = append(seen, d.Seq)
		}
	})
	for want := uint32(1); want <= 3; want++ {
		if got := b.Originate(b.Stream(2), nil); got != want {
			t.Fatalf("Originate = %d, want %d", got, want)
		}
	}
	if !slices.Equal(seen, []uint32{1, 2, 3}) {
		t.Fatalf("local publishes reached the listener as %v, want seqs 1..3 from nobody", seen)
	}
}

func TestListeners(t *testing.T) {
	env := &fakeEnv{now: time.Unix(100, 0)}
	b := &Base{Env: env}
	var log []string
	cancelDel := b.Deliveries().Add(func(d core.Delivery) {
		log = append(log, fmt.Sprintf("%d/%d from %v: %s", d.Stream, d.Seq, d.From, d.Payload))
	})
	var evs []core.Event
	cancelEv := b.Events().Add(func(ev core.Event) { evs = append(evs, ev) })

	st := b.Stream(1)
	b.Deliver(st, 9, 1, []byte("a"))
	b.Deliver(b.Stream(2), 8, 1, []byte("b"))
	b.Deliver(st, 9, 2, []byte("c"))
	b.Deliver(st, 9, 2, []byte("c")) // duplicate
	want := []string{"1/1 from 0.0.0.0:9: a", "2/1 from 0.0.0.0:8: b", "1/2 from 0.0.0.0:9: c"}
	if !slices.Equal(log, want) {
		t.Fatalf("deliveries %q, want %q", log, want)
	}
	if len(evs) != 1 || evs[0].Type != core.EvDuplicate || evs[0].Stream != 1 || evs[0].Seq != 2 ||
		evs[0].Peer != 9 || !evs[0].At.Equal(env.now) {
		t.Fatalf("events %+v, want one EvDuplicate of stream 1 seq 2 from 9 at the node's clock", evs)
	}
	cancelDel()
	cancelEv()
	b.Deliver(st, 9, 3, nil)
	b.Deliver(st, 9, 3, nil)
	if len(log) != 3 || len(evs) != 1 {
		t.Fatalf("after cancel: %d deliveries, %d events", len(log), len(evs))
	}
}

func TestOutbox(t *testing.T) {
	env := &fakeEnv{connected: map[ids.NodeID]bool{5: true}}
	b := &Base{Env: env}
	msg := func(seq uint32) wire.Message { return wire.TreeData{Seq: seq} }

	b.SendTo(5, msg(1))       // connected: straight out
	b.SendTo(6, msg(2))       // dials, queues
	b.SendTo(7, msg(3))       // dials, queues
	b.SendTo(6, msg(4))       // queues behind 2
	b.SendTo(1, msg(5))       // self: dropped
	b.SendTo(ids.Nil, msg(6)) // nobody: dropped
	if len(env.sent) != 1 || env.sent[0].to != 5 {
		t.Fatalf("sent %v before any connection came up", env.sent)
	}
	if !slices.Equal(env.dialed, []ids.NodeID{6, 7, 6}) {
		t.Fatalf("dialed %v", env.dialed)
	}

	b.ConnDown(7, nil)
	b.ConnUp(7)
	if len(env.sent) != 1 {
		t.Fatalf("a message queued for a peer that went down was sent: %v", env.sent)
	}
	b.ConnUp(6)
	if len(env.sent) != 3 || env.sent[1].m.(wire.TreeData).Seq != 2 || env.sent[2].m.(wire.TreeData).Seq != 4 {
		t.Fatalf("flush on ConnUp sent %v, want seq 2 then 4 to node 6", env.sent[1:])
	}
	b.ConnUp(6)
	if len(env.sent) != 3 {
		t.Fatal("a second ConnUp re-sent the queue")
	}
}
