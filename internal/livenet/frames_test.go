package livenet_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/livenet"
	"repro/internal/node"
	"repro/internal/wire"
)

// rawHandler is a bare node.Handler: it dials on Start when told to and
// passes receptions and connection events to the test.
type rawHandler struct {
	node.BaseProto
	env     node.Env
	dial    ids.NodeID
	up      chan ids.NodeID
	down    chan error
	receive func(from ids.NodeID, m wire.Message)
}

func newRawHandler(dial ids.NodeID) *rawHandler {
	return &rawHandler{dial: dial, up: make(chan ids.NodeID, 4), down: make(chan error, 4)}
}

func (h *rawHandler) Start(env node.Env) {
	h.env = env
	if h.dial != ids.Nil {
		env.Connect(h.dial)
	}
}
func (h *rawHandler) ConnUp(peer ids.NodeID)         { h.up <- peer }
func (h *rawHandler) ConnDown(_ ids.NodeID, e error) { h.down <- e }
func (h *rawHandler) Receive(from ids.NodeID, m wire.Message) {
	if h.receive != nil {
		h.receive(from, m)
	}
}

func await[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(20 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
		panic("unreachable")
	}
}

// startPair runs two bare nodes on loopback, a connected to b.
func startPair(t *testing.T, cfg livenet.Config) (la, lb *livenet.Node, a, b *rawHandler) {
	t.Helper()
	cfg.Listen = "127.0.0.1:0"
	b = newRawHandler(ids.Nil)
	lb = startRaw(t, cfg, b)
	a = newRawHandler(lb.ID())
	la = startRaw(t, cfg, a)
	await(t, a.up, "a's ConnUp")
	await(t, b.up, "b's ConnUp")
	return la, lb, a, b
}

func startRaw(t *testing.T, cfg livenet.Config, h *rawHandler) *livenet.Node {
	t.Helper()
	cfg.Handler = h
	n, err := livenet.Start(cfg)
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	t.Cleanup(n.Stop)
	return n
}

// testData is the seq-th message of a stream whose every byte derives from
// seq and whose path is one of four routes: three messages in a row share
// one, the next three take another, and every twelve messages the first
// returns — so a retained message can be checked long after it arrived, and a
// shared path long after the reader moved on to other ones.
func testData(seq uint32, payloadLen int) wire.Data {
	route := seq / 3 % 4
	path := make([]ids.NodeID, route*2) // 0, 2, 4, 6 hops
	for i := range path {
		path[i] = ids.NodeID(route)*16 + ids.NodeID(i) + 1
	}
	payload := make([]byte, payloadLen)
	for i := range payload {
		payload[i] = byte(seq + uint32(i)*7)
	}
	return wire.Data{Stream: 9, Seq: seq, Depth: uint16(seq), Path: path, Payload: payload}
}

// TestRetainedMessagesSurviveBufferReuse streams distinct messages whose
// frames fit the reader's buffer, straddle its size and exceed it (the
// scratch fallback), keeps every one, and checks them only after the stream
// ended: a decoded message that still viewed the reader's storage would have
// been overwritten by the frames that followed it. Paths repeat, change and
// come back (testData), and the handler rereads an old message's on every
// reception while the reader decodes the next: a path slice the reader wrote
// again after handing it out is a wrong hop here or a race under -race.
func TestRetainedMessagesSurviveBufferReuse(t *testing.T) {
	const msgs = 2400
	sizes := []int{1, 256, 17, 1500, 256, 4070, 4075, 4076, 4080, 3, 9000, 256, 70000, 0, 256}
	la, lb, a, b := startPair(t, livenet.Config{})
	var kept []wire.Message
	done := make(chan struct{})
	b.receive = func(from ids.NodeID, m wire.Message) {
		if from != la.ID() {
			t.Errorf("message from %v, want %v", from, la.ID())
		}
		kept = append(kept, m)
		old := len(kept) / 2
		if got, ok := kept[old].(wire.Data); !ok || !slices.Equal(got.Path, testData(uint32(old), 0).Path) {
			t.Errorf("message %d's path changed by the time message %d arrived", old, len(kept)-1)
		}
		if len(kept) == msgs {
			close(done)
		}
	}
	for seq := uint32(0); seq < msgs; seq += 100 {
		seq := seq
		la.Call(func() {
			for s := seq; s < seq+100; s++ {
				a.env.Send(lb.ID(), testData(s, sizes[int(s)%len(sizes)]))
			}
		})
	}
	await(t, done, "the last message")
	for i, m := range kept {
		want := testData(uint32(i), sizes[i%len(sizes)])
		got, ok := m.(wire.Data)
		if !ok || got.Seq != want.Seq || got.Depth != want.Depth ||
			!slices.Equal(got.Path, want.Path) || !slices.Equal(got.Payload, want.Payload) {
			t.Fatalf("message %d (payload %d B) changed after it was delivered or arrived out of order", i, len(want.Payload))
		}
	}
}

// TestTruncatedFrameIsUnexpectedEOF: a peer that dies mid-frame — inside the
// header, inside a frame that fits the reader's buffer, inside one that does
// not — surfaces io.ErrUnexpectedEOF through ConnDown.
func TestTruncatedFrameIsUnexpectedEOF(t *testing.T) {
	for _, tc := range []struct {
		name  string
		bytes []byte
	}{
		{"header", []byte{0, 0}},
		{"small frame", append(binary.BigEndian.AppendUint32(nil, 100), make([]byte, 10)...)},
		{"small frame, no body", binary.BigEndian.AppendUint32(nil, 100)},
		{"large frame", append(binary.BigEndian.AppendUint32(nil, 10000), make([]byte, 4500)...)},
		{"large frame, no body", binary.BigEndian.AppendUint32(nil, 10000)},
	} {
		h := newRawHandler(ids.Nil)
		n := startRaw(t, livenet.Config{Listen: "127.0.0.1:0"}, h)
		conn, err := net.Dial("tcp4", n.Addr())
		if err != nil {
			t.Fatal(err)
		}
		hello := wire.Encoder{}
		hello.NodeID(ids.FromHostPort(0x7f000001, 9))
		conn.Write(append(hello.B, tc.bytes...))
		await(t, h.up, "ConnUp")
		conn.Close()
		if err := await(t, h.down, "ConnDown"); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("%s: ConnDown error = %v, want io.ErrUnexpectedEOF", tc.name, err)
		}
	}
}

// TestOversizeSendIsRefused: a message no receiver would accept is dropped
// by the sender, with a log line, and the connection carries on.
func TestOversizeSendIsRefused(t *testing.T) {
	var mu sync.Mutex
	var logged []string
	la, lb, a, b := startPair(t, livenet.Config{Logf: func(format string, args ...any) {
		mu.Lock()
		logged = append(logged, fmt.Sprintf(format, args...))
		mu.Unlock()
	}})
	got := make(chan wire.Message, 2)
	b.receive = func(_ ids.NodeID, m wire.Message) { got <- m }
	la.Call(func() {
		a.env.Send(lb.ID(), wire.Data{Stream: 1, Seq: 1, Payload: make([]byte, 1<<20)})
		a.env.Send(lb.ID(), wire.Data{Stream: 1, Seq: 2, Payload: []byte("next")})
	})
	if m := await(t, got, "the message after the oversize one").(wire.Data); m.Seq != 2 {
		t.Errorf("received seq %d (%d B): the oversize frame was sent", m.Seq, len(m.Payload))
	}
	select {
	case err := <-a.down:
		t.Errorf("sender lost the connection: %v", err)
	case err := <-b.down:
		t.Errorf("receiver dropped the connection: %v", err)
	default:
	}
	mu.Lock()
	defer mu.Unlock()
	if !slices.ContainsFunc(logged, func(l string) bool { return strings.Contains(l, "max 1048576") }) {
		t.Errorf("no log line names the refused frame; logged %q", logged)
	}
}

// TestSteadyStateReceiveAllocs: receiving a 256 B Data costs the objects the
// handler gets to keep and did not have yet — the boxed message, an eighth of
// the 2 KiB slab the connection's wire.ConnDecoder carves eight such payloads
// from, plus the path when it is not the previous message's (the decoder
// interns one path) — and nothing for the frame, the header, a repeated path
// or the hand-off to the actor.
func TestSteadyStateReceiveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	const batch = 500
	la, lb, a, b := startPair(t, livenet.Config{})
	n, done := 0, make(chan struct{}, 1)
	b.receive = func(ids.NodeID, wire.Message) {
		if n++; n%batch == 0 {
			done <- struct{}{}
		}
	}
	for _, tc := range []struct {
		name  string
		paths [][]ids.NodeID
		want  float64
	}{
		{"a repeated 4-hop path", [][]ids.NodeID{{1, 2, 3, 4}}, 1.125},
		{"two paths alternating frame by frame", [][]ids.NodeID{{1, 2, 3, 4}, {1, 2, 5, 4}}, 2.125},
		{"the empty path the source's children see", [][]ids.NodeID{nil}, 1.125},
	} {
		var msgs []wire.Message
		for _, p := range tc.paths {
			msgs = append(msgs, wire.Data{Stream: 1, Seq: 1, Path: p, Payload: make([]byte, 256)})
		}
		sendBatch := func() {
			la.Call(func() {
				for i := 0; i < batch; i++ {
					a.env.Send(lb.ID(), msgs[i%len(msgs)])
				}
			})
			await(t, done, "a batch")
		}
		sendBatch()
		// The slack is the harness's own cost per batch (Call's closure, await's timer).
		if got := testing.AllocsPerRun(8, sendBatch) / batch; got > tc.want+0.1 || got < tc.want-0.5 {
			t.Errorf("%s: %.2f allocations per received message, want %.3f", tc.name, got, tc.want)
		}
	}
}

// TestCallRacesStop hammers Call from several goroutines while the node
// stops. A Call must not return while its fn runs (fn's plain write to state
// would race the caller's read under -race, and read 1 without it), and a
// recycled call must never run a stale fn: each fn runs at most once, and
// only while its own Call is still waiting.
func TestCallRacesStop(t *testing.T) {
	for round := 0; round < 10; round++ {
		n := startRaw(t, livenet.Config{Listen: "127.0.0.1:0"}, newRawHandler(ids.Nil))
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Fifty more once Stop began: most find the actor gone and return
				// without running fn.
				for i, afterStop := 0, 0; afterStop < 50; i++ {
					if n.Stopped() {
						afterStop++
					}
					var waiting atomic.Bool
					waiting.Store(true)
					state, runs := 0, 0
					n.Call(func() {
						if !waiting.Load() {
							t.Error("fn ran after its Call returned")
						}
						runs++
						state = 1
						if i%8 == 0 {
							runtime.Gosched() // widen the window Stop may hit
						}
						state = 2
					})
					waiting.Store(false)
					if state == 1 || runs > 1 {
						t.Errorf("Call returned with fn in state %d after %d runs", state, runs)
					}
				}
			}()
		}
		time.Sleep(time.Duration(round) * 200 * time.Microsecond)
		n.Stop()
		wg.Wait()
	}
}

// startChain runs three bare nodes on loopback, a → b → c, b relaying every
// message it receives to c and c handing its receptions to got.
func startChain(t *testing.T, got func(wire.Message)) (la, lb, lc *livenet.Node, a, b, c *rawHandler) {
	t.Helper()
	cfg := livenet.Config{Listen: "127.0.0.1:0"}
	c = newRawHandler(ids.Nil)
	lc = startRaw(t, cfg, c)
	b = newRawHandler(lc.ID())
	lb = startRaw(t, cfg, b)
	a = newRawHandler(lb.ID())
	la = startRaw(t, cfg, a)
	await(t, a.up, "a's ConnUp")
	await(t, b.up, "b's first ConnUp")
	await(t, b.up, "b's second ConnUp")
	await(t, c.up, "c's ConnUp")
	b.receive = func(_ ids.NodeID, m wire.Message) { b.env.Send(lc.ID(), m) }
	c.receive = func(_ ids.NodeID, m wire.Message) { got(m) }
	return la, lb, lc, a, b, c
}

// TestOneFlushPerTurnAndPeer: what one actor turn sends to a peer goes to the
// socket in one write, and a relay that receives a burst hands it on in fewer
// writes than messages.
func TestOneFlushPerTurnAndPeer(t *testing.T) {
	const k = 10
	n, done := 0, make(chan struct{})
	la, lb, _, a, _, _ := startChain(t, func(wire.Message) {
		if n++; n == k {
			close(done)
		}
	})
	before := la.Traffic()
	la.Call(func() {
		for i := 0; i < k; i++ {
			a.env.Send(lb.ID(), wire.Data{Stream: 1, Seq: uint32(i), Payload: make([]byte, 100)})
		}
	})
	await(t, done, "the relayed burst")
	if d := la.Traffic().Sub(before); d.MsgsOut != k || d.Flushes != 1 {
		t.Errorf("one turn sent %d messages in %d writes, want %d in 1", d.MsgsOut, d.Flushes, k)
	}
	if tb := lb.Traffic(); tb.MsgsOut != k || tb.Flushes > k {
		t.Errorf("the relay sent %d messages in %d writes, want %d in at most as many", tb.MsgsOut, tb.Flushes, k)
	}
}

// TestRelaySoak pushes 20 000 messages down a three-node chain in bursts of
// every size up to 64: every one arrives, in order, no connection drops, the
// relay coalesced (fewer writes than messages), and all three nodes stop. A
// lost wake-up between reader and actor, or a frame left in a write buffer,
// is a message that never arrives here.
func TestRelaySoak(t *testing.T) {
	const msgs = 20000
	next, done := uint32(0), make(chan struct{})
	la, lb, lc, a, b, c := startChain(t, func(m wire.Message) {
		if d, ok := m.(wire.Data); !ok || d.Seq != next {
			t.Errorf("reception %d is %v", next, m)
		}
		if next++; next == msgs {
			close(done)
		}
	})
	for seq, burst := uint32(0), uint32(1); seq < msgs; burst = burst%64 + 1 {
		from, to := seq, min(seq+burst, msgs)
		la.Call(func() {
			for s := from; s < to; s++ {
				a.env.Send(lb.ID(), wire.Data{Stream: 1, Seq: s, Path: []ids.NodeID{1, 2}, Payload: make([]byte, s%300)})
			}
		})
		seq = to
	}
	await(t, done, "the last message")
	for _, h := range []*rawHandler{a, b, c} {
		select {
		case err := <-h.down:
			t.Errorf("a connection dropped: %v", err)
		default:
		}
	}
	if tb := lb.Traffic(); tb.MsgsOut != msgs || tb.Flushes >= msgs {
		t.Errorf("the relay sent %d messages in %d writes, want %d in fewer", tb.MsgsOut, tb.Flushes, msgs)
	}
	stopped := make(chan struct{})
	go func() {
		la.Stop()
		lb.Stop()
		lc.Stop()
		close(stopped)
	}()
	await(t, stopped, "the three nodes to stop")
}
