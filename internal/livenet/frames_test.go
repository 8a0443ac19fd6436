package livenet_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"strings"
	"sync"
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

// testData is the seq-th message of a stream whose every byte and path entry
// derives from seq, so a retained message can be checked long after.
func testData(seq uint32, payloadLen int) wire.Data {
	path := make([]ids.NodeID, seq%7)
	for i := range path {
		path[i] = ids.NodeID(seq)*16 + ids.NodeID(i) + 1
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
// been overwritten by the frames that followed it.
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
		if kept = append(kept, m); len(kept) == msgs {
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

// TestSteadyStateReceiveAllocs: receiving a 256 B Data costs the three
// objects the handler gets to keep — payload, path, boxed message — and
// nothing for the frame, the header or the hand-off to the actor.
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
	var msg wire.Message = wire.Data{Stream: 1, Seq: 1, Path: []ids.NodeID{1, 2, 3, 4}, Payload: make([]byte, 256)}
	sendBatch := func() {
		la.Call(func() {
			for i := 0; i < batch; i++ {
				a.env.Send(lb.ID(), msg)
			}
		})
		await(t, done, "a batch")
	}
	sendBatch()
	// The slack is the harness's own cost per batch (Call, await's timer).
	if got := testing.AllocsPerRun(8, sendBatch) / batch; got > 3.1 {
		t.Errorf("%.2f allocations per received message, want 3", got)
	}
}
