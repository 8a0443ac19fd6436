package hyparview

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/node"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// handEnv is a node.Env driven by hand: the test moves the clock, calls
// keepAliveTick itself (timers never fire) and reads what was sent, unless
// discard is set.
type handEnv struct {
	now     time.Time
	rng     *rand.Rand
	sent    []sentMsg
	discard bool
}

type sentMsg struct {
	to ids.NodeID
	m  wire.Message
}

type deadTimer struct{}

func (deadTimer) Stop() bool { return true }

func (e *handEnv) ID() ids.NodeID                         { return 1 }
func (e *handEnv) Now() time.Time                         { return e.now }
func (e *handEnv) Rand() *rand.Rand                       { return e.rng }
func (e *handEnv) After(time.Duration, func()) node.Timer { return deadTimer{} }
func (e *handEnv) Connect(ids.NodeID)                     {}
func (e *handEnv) Close(ids.NodeID)                       {}
func (e *handEnv) Connected(ids.NodeID) bool              { return true }
func (e *handEnv) Log(string, ...any)                     {}

func (e *handEnv) Send(to ids.NodeID, m wire.Message) {
	if !e.discard {
		e.sent = append(e.sent, sentMsg{to, m})
	}
}

// asKeepAlive returns the heartbeat m carries, in either form it arrives
// in: keepAliveTick sends pointers into its round's slab, and the decoders
// return values.
func asKeepAlive(m wire.Message) (wire.KeepAlive, bool) {
	switch ka := m.(type) {
	case wire.KeepAlive:
		return ka, true
	case *wire.KeepAlive:
		return *ka, true
	}
	return wire.KeepAlive{}, false
}

// lastKeepAlive is the most recent heartbeat sent to peer.
func (e *handEnv) lastKeepAlive(t *testing.T, peer ids.NodeID) wire.KeepAlive {
	t.Helper()
	for i := len(e.sent) - 1; i >= 0; i-- {
		if ka, ok := asKeepAlive(e.sent[i].m); ok && e.sent[i].to == peer {
			return ka
		}
	}
	t.Fatalf("no heartbeat was sent to %v", peer)
	return wire.KeepAlive{}
}

// newCountedNode is node 1 on a handEnv, with no neighbours yet and its
// NeighborUp and NeighborDown calls counted.
func newCountedNode(cfg Config) (*Protocol, *handEnv, balance) {
	env := &handEnv{now: simnet.Epoch().Add(time.Hour), rng: rand.New(rand.NewSource(1))}
	b := balance{}
	p := New(b.counted(cfg))
	p.Start(env)
	return p, env, b
}

// newHandNode is node 1 with nodes 2, 3, … as its n connected neighbours.
func newHandNode(t *testing.T, n int) (*Protocol, *handEnv) {
	p, env, _ := newCountedNode(DefaultConfig())
	for i := 0; i < n; i++ {
		p.Receive(ids.NodeID(2+i), wire.Join{})
	}
	if got := len(p.Active()); got != n {
		t.Fatalf("%d of %d joiners are in the active view", got, n)
	}
	return p, env
}

// TestEchoIsSpentOnce pins what a heartbeat hands back: the peer's SentAt
// advanced by the time it was held here, once, and 0 from then on until the
// peer is heard again.
func TestEchoIsSpentOnce(t *testing.T) {
	p, env := newHandNode(t, 1)
	p.keepAliveTick()
	if ka := env.lastKeepAlive(t, 2); ka.Echo != 0 || ka.SentAt != env.now.UnixNano() {
		t.Fatalf("first heartbeat = %+v, want SentAt = now and nothing to echo", ka)
	}

	const peerClock = 42_000_000_000 // the peer's clock is its own
	p.Receive(2, wire.KeepAlive{SentAt: peerClock})
	env.now = env.now.Add(300 * time.Millisecond)
	p.keepAliveTick()
	if got, want := env.lastKeepAlive(t, 2).Echo, int64(peerClock+300*time.Millisecond); got != want {
		t.Errorf("echo = %d, want the peer's SentAt plus the 300ms it was held = %d", got, want)
	}
	env.now = env.now.Add(time.Second)
	p.keepAliveTick()
	if got := env.lastKeepAlive(t, 2).Echo; got != 0 {
		t.Errorf("echo = %d on the next heartbeat with nothing new heard, want 0", got)
	}
}

// TestKeepAliveRoundAllocs: a heartbeat round boxes all its heartbeats in
// one slab, so it costs one allocation however many neighbours it reaches.
func TestKeepAliveRoundAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	p, env := newHandNode(t, 8)
	env.discard = true
	got := testing.AllocsPerRun(100, func() {
		p.keepAliveTick()
		for i := range p.view {
			p.view[i].missed = 0 // nobody answers here; keep all 8 in the view
		}
	})
	if got != 1 {
		t.Errorf("a round to 8 neighbours makes %v allocations, want 1", got)
	}
	if n := len(p.Active()); n != 8 {
		t.Fatalf("%d neighbours left after the rounds, want 8", n)
	}
}

// TestSentKeepAlivesAreImmutable pins the ownership rule the slab rests on:
// a heartbeat is read-only from Send on and may still be in flight (on the
// simulator, read on another shard) when the next round runs, so a round
// never writes into an earlier round's heartbeats, and each neighbour's
// heartbeat carries its own echo.
func TestSentKeepAlivesAreImmutable(t *testing.T) {
	const n = 8
	p, env := newHandNode(t, n)
	env.sent = nil // the joins' forward-joins
	p.keepAliveTick()
	if len(env.sent) != n {
		t.Fatalf("round r sent %d messages, want %d", len(env.sent), n)
	}
	roundR := env.sent
	want := make([]wire.KeepAlive, n)
	for i, s := range roundR {
		want[i], _ = asKeepAlive(s.m)
	}

	// Every neighbour is heard with its own clock, so round r+1 echoes a
	// different value to each.
	peerClock := func(peer ids.NodeID) int64 { return int64(peer) * 1_000_000_000 }
	for _, s := range roundR {
		p.Receive(s.to, wire.KeepAlive{SentAt: peerClock(s.to)})
	}
	env.sent = nil
	env.now = env.now.Add(300 * time.Millisecond)
	p.keepAliveTick()
	if len(env.sent) != n {
		t.Fatalf("round r+1 sent %d messages, want %d", len(env.sent), n)
	}

	for i, s := range roundR {
		if got, _ := asKeepAlive(s.m); !reflect.DeepEqual(got, want[i]) {
			t.Errorf("round r's heartbeat to %v became %+v, was %+v", s.to, got, want[i])
		}
	}
	for _, s := range env.sent {
		ka, ok := asKeepAlive(s.m)
		if !ok {
			t.Fatalf("round r+1 sent a %v to %v", s.m.Kind(), s.to)
		}
		if want := peerClock(s.to) + int64(300*time.Millisecond); ka.Echo != want {
			t.Errorf("heartbeat to %v echoes %d, want its own %d", s.to, ka.Echo, want)
		}
	}
}

// TestEchoSampleIsBounded: RTT samples come off the network, so only a
// sample in (0, MissLimit×KeepAlivePeriod] reaches the estimate.
func TestEchoSampleIsBounded(t *testing.T) {
	p, env := newHandNode(t, 1)
	now := env.now.UnixNano()
	limit := int64(time.Duration(p.cfg.MissLimit) * p.cfg.KeepAlivePeriod)
	echo := func(e int64) { p.Receive(2, wire.KeepAlive{SentAt: 1, Echo: e}) }

	for _, hostile := range []int64{
		now,                      // a sample of exactly 0
		now + int64(time.Second), // from the future: negative
		now - limit - 1,          // older than a dead neighbour would be
		1,                        // a clock that is not ours
		-1,
		math.MaxInt64,
		math.MinInt64, // now − Echo wraps around
	} {
		echo(hostile)
		if got := p.RTT(2); got != 0 {
			t.Fatalf("echo %d produced an RTT of %v, want it ignored", hostile, got)
		}
	}

	echo(now - int64(8*time.Millisecond))
	if got := p.RTT(2); got != 8*time.Millisecond {
		t.Fatalf("RTT = %v after a first 8ms sample, want 8ms", got)
	}
	echo(now - int64(16*time.Millisecond))
	if got := p.RTT(2); got != 10*time.Millisecond {
		t.Errorf("RTT = %v after 8ms then 16ms, want the EWMA's 10ms", got)
	}
	echo(now - limit) // the longest sample believed
	want := (3*10*time.Millisecond + time.Duration(limit)) / 4
	if got := p.RTT(2); got != want {
		t.Errorf("RTT = %v after a sample at the limit, want %v", got, want)
	}
	echo(now + 1)
	echo(0) // nothing to echo
	if got := p.RTT(2); got != want {
		t.Errorf("RTT = %v, want %v untouched by a hostile and an empty echo", got, want)
	}
}

// TestKeepAliveIsOneWay is the guard for the protocol's message count: on a
// settled overlay every connected active link carries exactly one heartbeat
// per direction per period and nothing answers one.
func TestKeepAliveIsOneWay(t *testing.T) {
	cfg := DefaultConfig()
	c := newCluster(t, 64, 3, cfg)
	c.bootstrap(50 * time.Millisecond)
	c.net.RunUntil(30 * time.Second)

	links := func() int {
		n := 0
		for _, p := range c.peers {
			n += len(p.Active())
		}
		return n
	}
	before := links()
	var mu sync.Mutex // Tap runs on shard goroutines
	byKind := map[wire.Kind]int{}
	c.net.Tap = func(_, _ ids.NodeID, m wire.Message) {
		mu.Lock()
		byKind[m.Kind()]++
		mu.Unlock()
	}
	const periods = 10
	c.net.RunFor(periods * cfg.KeepAlivePeriod)
	c.net.Tap = nil
	if after := links(); after != before || before < 64 {
		t.Fatalf("the overlay is not settled: %d directed links before, %d after", before, after)
	}

	got := byKind[wire.KindKeepAlive]
	if lo, hi := before*(periods-1), before*(periods+1); got < lo || got > hi {
		t.Errorf("%d heartbeats over %d directed links in %d periods, want %d ± %d",
			got, before, periods, before*periods, before)
	}
	for kind, n := range byKind {
		switch kind {
		case wire.KindKeepAlive, wire.KindShuffle, wire.KindShuffleReply:
		default:
			t.Errorf("%d %v delivered on a settled overlay, want heartbeats and shuffles only", n, kind)
		}
	}
}

// mute is a peer that accepts connections and never says anything.
type mute struct{}

func (mute) Start(node.Env)                   {}
func (mute) Receive(ids.NodeID, wire.Message) {}
func (mute) ConnUp(ids.NodeID)                {}
func (mute) ConnDown(ids.NodeID, error)       {}
func (mute) Stop()                            {}

// TestSilentPeerIsClosed: a neighbour whose connection stays up but which
// sends nothing is closed after MissLimit periods of silence, not sooner.
func TestSilentPeerIsClosed(t *testing.T) {
	cfg := DefaultConfig()
	net := simnet.New(simnet.Options{Seed: 1})
	p := New(cfg)
	net.AddNode(1, muxFor(p))
	net.AddNode(2, mute{})
	net.At(0, func() { p.Join(2) })

	// The first tick comes within 1.5 periods of the start and counts one
	// silent period; the neighbour survives MissLimit of them.
	net.RunUntil(time.Duration(cfg.MissLimit) * cfg.KeepAlivePeriod)
	if !p.ActiveContains(2) {
		t.Fatalf("closed before %d silent periods had passed", cfg.MissLimit)
	}
	net.RunUntil(time.Duration(cfg.MissLimit+2) * cfg.KeepAlivePeriod)
	if p.ActiveContains(2) {
		t.Errorf("a peer silent for %d periods is still listed", cfg.MissLimit+1)
	}
	if got := p.Metrics().KeepAlivesMissed; got != 1 {
		t.Errorf("KeepAlivesMissed = %d, want 1", got)
	}
}

// TestOneSidedEntryHeals: A lists B and B does not list A. B sends A no
// heartbeats, and since nothing answers A's any more, A drops the entry
// within MissLimit+1 periods instead of keeping it for ever.
func TestOneSidedEntryHeals(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ShufflePeriod = 0
	net := simnet.New(simnet.Options{Seed: 2})
	a, b := New(cfg), New(cfg)
	net.AddNode(1, muxFor(a))
	net.AddNode(2, muxFor(b))
	net.At(0, func() { a.Join(2) })
	net.RunUntil(5 * time.Second)
	if !a.ActiveContains(2) || !b.ActiveContains(1) || a.RTT(2) == 0 || b.RTT(1) == 0 {
		t.Fatal("the two nodes did not become neighbours with a measured RTT")
	}

	// B forgets A without telling it: the connection stays up, A's
	// heartbeats keep arriving at B, and B has no reason to send any.
	net.At(5*time.Second, func() { b.drop(1) })
	net.RunFor(time.Duration(cfg.MissLimit+1) * cfg.KeepAlivePeriod)
	if a.ActiveContains(2) {
		t.Errorf("A still lists B %d periods after B dropped it", cfg.MissLimit+1)
	}
	if got := a.Metrics().KeepAlivesMissed; got != 1 {
		t.Errorf("A's KeepAlivesMissed = %d, want 1", got)
	}
}
