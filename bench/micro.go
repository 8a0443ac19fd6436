package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/blob"
	"repro/internal/core"
	"repro/internal/hyparview"
	"repro/internal/ids"
	"repro/internal/livenet"
	"repro/internal/node"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/wire"
)

// timeOp calls op for about d and returns its mean time and allocations per
// call. Layers are timed from outside, through their exported functions.
func timeOp(d time.Duration, op func()) (ns, allocs float64) {
	op() // first-call set-up is not what is measured
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	n := 0
	for batch := 1; time.Since(start) < d; batch *= 2 {
		for i := 0; i < batch; i++ {
			op()
		}
		n += batch
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)
	return float64(elapsed) / float64(n), float64(ms1.Mallocs-ms0.Mallocs) / float64(n)
}

// stubEnv is a node.Env that goes nowhere: sends are counted, timers never
// fire, every peer is connected. It isolates a protocol's own cost.
type stubEnv struct {
	id    ids.NodeID
	now   time.Time
	rng   *rand.Rand
	sends int
}

type stubTimer struct{}

func (stubTimer) Stop() bool { return true }

func newStubEnv(id ids.NodeID) *stubEnv {
	return &stubEnv{id: id, now: simnet.Epoch(), rng: rand.New(rand.NewSource(int64(id)))}
}

func (e *stubEnv) ID() ids.NodeID                         { return e.id }
func (e *stubEnv) Now() time.Time                         { return e.now }
func (e *stubEnv) Rand() *rand.Rand                       { return e.rng }
func (e *stubEnv) After(time.Duration, func()) node.Timer { return stubTimer{} }
func (e *stubEnv) Connect(ids.NodeID)                     {}
func (e *stubEnv) Close(ids.NodeID)                       {}
func (e *stubEnv) Send(ids.NodeID, wire.Message)          { e.sends++ }
func (e *stubEnv) Connected(ids.NodeID) bool              { return true }
func (e *stubEnv) Log(string, ...any)                     {}

// stubPSS is a fixed active view.
type stubPSS []ids.NodeID

func (s stubPSS) Active() []ids.NodeID { return s }
func (s stubPSS) ActiveContains(p ids.NodeID) bool {
	for _, id := range s {
		if id == p {
			return true
		}
	}
	return false
}
func (s stubPSS) RTT(ids.NodeID) time.Duration { return time.Millisecond }

// newStubCore is a tree-mode core with a parent (id 2) and four more
// neighbors (3..6), already fed one message so the stream exists.
func newStubCore(id ids.NodeID) (*core.Protocol, *stubEnv, wire.Data) {
	view := stubPSS{2, 3, 4, 5, 6}
	p := core.New(core.Config{Mode: core.ModeTree, PSS: view})
	env := newStubEnv(id)
	p.Start(env)
	for _, n := range view {
		p.NeighborUp(n)
	}
	msg := wire.Data{Stream: 1, Seq: 1, Path: []ids.NodeID{100, 101, 102, 2}, Payload: make([]byte, payloadSize)}
	p.Receive(2, msg)
	return p, env, msg
}

// pingHandler is a two-node traffic generator for the runtimes: it connects
// to dial on Start when told to, counts every message, and echoes it back
// while echo is set or fewer than limit have arrived.
type pingHandler struct {
	node.BaseProto
	env     node.Env
	dial    ids.NodeID
	limit   int64
	tick    time.Duration // when set, a local timer re-arms itself this often
	echo    atomic.Bool
	got     atomic.Int64
	up      chan struct{}
	onReply func()
}

func (h *pingHandler) Start(env node.Env) {
	h.env = env
	if h.dial != ids.Nil {
		env.Connect(h.dial)
	}
	if h.tick > 0 {
		var tick func()
		tick = func() { env.After(h.tick, tick) }
		tick()
	}
}

func (h *pingHandler) ConnUp(ids.NodeID) {
	if h.up != nil {
		close(h.up)
	}
}

func (h *pingHandler) Receive(from ids.NodeID, m wire.Message) {
	if n := h.got.Add(1); n <= h.limit || h.echo.Load() {
		h.env.Send(from, m)
	}
	if h.onReply != nil {
		h.onReply()
	}
}

// timeSim advances the simulation in steps for about d and returns the mean
// time and allocations per event fired.
func timeSim(d time.Duration, net *simnet.Network, step time.Duration) (ns, allocs float64) {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	fired := net.EventsFired()
	start := time.Now()
	for time.Since(start) < d {
		net.RunFor(step)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)
	n := float64(net.EventsFired() - fired)
	return float64(elapsed) / n, float64(ms1.Mallocs-ms0.Mallocs) / n
}

// simTimer times one node timer scheduled and fired.
func simTimer(d time.Duration) (ns, allocs float64) {
	net := simnet.New(simnet.Options{Seed: 1, Workers: 1})
	h := &pingHandler{}
	net.AddNode(1, h)
	net.RunFor(time.Millisecond)
	var tick func()
	tick = func() { h.env.After(time.Millisecond, tick) }
	net.After(0, tick)
	net.RunFor(time.Second)
	return timeSim(d, net, time.Second)
}

// simPingPong times one simulated message hop (send + deliver) between two
// nodes that bounce a message simHops times, on the given number of shards:
// nodes are placed round-robin, so with two shards every hop crosses shards.
//
// On two shards each node also ticks a local timer every 10 ms, and the
// bouncing ends well before the virtual deadline. Both are there to stay
// clear of the sharded scheduler's quiesce race (ROADMAP, fix-first 1): a
// shard with nothing left below the barrier can leave while its peer is
// posting to it, and a bare two-node ping-pong, where the only event keeps
// changing shards, hung about once in a hundred runs. The timers (under 1 %
// of the time) keep both shards busy until the traffic is over.
func simPingPong(workers int) (ns, allocs float64) {
	const simHops = 50000
	net := simnet.New(simnet.Options{Seed: 1, Workers: workers, ParallelThreshold: -1})
	defer net.Close()
	a, b := &pingHandler{dial: 2, limit: simHops / 2}, &pingHandler{limit: simHops / 2}
	if workers > 1 {
		a.tick, b.tick = 10*time.Millisecond, 10*time.Millisecond
	}
	net.AddNode(1, a)
	net.AddNode(2, b)
	net.RunFor(time.Second) // connect
	net.After(0, func() { a.env.Send(2, wire.Data{Stream: 1, Seq: 1, Payload: make([]byte, payloadSize)}) })
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	net.RunFor(simHops * 400 * time.Microsecond) // a hop takes at most 300us of virtual time
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)
	n := float64(a.got.Load() + b.got.Load())
	return float64(elapsed) / n, float64(ms1.Mallocs-ms0.Mallocs) / n
}

// runMicro times the exported functions of each layer, d each, after checking
// once that each does what the timing assumes. The run collector and the
// Report fold are private to the root package and cannot be reached from
// here: stats.* stands in for them.
func runMicro(d time.Duration) (samples, error) {
	s := samples{}
	two := func(name string) func(ns, allocs float64) {
		return func(ns, allocs float64) {
			s.add(name+"_ns", ns)
			s.add(name+"_allocs", allocs)
		}
	}
	var ns float64

	// wire: frame and decode the data message and a keep-alive carrying a
	// real piggyback.
	cp, env, data := newStubCore(1)
	frame := wire.Marshal(data)
	if back, err := wire.Unmarshal(frame); err != nil || !reflect.DeepEqual(back, wire.Message(data)) {
		return nil, fmt.Errorf("wire: Data does not survive Marshal+Unmarshal: %v, %v", back, err)
	}
	var msg wire.Message = data
	buf := make([]byte, 0, 1024)
	two("wire.frame_data256")(timeOp(d, func() { buf = wire.AppendFrame(buf[:0], msg) }))
	two("wire.unmarshal_data256")(timeOp(d, func() { wire.Unmarshal(frame) }))
	var ka wire.Message = wire.KeepAlive{SentAt: 1, Piggyback: cp.PiggybackBlob()}
	kaFrame := wire.Marshal(ka)
	if back, err := wire.Unmarshal(kaFrame); err != nil || !reflect.DeepEqual(back, ka) {
		return nil, fmt.Errorf("wire: KeepAlive does not survive Marshal+Unmarshal: %v, %v", back, err)
	}
	ns, _ = timeOp(d, func() { buf = wire.AppendFrame(buf[:0], ka) })
	s.add("wire.frame_keepalive_pb_ns", ns)
	ns, _ = timeOp(d, func() { wire.Unmarshal(kaFrame) })
	s.add("wire.unmarshal_keepalive_pb_ns", ns)

	// core: a new message delivered and relayed to four children; the same
	// message again (a duplicate from the parent); a piggyback built by one
	// node and handled by another.
	relay := func() {
		data.Seq++
		cp.Receive(2, data)
	}
	sends, delivered := env.sends, cp.Metrics().Delivered
	relay()
	if env.sends != sends+4 || cp.Metrics().Delivered != delivered+1 {
		return nil, fmt.Errorf("core: a new Data made %d sends and %d deliveries, want 4 and 1",
			env.sends-sends, cp.Metrics().Delivered-delivered)
	}
	two("core.relay4")(timeOp(d, relay))
	ns, _ = timeOp(d, func() { cp.Receive(2, data) })
	s.add("core.dup_ns", ns)
	other, _, _ := newStubCore(3)
	ns, _ = timeOp(d, func() { other.HandlePiggyback(1, cp.PiggybackBlob()) })
	s.add("core.piggyback_roundtrip_ns", ns)

	// hyparview: a keep-alive answered; a shuffle integrated and answered.
	hv := hyparview.New(hyparview.DefaultConfig())
	hv.Start(newStubEnv(1))
	for id := ids.NodeID(2); id <= 6; id++ {
		hv.Receive(id, wire.Join{})
	}
	if n := len(hv.Active()); n != 5 {
		return nil, fmt.Errorf("hyparview: %d of 5 joiners in the active view", n)
	}
	ns, _ = timeOp(d, func() { hv.Receive(2, wire.KeepAlive{SentAt: 1}) })
	s.add("hyparview.keepalive_recv_ns", ns)
	next := ids.NodeID(1000)
	ns, _ = timeOp(d, func() {
		nodes := make([]ids.NodeID, 8)
		for i := range nodes {
			next++
			nodes[i] = next
		}
		hv.Receive(2, wire.Shuffle{Origin: 3, TTL: 1, Nodes: nodes})
	})
	s.add("hyparview.shuffle_ns", ns)

	// simnet: a node timer scheduled and fired; a message sent and
	// delivered on one shard and across two.
	two("simnet.timer")(simTimer(d))
	two("simnet.send_deliver")(simPingPong(1))
	xns, _ := simPingPong(2)
	s.add("simnet.xshard_send_deliver_ns", xns)

	// stats: the streaming delay histogram the run collector records into
	// and the fold a Report is built from.
	lh := stats.NewLogHist()
	v := 1e-4
	ns, _ = timeOp(d, func() {
		v *= 1.0001
		if v > 1 {
			v = 1e-4
		}
		lh.Add(v)
	})
	s.add("stats.loghist_add_ns", ns)
	ns, _ = timeOp(d, func() { lh.FoldInto(&stats.Sample{}) })
	s.add("stats.loghist_fold_us", ns/1e3)

	if err := livenetPair(d, s); err != nil {
		return nil, fmt.Errorf("livenet pair: %w", err)
	}

	// blob: 1 MiB split 16-of-24, then rebuilt with half the data chunks lost.
	payload := make([]byte, 1<<20)
	rand.New(rand.NewSource(1)).Read(payload)
	prm := blob.Params{ChunkSize: 64 << 10, Total: 24}
	chunks, k, _, err := blob.Encode(payload, prm)
	if err != nil {
		return nil, err
	}
	for i := 0; i < 8; i++ {
		chunks[2*i] = nil
	}
	if back, err := blob.Reconstruct(chunks, k, len(payload), prm.ChunkSize); err != nil || !bytes.Equal(back, payload) {
		return nil, fmt.Errorf("blob: 8 data and 8 parity chunks of 16-of-24 do not rebuild the payload: %v", err)
	}
	ns, _ = timeOp(d, func() { blob.Encode(payload, prm) })
	s.add("blob.encode_mbps", 1e9/ns)
	ns, _ = timeOp(d, func() { blob.Reconstruct(chunks, k, len(payload), prm.ChunkSize) })
	s.add("blob.reconstruct_mbps", 1e9/ns)
	return s, nil
}

// livenetPair measures two livenet nodes on loopback with nothing above
// them: one-way message rate and ping-pong round trip.
func livenetPair(d time.Duration, s samples) error {
	lb, err := livenet.Listen(livenet.Config{Listen: "127.0.0.1:0"})
	if err != nil {
		return err
	}
	defer lb.Stop()
	la, err := livenet.Listen(livenet.Config{Listen: "127.0.0.1:0"})
	if err != nil {
		return err
	}
	defer la.Stop()
	reply := make(chan struct{}, 1)
	a := &pingHandler{dial: lb.ID(), up: make(chan struct{}), onReply: func() { reply <- struct{}{} }}
	b := &pingHandler{}
	if err := lb.Run(b); err != nil {
		return err
	}
	if err := la.Run(a); err != nil {
		return err
	}
	timeout := time.After(10*time.Second + 2*d)
	select {
	case <-a.up:
	case <-timeout:
		return fmt.Errorf("no connection")
	}
	var msg wire.Message = wire.Data{Stream: 1, Seq: 1, Payload: make([]byte, payloadSize)}

	// One way: a sends in batches from its actor, b counts.
	const batch = 256
	start := time.Now()
	var sent int64
	for time.Since(start) < d {
		la.Call(func() {
			for i := 0; i < batch; i++ {
				a.env.Send(lb.ID(), msg)
			}
		})
		sent += batch
	}
	for b.got.Load() < sent {
		select {
		case <-timeout:
			return fmt.Errorf("%d of %d messages arrived", b.got.Load(), sent)
		default:
			time.Sleep(100 * time.Microsecond)
		}
	}
	s.add("livenet.pair_msgs_per_s", float64(sent)/time.Since(start).Seconds())

	// Round trip: b echoes, a's Receive releases the next ping.
	b.echo.Store(true)
	var rtt hist
	for start = time.Now(); time.Since(start) < d; {
		t := time.Now()
		la.Call(func() { a.env.Send(lb.ID(), msg) })
		select {
		case <-reply:
			rtt.add(int64(time.Since(t)))
		case <-timeout:
			return fmt.Errorf("no echo")
		}
	}
	s.add("livenet.pair_rtt_p50_us", rtt.percentile(50)/1e3)
	return nil
}
