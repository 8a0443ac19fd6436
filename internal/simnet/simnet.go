// Package simnet is a deterministic discrete-event network simulator.
//
// It stands in for the paper's two testbeds (a 512-node cluster deployment
// and a 200-node PlanetLab slice): every node is a single-threaded actor
// (node.Handler) driven by a virtual clock, connections behave like the
// paper's monitored TCP links (FIFO per direction, failure detection after a
// configurable delay), and per-node bandwidth is accounted from the real
// encoded size of every message.
//
// Determinism: every latency draw is a pure function of (seed, sender,
// receiver, per-sender draw counter), each node's protocol RNG is a
// splitmix64 stream started at a pure hash of (seed, node id, purpose),
// and simultaneous events are ordered by (time, scheduling node, per-node
// sequence number) — so a run is a pure function of (seed, workload).
// Structural tests rely on this.
//
// Engine: virtual time is an int64 nanosecond offset from the epoch, and
// events live in index-tracking binary heaps over slab-allocated arenas with
// free lists (true removal, no tombstones; the steady-state Send → deliver
// hot path allocates nothing). With Options.Workers > 1 node actors are
// sharded across worker goroutines under a conservative-lookahead scheduler
// (see sched.go); the simulation outcome is byte-identical for every worker
// count.
package simnet

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ids"
	"repro/internal/node"
	"repro/internal/wire"
)

// Errors surfaced through Handler.ConnDown.
var (
	ErrPeerCrashed = errors.New("simnet: peer failure detected")
	ErrPeerClosed  = errors.New("simnet: peer closed connection")
	ErrDialFailed  = errors.New("simnet: dial failed")
)

// Phase labels a bandwidth-accounting period. The §III-D comparison splits
// traffic into stabilization (bootstrap) and dissemination.
type Phase int

// Accounting phases.
const (
	PhaseStabilization Phase = iota
	PhaseDissemination
	numPhases
)

// String names the phase.
func (p Phase) String() string {
	switch p {
	case PhaseStabilization:
		return "stabilization"
	case PhaseDissemination:
		return "dissemination"
	}
	return fmt.Sprintf("phase(%d)", int(p))
}

// Usage is one node's byte and message counters, split by phase and by
// control vs payload class (wire.Kind.IsControl).
type Usage struct {
	UpBytes      [numPhases][2]uint64 // [phase][0=control,1=payload]
	DownBytes    [numPhases][2]uint64
	UpMessages   [numPhases]uint64
	DownMessages [numPhases]uint64
}

// TotalUp returns all bytes sent across phases and classes.
func (u Usage) TotalUp() uint64 {
	var t uint64
	for p := 0; p < int(numPhases); p++ {
		t += u.UpBytes[p][0] + u.UpBytes[p][1]
	}
	return t
}

// TotalDown returns all bytes received across phases and classes.
func (u Usage) TotalDown() uint64 {
	var t uint64
	for p := 0; p < int(numPhases); p++ {
		t += u.DownBytes[p][0] + u.DownBytes[p][1]
	}
	return t
}

// Options configures a Network.
type Options struct {
	// Seed drives all randomness (latency sampling, node RNGs).
	Seed int64
	// Latency models per-pair one-way delay. Defaults to Cluster().
	Latency LatencyModel
	// DetectDelay is how long after a crash the peers' failure detectors
	// fire (the paper's keep-alive/TCP detection, §II-F). Default 200ms.
	DetectDelay time.Duration
	// Bandwidth is the per-link throughput in bytes/second used to charge
	// serialization delay on top of propagation latency. 0 means infinite
	// (delay is latency only). Default 0.
	Bandwidth int64
	// NodeBandwidth is the per-node shared egress throughput in
	// bytes/second: all of a node's outgoing messages serialize through
	// one uplink, so a flood to many neighbors queues. This models the
	// contention that distorts first-arrival order on real testbeds
	// (PlanetLab). 0 means infinite. Default 0.
	NodeBandwidth int64
	// ProcessingDelay, when set, is sampled per delivered message as the
	// receiver's CPU service time; deliveries at one node are serialized
	// through that CPU. This models the paper's testbeds (hundreds of
	// prototype processes sharing hosts): nodes that receive many copies
	// — flooding, high-fanout gossip — queue behind their own processing,
	// and first-arrival order becomes noisy under load. Nil disables it.
	ProcessingDelay func(r *rand.Rand) time.Duration
	// Workers is the number of scheduler shards node actors are partitioned
	// across. 0 (the default) means one shard per available CPU
	// (min(GOMAXPROCS, the shard-count cap)); 1 forces the sequential
	// engine. With more than one shard the asynchronous conservative
	// scheduler runs shards on separate goroutines, each advancing to its
	// own safe time (see sched.go); the simulation outcome is
	// byte-identical for every worker count, so the setting is a pure
	// wall-clock choice. Requires a latency model implementing MinDelayer
	// with a positive minimum (the lookahead); otherwise the engine
	// silently degrades to 1 worker. When more than one shard runs,
	// instrumentation callbacks (Logf, Tap, and the delivery and event
	// listeners a node's node.Listeners call) run on shard goroutines and
	// must be safe for concurrent use. A listener registry itself is: its
	// Add and cancel may race the shards.
	Workers int
	// Faults, when set, enables deterministic fault injection (message
	// loss/duplication/reorder, partitions, bounded inbound buffers). The
	// pack activates when the phase first switches to PhaseDissemination;
	// stabilization runs clean. See FaultModel.
	Faults *FaultModel
	// ParallelThreshold is the minimum number of events executed in the
	// previous inter-barrier span for the next span to be fanned out to
	// worker goroutines; sparser spans run inline on the coordinator
	// (global min-stepping), which is cheaper and bit-identical. 0 means
	// the default (2×Workers); negative forces every multi-shard span onto
	// the workers (tests).
	ParallelThreshold int
	// Logf, when set, receives debug lines from env.Log.
	Logf func(format string, args ...any)
}

// MinDelayer is implemented by latency models that can guarantee a lower
// bound on every sampled delay. The sharded scheduler uses it as the
// conservative lookahead: events between nodes of different shards are at
// least MinDelay apart, so a shard may safely execute anything earlier than
// every peer's published position plus MinDelay (see sched.go).
type MinDelayer interface {
	// MinDelay returns a positive lower bound on every Sample result.
	MinDelay() time.Duration
}

// epoch is the virtual time origin. An arbitrary fixed instant.
var epoch = time.Unix(1_000_000_000, 0)

// Half-connection states.
const (
	hcDialing uint8 = iota
	hcUp
)

// halfConn is one endpoint's view of a connection. Unlike a shared
// connection object, a half lives entirely on its node's shard: state
// transitions happen on handshake/teardown events delivered to the owner,
// and the FIFO floor is written by the owner when it sends. The token pair
// (tokD, tokN) identifies the connection instance — deliveries carry it, so
// traffic from a torn-down connection cannot leak into a successor between
// the same nodes.
type halfConn struct {
	state     uint8
	tokD      ids.NodeID // dialer that opened this connection instance
	tokN      uint32     // dialer's dial counter at open
	sendFloor int64      // FIFO floor for traffic this endpoint sends
}

// simNode is the per-node runtime state. All fields are owned by the node's
// shard (or touched only at barriers, when every shard is parked).
type simNode struct {
	id      ids.NodeID
	handler node.Handler
	env     *env
	shard   *shard
	alive   bool
	usage   Usage

	conns map[ids.NodeID]*halfConn

	evSeq    uint64 // per-source event sequence counter (tie-break key)
	latSeq   uint64 // latency draw counter (latency stream position)
	dialSeq  uint32 // connection token counter
	faultSeq uint64 // sender-side fault draw counter (fault stream position)
	dropSeq  uint64 // receiver-side DropRand draw counter

	// inq tracks the arena indices of queued (arrived, awaiting CPU)
	// inbound messages, in service order. Maintained only when a bounded
	// buffer is configured; its length is the buffer occupancy.
	inq    []int32
	fstats FaultStats

	egressFreeAt int64 // when the shared uplink next becomes idle
	cpuFreeAt    int64 // when the receive path next becomes idle
	delayRng     *rand.Rand
}

// Network is the simulator instance.
type Network struct {
	opts    Options
	rng     *rand.Rand
	latency LatencyModel

	nodes map[ids.NodeID]*simNode
	order []ids.NodeID // insertion order, for deterministic iteration
	phase Phase

	// Fault injection (see faults.go). faults is the Network's sanitized
	// copy; faultsOn flips at the first switch to PhaseDissemination (a
	// driver-context write, read by shards afterwards — same publication
	// pattern as phase itself).
	faults    *FaultModel
	partSalts []uint64
	faultsOn  bool
	faultT0   int64

	// Scheduler state (see sched.go). driver aliases shards[0] when
	// Workers == 1.
	driver         *shard
	shards         []*shard
	all            []*shard // shards + driver when distinct (scheduler-loop scratch)
	lookaheadNS    int64
	parallelMin    int
	lastSpanEvents int
	inSpan         bool
	workersUp      bool
	closed         bool
	workCh         []chan int64
	doneCh         chan struct{}
	posts          atomic.Uint64 // cross-shard posts so far: what makes minPub's scan a snapshot

	// execProbe, when set (tests only), observes every event executed on a
	// worker leg before it runs; it is called from shard goroutines.
	execProbe func(s *shard, at int64)

	driverSeq uint64 // event sequence counter for driver-scheduled events
	estSeq    uint64 // latency draw counter for EstimateLatency

	logMu sync.Mutex

	// scratch buffers reused across calls to keep rare paths allocation-free.
	scratchPeers []ids.NodeID

	// Tap, when set, observes every delivered message (for tests/debug).
	// With Workers > 1 it runs on shard goroutines.
	Tap func(from, to ids.NodeID, m wire.Message)
}

// New builds a simulator.
func New(opts Options) *Network {
	if opts.Latency == nil {
		opts.Latency = Cluster()
	}
	if opts.DetectDelay == 0 {
		opts.DetectDelay = 200 * time.Millisecond
	}
	workers := opts.Workers
	if workers == 0 {
		// Auto: one shard per available CPU, so multi-core hosts get
		// parallelism without a flag. Results are byte-identical for every
		// worker count, so this is a pure wall-clock choice. Workers: 1
		// forces the sequential engine.
		workers = defaultWorkers()
	}
	if workers < 1 {
		workers = 1
	}
	if max := maxWorkers(); workers > max {
		workers = max
	}
	var lookahead int64
	if workers > 1 {
		md, ok := opts.Latency.(MinDelayer)
		if !ok || md.MinDelay() <= 0 {
			// No safe lookahead window: degrade to the sequential engine.
			workers = 1
		} else {
			lookahead = int64(md.MinDelay())
		}
	}
	n := &Network{
		opts:        opts,
		rng:         rand.New(rand.NewSource(opts.Seed)),
		latency:     opts.Latency,
		nodes:       make(map[ids.NodeID]*simNode),
		lookaheadNS: lookahead,
		parallelMin: opts.ParallelThreshold,
	}
	if n.parallelMin == 0 {
		n.parallelMin = defaultParallelMin(workers)
	}
	if opts.Faults.Enabled() {
		f := opts.Faults.sanitized()
		n.faults = &f
		n.partSalts = make([]uint64, len(f.Partitions))
		for i := range n.partSalts {
			n.partSalts[i] = node.Mix64(uint64(opts.Seed) ^ fPartSalt ^ uint64(i)*0x9e3779b97f4a7c15)
		}
	}
	n.shards = make([]*shard, workers)
	for i := range n.shards {
		n.shards[i] = newShard(n, i)
	}
	if workers == 1 {
		n.driver = n.shards[0]
		n.all = n.shards
	} else {
		n.driver = newShard(n, -1)
		n.all = append(append([]*shard{}, n.shards...), n.driver)
	}
	return n
}

// Now returns the current virtual time (driver perspective: between runs
// this is the RunUntil deadline; inside a driver event, the event's time).
func (n *Network) Now() time.Time { return epoch.Add(time.Duration(n.driver.nowNS)) }

// Since returns the duration elapsed since the virtual epoch.
func (n *Network) Since() time.Duration { return time.Duration(n.driver.nowNS) }

// Epoch returns the virtual time origin.
func Epoch() time.Time { return epoch }

// Rand returns the network-level RNG for workload decisions (node choice,
// churn victims). Protocol code must use its node env's RNG instead. Driver
// context only (experiment callbacks, between runs).
func (n *Network) Rand() *rand.Rand { return n.rng }

// SetPhase switches the bandwidth-accounting phase. The first switch to
// PhaseDissemination also activates the configured fault pack (partition
// windows are measured from that instant). Driver context only.
func (n *Network) SetPhase(p Phase) {
	n.phase = p
	if p == PhaseDissemination && n.faults != nil && !n.faultsOn {
		n.faultsOn = true
		n.faultT0 = n.driver.nowNS
	}
}

// ------------------------------------------------------------- scheduling

// After schedules an experiment-level callback (not tied to a node's life).
// Driver events run at scheduler barriers: every shard is parked, so the
// callback may touch any node (publish, churn, metric snapshots).
func (n *Network) After(d time.Duration, fn func()) {
	n.scheduleDriver(n.driver.nowNS+int64(d), fn)
}

// At schedules an experiment-level callback at an absolute offset from the
// epoch.
func (n *Network) At(offset time.Duration, fn func()) {
	n.scheduleDriver(int64(offset), fn)
}

func (n *Network) scheduleDriver(atNS int64, fn func()) {
	if atNS < n.driver.nowNS {
		atNS = n.driver.nowNS
	}
	n.driverSeq++
	n.driver.put(event{at: atNS, seq: n.driverSeq, src: ids.Nil, kind: evFn, fn: fn})
}

// scheduleNode enqueues a node-scheduled event; src/seq are stamped from the
// scheduling node, the owner keys lifecycle removal, and target selects the
// shard (the owner's shard for everything but dialer-side handshake events).
func (n *Network) scheduleNode(from *simNode, target *shard, ev event) int32 {
	if ev.at < from.shard.nowNS {
		ev.at = from.shard.nowNS
	}
	ev.src = from.id
	from.evSeq++
	ev.seq = from.evSeq
	return from.shard.emit(target, ev)
}

// stepShard executes shard s's next event. The shard's clock advances to
// the event time.
func (n *Network) stepShard(s *shard) {
	idx := s.heapPop()
	ev := &s.events[idx]
	s.nowNS = ev.at
	s.fired++
	switch ev.kind {
	case evFn:
		fn := ev.fn
		s.release(idx)
		fn()
	case evMsg, evMsgReady:
		n.deliver(s, idx)
	case evSyn:
		n.onSyn(s, idx)
	case evAck:
		n.onAck(s, idx)
	case evDown:
		n.onDown(s, idx)
	}
}

// deliver runs the receive path of a message event: connection-token check,
// bounded-buffer admission, optional receiver-CPU queueing, accounting,
// handler dispatch.
func (n *Network) deliver(s *shard, idx int32) {
	ev := &s.events[idx]
	to := ev.owner
	trackInq := n.faults != nil && n.faults.Buffer != nil
	if trackInq && ev.kind == evMsgReady {
		// The queued message reached its service instant (or is vanishing
		// with its connection): it no longer occupies the buffer.
		to.inq = inqForget(to.inq, idx)
	}
	hc := to.conns[ev.from]
	if hc == nil || hc.tokD != ev.tokD || hc.tokN != ev.tokN {
		// The connection this message traveled on is gone (closed, crashed,
		// or replaced by a newer dial): the bytes vanish with it.
		s.release(idx)
		return
	}
	fixedSvc := n.faultsOn && trackInq && n.opts.ProcessingDelay == nil
	if ev.kind == evMsg && (n.opts.ProcessingDelay != nil || fixedSvc) {
		if n.faultsOn && trackInq && !n.bufAdmit(s, to) {
			// A full buffer sacrificed the arriving message.
			s.release(idx)
			return
		}
		// Receiver CPU: service starts when both the message has arrived
		// and the CPU is idle. Requeue the same slot at the service
		// completion instant (the (src, seq) key is kept, so per-sender
		// FIFO order survives the requeue).
		var d time.Duration
		if n.opts.ProcessingDelay != nil {
			d = n.opts.ProcessingDelay(to.delayRng)
		} else {
			d = n.faults.Buffer.Service
		}
		if d < 0 {
			d = 0
		}
		svc := ev.at
		if to.cpuFreeAt > svc {
			svc = to.cpuFreeAt
		}
		svc += int64(d)
		to.cpuFreeAt = svc
		if svc > ev.at {
			ev.kind = evMsgReady
			ev.at = svc
			s.heapPush(idx)
			if trackInq {
				to.inq = append(to.inq, idx)
			}
			return
		}
	}
	if hc.state == hcDialing {
		// Data from the acceptor can arrive exactly with (or, under the
		// deterministic tie-break, ahead of) the dialer's own handshake
		// completion; an established stream implies the connection is up.
		hc.state = hcUp
		to.handler.ConnUp(ev.from)
	}
	from, m := ev.from, ev.msg
	size, phase, cls := ev.size, ev.phase, ev.cls
	s.release(idx)
	to.usage.DownBytes[phase][cls] += uint64(size)
	to.usage.DownMessages[phase]++
	if n.Tap != nil {
		n.Tap(from, to.id, m)
	}
	to.handler.Receive(from, m)
}

// onSyn handles a dial request arriving at the acceptor.
func (n *Network) onSyn(s *shard, idx int32) {
	ev := &s.events[idx]
	to, from := ev.owner, ev.from
	tokD, tokN := ev.tokD, ev.tokN
	s.release(idx)
	if !n.nodeAlive(from) {
		// The dialer died while the request was in flight; its side was
		// already torn down, so accepting would create a ghost connection.
		return
	}
	hc := to.conns[from]
	switch {
	case hc == nil:
		to.conns[from] = &halfConn{state: hcUp, tokD: tokD, tokN: tokN}
	case hc.state == hcDialing:
		// Crossed simultaneous dials: both sides adopt the token of the
		// lower-id dialer, deterministically converging on one connection
		// instance. Each side's own handshake-completion event then finds
		// the half already up and stays quiet.
		if tokD < hc.tokD {
			hc.tokD, hc.tokN = tokD, tokN
		}
		hc.state = hcUp
	default:
		// A fresh dial over a half we still consider up: the peer closed and
		// re-dialed before our ConnDown arrived. Adopt the new instance.
		hc.tokD, hc.tokN = tokD, tokN
		hc.sendFloor = 0
	}
	to.handler.ConnUp(from)
}

// onAck handles the dialer-side handshake completion.
func (n *Network) onAck(s *shard, idx int32) {
	ev := &s.events[idx]
	self, peer := ev.owner, ev.from
	tokD, tokN := ev.tokD, ev.tokN
	s.release(idx)
	hc := self.conns[peer]
	if hc == nil || hc.tokD != tokD || hc.tokN != tokN {
		// Our dial was torn down (we closed mid-dial, the peer died, or a
		// crossed dial adopted the other token and completed already).
		if hc == nil && !n.nodeAlive(peer) {
			self.handler.ConnDown(peer, ErrDialFailed)
		}
		return
	}
	if hc.state == hcUp {
		return // already established by a crossed dial or early data
	}
	if !n.nodeAlive(peer) {
		// Peer died during the handshake; surface a failed dial.
		delete(self.conns, peer)
		self.handler.ConnDown(peer, ErrDialFailed)
		return
	}
	hc.state = hcUp
	self.handler.ConnUp(peer)
}

// onDown handles a connection-down notification (peer closed, peer crash
// detected, or a failed dial). State removal is token-guarded — a newer
// connection between the same pair is left alone — but the handler callback
// is unconditional, mirroring how a TCP stack surfaces errors for streams
// the application may have already replaced.
func (n *Network) onDown(s *shard, idx int32) {
	ev := &s.events[idx]
	to, from, cause := ev.owner, ev.from, ev.cause
	tokD, tokN := ev.tokD, ev.tokN
	s.release(idx)
	if hc := to.conns[from]; hc != nil && hc.tokD == tokD && hc.tokN == tokN {
		delete(to.conns, from)
	}
	to.handler.ConnDown(from, cause)
}

// ---------------------------------------------------------------- latency

// pairLatency samples the one-way delay for a message from -> to, drawing
// from the sender's deterministic per-pair stream on the given shard's RNG.
func (n *Network) pairLatency(s *shard, from *simNode, to ids.NodeID) int64 {
	s.latSrc.Seed(int64(mixPair(n.opts.Seed, latSalt, from.id, to, from.latSeq)))
	from.latSeq++
	d := n.latency.Sample(from.id, to, s.latRnd)
	if d < 0 {
		d = 0
	}
	return int64(d)
}

// EstimateLatency samples the latency model for a pair — experiment
// harnesses use it for "direct point-to-point" baselines (Figure 9). It
// draws from a driver-owned stream, so it does not perturb the pair's
// in-simulation latency sequence. Driver context only.
func (n *Network) EstimateLatency(from, to ids.NodeID) time.Duration {
	n.driver.latSrc.Seed(int64(mixPair(n.opts.Seed^0x51ab_f00d, latSalt, from, to, n.estSeq)))
	n.estSeq++
	d := n.latency.Sample(from, to, n.driver.latRnd)
	if d < 0 {
		d = 0
	}
	return d
}

func classOf(m wire.Message) uint8 {
	if m.Kind().IsControl() {
		return 0
	}
	return 1
}

// ------------------------------------------------------------- membership

// AddNode boots a node with the given handler, assigning it to the next
// shard round-robin. Start runs as an event at the current virtual time.
// Driver context only.
func (n *Network) AddNode(id ids.NodeID, h node.Handler) {
	if !id.Valid() {
		panic(fmt.Sprintf("simnet: invalid node id %d", uint64(id)))
	}
	if _, exists := n.nodes[id]; exists {
		panic(fmt.Sprintf("simnet: duplicate node %v", id))
	}
	sn := &simNode{
		id:      id,
		handler: h,
		alive:   true,
		shard:   n.shards[len(n.order)%len(n.shards)],
		conns:   make(map[ids.NodeID]*halfConn),
	}
	sn.env = &env{net: n, node: sn, rng: nodeRand(n.opts.Seed, protoSalt, id)}
	if n.opts.ProcessingDelay != nil {
		sn.delayRng = nodeRand(n.opts.Seed, delaySalt, id)
	}
	n.nodes[id] = sn
	n.order = append(n.order, id)
	// Start is driver-originated and therefore lives on the driver shard:
	// node shards hold only node-originated (non-Nil src) events, which
	// keeps the (at, src, seq) tie-break identical between the sequential
	// and the sharded scheduler (driver events always precede same-instant
	// node events, in driver-sequence order).
	n.driverSeq++
	n.driver.put(event{at: n.driver.nowNS, seq: n.driverSeq, src: ids.Nil, kind: evFn, owner: sn,
		fn: func() { h.Start(sn.env) }})
}

func (n *Network) nodeAlive(id ids.NodeID) bool {
	sn, ok := n.nodes[id]
	return ok && sn.alive
}

// Crash kills a node without warning. Its peers' failure detectors fire
// after DetectDelay; in-flight messages to and from it are lost (its queued
// events are removed). Driver context only.
func (n *Network) Crash(id ids.NodeID) {
	sn, ok := n.nodes[id]
	if !ok || !sn.alive {
		return
	}
	sn.alive = false
	n.removeOwnedEvents(sn)
	sn.inq = sn.inq[:0] // the tracked queued deliveries died with the node
	n.dropConnsOf(sn, ErrPeerCrashed, n.opts.DetectDelay)
}

// Shutdown stops a node gracefully: Stop runs, connections close, and peers
// observe an orderly ConnDown after one network latency. Like Crash, the
// node's queued events are removed. Driver context only.
func (n *Network) Shutdown(id ids.NodeID) {
	sn, ok := n.nodes[id]
	if !ok || !sn.alive {
		return
	}
	sn.handler.Stop()
	sn.alive = false
	n.removeOwnedEvents(sn)
	sn.inq = sn.inq[:0]
	n.dropConnsOf(sn, ErrPeerClosed, 0)
}

// dropConnsOf tears down every connection of a dying node: the peers' halves
// are removed immediately (in-flight traffic on the connection dies with the
// token) and each previously-established peer gets a ConnDown notification
// after one network latency plus extraDelay. Barrier context: it touches
// other nodes' halves directly.
func (n *Network) dropConnsOf(sn *simNode, cause error, extraDelay time.Duration) {
	// Sort the victim's peers: latency sampling consumes the dying node's
	// draw counter per connection, so map iteration order here would make
	// runs diverge under one seed.
	peers := n.scratchPeers[:0]
	for id := range sn.conns {
		peers = append(peers, id)
	}
	slices.Sort(peers)
	for _, peerID := range peers {
		hc := sn.conns[peerID]
		delete(sn.conns, peerID)
		peer := n.nodes[peerID]
		if peer == nil || !peer.alive {
			continue
		}
		phc := peer.conns[sn.id]
		if phc == nil || phc.tokD != hc.tokD || phc.tokN != hc.tokN {
			continue // the peer never saw, or already replaced, this instance
		}
		wasUp := phc.state == hcUp
		delete(peer.conns, sn.id)
		if !wasUp {
			// The peer was still dialing us: its own handshake-completion
			// event will find the half gone and us dead, and surface
			// ErrDialFailed.
			continue
		}
		// Driver-originated, so driver-shard resident (see AddNode): the
		// notification executes at a barrier, where touching the peer is
		// safe regardless of its shard.
		delay := int64(time.Duration(n.pairLatency(n.driver, sn, peerID)) + extraDelay)
		n.driverSeq++
		n.driver.put(event{
			at: n.driver.nowNS + delay, seq: n.driverSeq, src: ids.Nil,
			kind: evDown, owner: peer, from: sn.id,
			tokD: hc.tokD, tokN: hc.tokN, cause: cause,
		})
	}
	n.scratchPeers = peers[:0]
}

// Alive reports whether the node exists and has not crashed or shut down.
func (n *Network) Alive(id ids.NodeID) bool { return n.nodeAlive(id) }

// NodeIDs returns all alive nodes in insertion order. Driver context only.
func (n *Network) NodeIDs() []ids.NodeID {
	out := make([]ids.NodeID, 0, len(n.order))
	for _, id := range n.order {
		if n.nodes[id].alive {
			out = append(out, id)
		}
	}
	return out
}

// Usage returns a node's traffic counters. Counters survive crashes so
// experiments can still read them. Driver context only.
func (n *Network) Usage(id ids.NodeID) Usage {
	if sn, ok := n.nodes[id]; ok {
		return sn.usage
	}
	return Usage{}
}

// ResetUsage zeroes all traffic counters (e.g., between experiment phases
// that must be measured independently). Driver context only.
func (n *Network) ResetUsage() {
	for _, sn := range n.nodes {
		sn.usage = Usage{}
	}
}

// SortedNodeIDs returns all alive node ids in ascending order (test helper).
func (n *Network) SortedNodeIDs() []ids.NodeID {
	out := n.NodeIDs()
	slices.Sort(out)
	return out
}

// ---------------------------------------------------------------- node env

type env struct {
	net  *Network
	node *simNode
	rng  *rand.Rand
}

func (e *env) ID() ids.NodeID { return e.node.id }

// Now returns the node's shard-local virtual time — inside a callback, the
// current event's timestamp.
func (e *env) Now() time.Time {
	return epoch.Add(time.Duration(e.node.shard.nowNS))
}

func (e *env) Rand() *rand.Rand { return e.rng }

func (e *env) Log(format string, args ...any) {
	if e.net.opts.Logf == nil {
		return
	}
	e.net.logMu.Lock()
	defer e.net.logMu.Unlock()
	prefix := fmt.Sprintf("[%8.3fs %v] ", (time.Duration(e.node.shard.nowNS)).Seconds(), e.node.id)
	e.net.opts.Logf(prefix+format, args...)
}

// simTimer is a handle to a queued arena event. The gen check makes Stop a
// safe no-op after the event fired (and its slot was possibly reused). A
// timer is always created and stopped on its node's own shard.
type simTimer struct {
	shard *shard
	idx   int32
	gen   uint32
}

func (t *simTimer) Stop() bool {
	ev := &t.shard.events[t.idx]
	if ev.gen != t.gen || ev.heapIdx == noEvent {
		return false // already fired, cancelled, or slot reused
	}
	t.shard.heapRemove(int(ev.heapIdx))
	t.shard.release(t.idx)
	return true
}

func (e *env) After(d time.Duration, fn func()) node.Timer {
	sn := e.node
	s := sn.shard
	idx := e.net.scheduleNode(sn, s, event{
		at: s.nowNS + int64(d), kind: evFn, owner: sn, fn: fn,
	})
	return &simTimer{shard: s, idx: idx, gen: s.events[idx].gen}
}

func (e *env) Connect(to ids.NodeID) {
	net := e.net
	self := e.node
	if !self.alive {
		return
	}
	if _, exists := self.conns[to]; exists {
		return // already open or dialing
	}
	peer, ok := net.nodes[to]
	if !ok || !peer.alive || to == self.id {
		// Dial fails after a timeout-ish delay.
		net.scheduleNode(self, self.shard, event{
			at:   self.shard.nowNS + int64(net.opts.DetectDelay),
			kind: evDown, owner: self, from: to, cause: ErrDialFailed,
		})
		return
	}
	self.dialSeq++
	hc := &halfConn{state: hcDialing, tokD: self.id, tokN: self.dialSeq}
	self.conns[to] = hc
	oneWay := net.pairLatency(self.shard, self, to)
	// The request reaches the peer after one latency; the dialer's side is
	// up after a full round trip.
	synAt := self.shard.nowNS + oneWay
	hc.sendFloor = synAt
	net.scheduleNode(self, peer.shard, event{
		at: synAt, kind: evSyn, owner: peer, from: self.id,
		tokD: hc.tokD, tokN: hc.tokN,
	})
	net.scheduleNode(self, self.shard, event{
		at: self.shard.nowNS + 2*oneWay, kind: evAck, owner: self, from: to,
		tokD: hc.tokD, tokN: hc.tokN,
	})
}

func (e *env) Close(to ids.NodeID) {
	net := e.net
	self := e.node
	hc, ok := self.conns[to]
	if !ok {
		return
	}
	delete(self.conns, to)
	peer, ok := net.nodes[to]
	if !ok || !peer.alive {
		return
	}
	at := self.shard.nowNS + net.pairLatency(self.shard, self, to)
	if at < hc.sendFloor {
		at = hc.sendFloor // the notification rides the same FIFO stream
	}
	net.scheduleNode(self, peer.shard, event{
		at: at, kind: evDown, owner: peer, from: self.id,
		tokD: hc.tokD, tokN: hc.tokN, cause: ErrPeerClosed,
	})
}

func (e *env) Connected(to ids.NodeID) bool {
	hc, ok := e.node.conns[to]
	return ok && hc.state == hcUp
}

func (e *env) Send(to ids.NodeID, m wire.Message) {
	net := e.net
	self := e.node
	if !self.alive {
		return
	}
	hc, ok := self.conns[to]
	if !ok || hc.state != hcUp {
		return // no established connection: bytes go nowhere
	}
	size := m.WireSize()
	phase := net.phase
	cls := classOf(m)
	self.usage.UpBytes[phase][cls] += uint64(size)
	self.usage.UpMessages[phase]++

	peer, ok := net.nodes[to]
	if !ok || !peer.alive {
		return // will surface as ConnDown via the crash path
	}
	// Departure: the node's shared uplink serializes all outgoing bytes.
	depart := self.shard.nowNS
	if net.opts.NodeBandwidth > 0 {
		if self.egressFreeAt > depart {
			depart = self.egressFreeAt
		}
		depart += int64(size) * int64(time.Second) / net.opts.NodeBandwidth
		self.egressFreeAt = depart
	}
	delay := net.pairLatency(self.shard, self, to)
	if net.opts.Bandwidth > 0 {
		delay += int64(size) * int64(time.Second) / net.opts.Bandwidth
	}
	arrive := depart + delay
	// Enforce per-direction FIFO, like a TCP stream.
	if arrive < hc.sendFloor {
		arrive = hc.sendFloor
	}
	hc.sendFloor = arrive
	ev := event{
		at: arrive, kind: evMsg, owner: peer, from: self.id, msg: m,
		tokD: hc.tokD, tokN: hc.tokN,
		size: int32(size), phase: phase, cls: cls,
	}
	if net.faultsOn {
		// Faults apply after floor and egress accounting, so connection
		// state evolves exactly as if the message had been delivered; only
		// the delivery itself is dropped, delayed past the floor (reorder)
		// or doubled. See faults.go.
		at, ok := net.applyFaults(self, peer, arrive, ev)
		if !ok {
			return
		}
		ev.at = at
	}
	// Typed delivery event: the hot path allocates nothing once the arena
	// is warm (and, cross-shard, nothing beyond mailbox growth).
	net.scheduleNode(self, peer.shard, ev)
}

var _ node.Env = (*env)(nil)
