package simnet

// Scheduler: the event arena, the per-shard binary heaps, and the two
// execution modes — the sequential single-heap loop (Workers == 1) and the
// asynchronous conservative sharded loop (Workers > 1).
//
// Sharded execution model (Chandy–Misra–Bryant style safe-time advancement).
// Node actors are partitioned round-robin across K shards; each shard owns
// an event arena, a binary heap, an int64-ns clock, and two pieces of
// cross-shard state:
//
//   - a published position (pub): an atomic holding the timestamp of the
//     shard's earliest pending event — heap head or undrained mailbox entry,
//     whichever is earlier — or posInf when it has none. While a shard
//     executes an event at time t its pub stays <= t, and it only raises pub
//     after the event (and every message it emitted) is fully processed.
//   - a mailbox: a mutex-guarded slice peers append cross-shard events to
//     mid-span. A sender appends first and then lowers the receiver's pub to
//     the event time, so the event is visible in the receiver's published
//     position before the sender ever advances past it.
//
// Each shard advances independently to its safe time
//
//	safe = min over peer shards P of pub(P) + lookahead
//
// where lookahead is the latency model's MinDelay: every cross-shard event
// is a network transmission scheduled at least MinDelay after its sender's
// current position, so nothing below safe can still arrive. A shard
// executes its events with at < min(safe, barrier), re-reading peers'
// positions as they advance — a shard with a deep local heap keeps
// executing while its neighbors are idle, instead of parking at a global
// horizon every MinDelay nanoseconds (the pre-async design). Shards that
// catch up to their safe time spin briefly (drain mailbox, recompute,
// Gosched) until a peer's position moves; the globally-earliest shard is
// always executable, so the system never deadlocks, and once every
// published position reaches the barrier all shards quiesce.
//
// Barriers still exist, but only where they are semantically required:
// experiment-level ("driver") events — churn, publishes, metric snapshots —
// run with every shard parked and clocks aligned, so they may touch any
// node. The barrier is reached on demand (the next driver event's time or
// the run deadline), not once per lookahead window, so driver-sparse spans
// run barrier-free.
//
// Determinism. Events are ordered by (at, src, seq) where src is the
// *scheduling* node (ids.Nil for driver events) and seq a per-source
// counter. This key is independent of execution interleaving; the safe-time
// rule guarantees that when a shard executes an event, every earlier-keyed
// event of that shard has already been delivered to it, so each shard's
// execution order — and with it the simulation outcome — is a pure function
// of (seed, workload), byte-identical for every Workers value, including 1.
// The brisa-level equivalence harness (equivalence_test.go at the repo
// root) and TestSafeTimeInvariant pin this property.

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ids"
	"repro/internal/node"
	"repro/internal/wire"
)

// noEvent marks an arena slot as not queued.
const noEvent = int32(-1)

// posInf is the published position of a shard with no pending events, and
// the barrier value of a run with no driver events before the deadline.
const posInf = int64(math.MaxInt64)

// Event kinds. Connection lifecycle is typed rather than closure-based so
// lifecycle events can cross shard boundaries by value.
const (
	evFn       uint8 = iota // fn callback: timers, driver events, node Start
	evMsg                   // message delivery (receiver CPU not yet charged)
	evMsgReady              // message delivery after receiver-CPU queueing
	evSyn                   // dial request arriving at the acceptor
	evAck                   // dialer-side handshake completion
	evDown                  // connection-down notification
)

// event is one scheduled callback, stored by value in a shard's arena.
type event struct {
	at      int64      // virtual nanoseconds since the epoch
	seq     uint64     // per-source sequence number (ties: same at, same src)
	src     ids.NodeID // scheduling source: ids.Nil for driver events
	heapIdx int32      // position in the shard heap, noEvent when not queued
	gen     uint32     // bumped on release; validates timer handles
	kind    uint8
	cls     uint8
	phase   Phase
	size    int32
	tokN    uint32 // connection token, with tokD
	owner   *simNode
	fn      func()
	msg     wire.Message
	from    ids.NodeID
	tokD    ids.NodeID
	cause   error
}

// shard is one scheduler partition: an event arena + heap + clock. The
// driver (experiment-level events) is also a shard; with Workers == 1 the
// driver and the single node shard are the same object, which recovers the
// plain single-heap sequential engine.
type shard struct {
	net   *Network
	idx   int // position in Network.shards; -1 for a dedicated driver shard
	nowNS int64
	fired uint64

	// Event storage: a growable arena indexed by the heap, plus the free
	// list of released slots. Events are addressed by arena index only —
	// the arena's backing array moves when it grows.
	events []event
	free   []int32
	heap   []int32

	// pub is the shard's published position: the timestamp of its earliest
	// pending event (heap head or undrained mailbox entry), posInf when it
	// has none. Peers read it lock-free to compute their safe time; all
	// writes happen under mbMu (the owner raising it via updatePub, senders
	// lowering it via post), so a raise can never overwrite a concurrent
	// lower. Meaningful only during a parallel span — the coordinator
	// refreshes every pub before dispatching one.
	pub atomic.Int64

	// Mailbox: cross-shard events appended by peers mid-span, drained into
	// the heap by the owner. mbMin tracks the earliest undrained entry so
	// updatePub can publish min(heap head, mailbox) without scanning. The
	// spare slice ping-pongs with mbox so steady-state draining allocates
	// nothing.
	mbMu    sync.Mutex
	mbox    []event
	mbMin   int64
	mbSpare []event

	// latRnd wraps latSrc: the latency-sampling RNG, re-seeded per draw from
	// (seed, from, to, per-sender counter) so draws are a pure function of
	// the pair history, independent of global execution order: the property
	// that keeps sharded execution equivalent to sequential execution.
	latSrc *node.SplitMix
	latRnd *rand.Rand

	scratchIdxs []int32
}

func newShard(n *Network, idx int) *shard {
	src := &node.SplitMix{}
	s := &shard{net: n, idx: idx, mbMin: posInf, latSrc: src, latRnd: rand.New(src)}
	s.pub.Store(posInf)
	return s
}

// ------------------------------------------------------------- event arena

// alloc takes an arena slot off the free list, growing the arena when none
// is available. The slot's gen survives reuse.
func (s *shard) alloc() int32 {
	if len(s.free) > 0 {
		idx := s.free[len(s.free)-1]
		s.free = s.free[:len(s.free)-1]
		return idx
	}
	s.events = append(s.events, event{heapIdx: noEvent})
	return int32(len(s.events) - 1)
}

// release returns a slot to the free list, dropping payload references so
// fired closures and messages become collectable, and bumping gen so stale
// timer handles cannot cancel the slot's next tenant.
func (s *shard) release(idx int32) {
	ev := &s.events[idx]
	ev.fn = nil
	ev.msg = nil
	ev.owner = nil
	ev.cause = nil
	ev.gen++
	s.free = append(s.free, idx)
}

// ------------------------------------------------------------- event heap
//
// A hand-rolled binary heap over arena indices, ordered by (at, src, seq).
// Each event tracks its heap position so cancellation removes it in
// O(log n) without tombstones.

// eventLess is the scheduler's total order: (at, src, seq). Both the
// per-shard heaps and the cross-shard minimum search use this one
// comparator — the determinism guarantee hangs on them never diverging.
func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.src != b.src {
		return a.src < b.src
	}
	return a.seq < b.seq
}

func (s *shard) less(a, b int32) bool {
	return eventLess(&s.events[a], &s.events[b])
}

func (s *shard) heapSwap(i, j int) {
	h := s.heap
	h[i], h[j] = h[j], h[i]
	s.events[h[i]].heapIdx = int32(i)
	s.events[h[j]].heapIdx = int32(j)
}

func (s *shard) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(s.heap[i], s.heap[parent]) {
			break
		}
		s.heapSwap(i, parent)
		i = parent
	}
}

// siftDown restores heap order below i; it reports whether i moved.
func (s *shard) siftDown(i int) bool {
	start := i
	length := len(s.heap)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < length && s.less(s.heap[l], s.heap[smallest]) {
			smallest = l
		}
		if r < length && s.less(s.heap[r], s.heap[smallest]) {
			smallest = r
		}
		if smallest == i {
			return i != start
		}
		s.heapSwap(i, smallest)
		i = smallest
	}
}

func (s *shard) heapPush(idx int32) {
	s.events[idx].heapIdx = int32(len(s.heap))
	s.heap = append(s.heap, idx)
	s.siftUp(len(s.heap) - 1)
}

// heapPop removes and returns the earliest event's arena index.
func (s *shard) heapPop() int32 {
	top := s.heap[0]
	last := len(s.heap) - 1
	if last > 0 {
		s.heap[0] = s.heap[last]
		s.events[s.heap[0]].heapIdx = 0
	}
	s.heap = s.heap[:last]
	if last > 1 {
		s.siftDown(0)
	}
	s.events[top].heapIdx = noEvent
	return top
}

// heapRemove deletes the event at heap position pos.
func (s *shard) heapRemove(pos int) {
	idx := s.heap[pos]
	last := len(s.heap) - 1
	if pos != last {
		s.heap[pos] = s.heap[last]
		s.events[s.heap[pos]].heapIdx = int32(pos)
	}
	s.heap = s.heap[:last]
	if pos < last {
		if !s.siftDown(pos) {
			s.siftUp(pos)
		}
	}
	s.events[idx].heapIdx = noEvent
}

// minAt returns the earliest queued event time, or ok == false when empty.
func (s *shard) minAt() (int64, bool) {
	if len(s.heap) == 0 {
		return 0, false
	}
	return s.events[s.heap[0]].at, true
}

// ------------------------------------------------------------- scheduling

// put allocates a slot on this shard, fills it from ev, and enqueues it.
func (s *shard) put(ev event) int32 {
	idx := s.alloc()
	gen := s.events[idx].gen
	ev.gen = gen
	ev.heapIdx = noEvent
	s.events[idx] = ev
	s.heapPush(idx)
	return idx
}

// emit routes an event scheduled from shard s onto the target shard: a
// direct heap push when single-threaded (sequential mode, barriers, inline
// spans, or the target is s itself), the target's mailbox during a parallel
// span. Mailbox routing keeps the event visible to the receiver's safe-time
// computation immediately — post lowers the receiver's published position
// before the sender advances past the event.
func (s *shard) emit(target *shard, ev event) int32 {
	if target != s && s.net.inSpan {
		target.post(ev)
		return noEvent
	}
	return target.put(ev)
}

// post appends a cross-shard event to this shard's mailbox and lowers its
// published position to the event time. Called by sender shards mid-span;
// the ordering (append, then lower pub, both under mbMu, all before the
// sender raises its own pub) is what makes peers' safe times conservative.
func (s *shard) post(ev event) {
	s.mbMu.Lock()
	s.mbox = append(s.mbox, ev)
	if ev.at < s.mbMin {
		s.mbMin = ev.at
	}
	if ev.at < s.pub.Load() {
		s.pub.Store(ev.at)
	}
	s.net.posts.Add(1) // after the lowering: see minPub
	s.mbMu.Unlock()
}

// drainMailbox moves every mailbox event into the heap. The owner's context
// only. pub is deliberately left at its (possibly stale, always
// conservative) value — updatePub raises it once the events are heap-queued.
func (s *shard) drainMailbox() {
	s.mbMu.Lock()
	moved := s.mbox
	s.mbox = s.mbSpare[:0]
	s.mbMin = posInf
	s.mbMu.Unlock()
	for i := range moved {
		s.put(moved[i])
		moved[i] = event{} // drop msg/owner references
	}
	s.mbSpare = moved[:0]
}

// updatePub publishes the shard's current position: min(heap head, earliest
// undrained mailbox entry), posInf when idle. Owner's context only; the
// mbMu lock serializes the store against concurrent post lowering.
func (s *shard) updatePub() {
	head := posInf
	if len(s.heap) > 0 {
		head = s.events[s.heap[0]].at
	}
	s.mbMu.Lock()
	if s.mbMin < head {
		head = s.mbMin
	}
	s.pub.Store(head)
	s.mbMu.Unlock()
}

// safeTime computes this shard's causal execution bound: the minimum over
// its peers' published positions plus the lookahead. Every event a peer can
// still send arrives at or after that peer's position + MinDelay, so events
// strictly below safeTime can no longer be preempted.
func (s *shard) safeTime() int64 {
	m, la := s.net.minPub(s), s.net.lookaheadNS
	if m >= posInf-la {
		return posInf
	}
	return m + la
}

// minPub returns the earliest published position among the node shards
// other than except, as of one instant: positions are read one at a time,
// and a shard read early can be posted to by one read late that has raised
// its own position by then, so a scan counts only when no post completed
// beside it (a post counts itself after lowering the position). At or above
// the span's barrier with except == nil, this is the quiesce test: no shard
// holds an event below the barrier, and none can still receive one.
func (n *Network) minPub(except *shard) int64 {
	for {
		posts, m := n.posts.Load(), posInf
		for _, s := range n.shards {
			if v := s.pub.Load(); s != except && v < m {
				m = v
			}
		}
		if n.posts.Load() == posts {
			return m
		}
	}
}

// flushMailboxes drains every shard's residual mailbox into its heap —
// events at or beyond the barrier that no shard got to execute. Barrier
// context only (workers parked), so barrier code that scans heaps
// (removeOwnedEvents, minShard) sees every pending event.
func (n *Network) flushMailboxes() {
	for _, s := range n.shards {
		s.drainMailbox()
	}
}

// removeOwnedEvents drops every queued event owned by sn — its pending
// timers, deliveries addressed to it, and lifecycle callbacks — so a dead
// node leaves nothing behind. Barrier context only (mailboxes are flushed).
func (n *Network) removeOwnedEvents(sn *simNode) {
	for _, s := range n.allShards() {
		idxs := s.scratchIdxs[:0]
		for _, idx := range s.heap {
			if s.events[idx].owner == sn {
				idxs = append(idxs, idx)
			}
		}
		for _, idx := range idxs {
			s.heapRemove(int(s.events[idx].heapIdx))
			s.release(idx)
		}
		s.scratchIdxs = idxs[:0]
	}
}

// allShards returns the node shards plus the driver shard when distinct
// (precomputed: the scheduler loop iterates it every window).
func (n *Network) allShards() []*shard { return n.all }

// ---------------------------------------------------------------- running

// Step executes the globally next event. It reports false when every queue
// is empty. With Workers > 1 this is the sequential fallback used by
// Drain and step-wise tests; RunUntil/RunFor use the windowed scheduler.
func (n *Network) Step() bool {
	s := n.minShard()
	if s == nil {
		return false
	}
	n.stepShard(s)
	return true
}

// minShard returns the shard holding the globally earliest event (driver
// events win ties, matching the (at, src, seq) order since src == ids.Nil).
func (n *Network) minShard() *shard {
	var best *shard
	for _, s := range n.allShards() {
		if len(s.heap) == 0 {
			continue
		}
		if best == nil || eventLess(&s.events[s.heap[0]], &best.events[best.heap[0]]) {
			best = s
		}
	}
	return best
}

// RunUntil processes events with timestamps <= the epoch offset and then
// advances every clock to exactly that offset.
func (n *Network) RunUntil(offset time.Duration) {
	deadline := int64(offset)
	if len(n.shards) == 1 {
		s := n.shards[0]
		for len(s.heap) > 0 && s.events[s.heap[0]].at <= deadline {
			n.stepShard(s)
		}
	} else {
		n.runSharded(deadline)
	}
	for _, s := range n.allShards() {
		if s.nowNS < deadline {
			s.nowNS = deadline
		}
	}
}

// runSharded is the asynchronous conservative loop. Driver events run at
// barriers (every shard parked, clocks aligned); between barriers the node
// shards advance independently under the safe-time protocol, so a
// driver-sparse run pays one rendezvous per driver event — not one per
// lookahead window.
func (n *Network) runSharded(deadline int64) {
	for {
		driverNext := posInf
		if at, ok := n.driver.minAt(); ok {
			driverNext = at
		}
		t := driverNext
		for _, s := range n.shards {
			if at, ok := s.minAt(); ok && at < t {
				t = at
			}
		}
		if t == posInf || t > deadline {
			return
		}
		// Align clocks: t is the global minimum, so no shard regresses.
		for _, s := range n.allShards() {
			if s.nowNS < t {
				s.nowNS = t
			}
		}
		if driverNext == t {
			// Barrier work: run every driver event at exactly t, including
			// ones they newly schedule at t. Driver events win same-instant
			// ties against node events (src == ids.Nil sorts first).
			for {
				at, ok := n.driver.minAt()
				if !ok || at > t {
					break
				}
				n.stepShard(n.driver)
			}
			continue
		}
		barrier := driverNext
		if deadline < posInf-1 && deadline+1 < barrier {
			barrier = deadline + 1
		}
		n.runSpan(barrier)
	}
}

// runSpan executes every node-shard event strictly below the barrier (the
// next driver event or the deadline). Sparse spans run inline on the
// coordinator via global min-stepping — the exact sequential order, no
// synchronization; dense spans fan out to the worker goroutines, each shard
// advancing to its own safe time.
func (n *Network) runSpan(barrier int64) {
	before := n.eventsFiredLocked()
	parallel := len(n.shards) > 1 && !n.closed &&
		(n.parallelMin < 0 || n.lastSpanEvents >= n.parallelMin)
	if !parallel {
		for {
			var best *shard
			for _, s := range n.shards {
				if len(s.heap) == 0 {
					continue
				}
				if best == nil || eventLess(&s.events[s.heap[0]], &best.events[best.heap[0]]) {
					best = s
				}
			}
			if best == nil || best.events[best.heap[0]].at >= barrier {
				break
			}
			n.stepShard(best)
		}
	} else {
		n.startWorkers()
		// Published positions are stale between spans (barrier code pushes
		// events directly into heaps); refresh them before any shard
		// computes a safe time from them.
		for _, s := range n.shards {
			s.updatePub()
		}
		n.inSpan = true
		for _, s := range n.shards {
			n.workCh[s.idx] <- barrier
		}
		for range n.shards {
			<-n.doneCh
		}
		n.inSpan = false
		n.flushMailboxes()
	}
	n.lastSpanEvents = int(n.eventsFiredLocked() - before)
}

// runLeg is one shard's side of a parallel span: repeatedly drain the
// mailbox, advance to min(safe time, barrier), publish the new position,
// and when stuck re-check peers until every shard's position has reached
// the barrier. The globally-earliest shard always finds its head below its
// safe time (head = global min < min over others + lookahead), so some
// shard can always execute and the quiesce test is eventually reached.
func (s *shard) runLeg(barrier int64) {
	n := s.net
	for {
		s.drainMailbox()
		did := false
		for len(s.heap) > 0 {
			head := s.events[s.heap[0]].at
			// The safe time must be re-read before every event, not once
			// per wakeup: our own sends lower the receiving peer's position,
			// and the peer's reaction can arrive back here one lookahead
			// later — below a limit cached from before the send. With a
			// fresh read the bound is exact: any message still unsent when
			// we read it descends from an event in some shard's queue, and
			// every causal chain that bottoms out in our own heap (at ≥
			// head, since earlier events are done) needs at least two
			// cross-shard hops to reach us, arriving ≥ head + 2·lookahead.
			limit := min(s.safeTime(), barrier)
			// A peer may have posted to our mailbox since the last drain. It
			// posts before raising its own published position, so what the
			// safe time read above no longer covers shows here: our own
			// position, min(heap head, mailbox min), is below the head. Fold
			// the mailbox into the heap before executing past it.
			if s.pub.Load() < head {
				s.drainMailbox()
				s.updatePub()
				continue
			}
			if head >= limit {
				break
			}
			if n.execProbe != nil {
				n.execProbe(s, head)
			}
			n.stepShard(s)
			// Publish after every event so stuck peers chase this shard's
			// progress without waiting for the leg to finish.
			s.updatePub()
			did = true
		}
		if !did {
			s.updatePub()
			if n.minPub(nil) >= barrier {
				return
			}
			runtime.Gosched()
		}
	}
}

// startWorkers lazily spawns one goroutine per shard. Close releases them.
func (n *Network) startWorkers() {
	if n.workersUp {
		return
	}
	n.workersUp = true
	n.workCh = make([]chan int64, len(n.shards))
	n.doneCh = make(chan struct{}, len(n.shards))
	for i, s := range n.shards {
		ch := make(chan int64)
		n.workCh[i] = ch
		go func(s *shard, ch chan int64) {
			for b := range ch {
				s.runLeg(b)
				n.doneCh <- struct{}{}
			}
		}(s, ch)
	}
}

// Close releases the worker goroutines of a sharded network. It is
// idempotent and safe on never-parallel networks; after Close the network
// still runs, executing windows inline on the calling goroutine.
func (n *Network) Close() {
	if n.closed {
		return
	}
	n.closed = true
	if n.workersUp {
		for _, ch := range n.workCh {
			close(ch)
		}
		n.workersUp = false
	}
}

// RunFor advances the simulation by d from the current driver time.
func (n *Network) RunFor(d time.Duration) {
	n.RunUntil(time.Duration(n.driver.nowNS + int64(d)))
}

// Drain runs events until the queues are empty or maxEvents is hit
// (guarding against periodic timers keeping the queue alive forever). It
// returns the number of events executed.
func (n *Network) Drain(maxEvents int) int {
	count := 0
	for count < maxEvents && n.Step() {
		count++
	}
	return count
}

// QueueLen returns the number of live queued events. Cancelled timers and
// dead nodes' events are removed from the queues outright, so — unlike a
// tombstone design — this counts only work that will actually execute.
func (n *Network) QueueLen() int {
	total := 0
	for _, s := range n.allShards() {
		total += len(s.heap)
	}
	return total
}

// PendingEvents returns the number of queued events (for tests).
func (n *Network) PendingEvents() int { return n.QueueLen() }

// EventsFired returns the total number of events executed so far — the
// simulator's work metric, used by the scale benchmarks to report events/s.
// Call between runs (not from inside callbacks of a parallel window).
func (n *Network) EventsFired() uint64 { return n.eventsFiredLocked() }

func (n *Network) eventsFiredLocked() uint64 {
	var total uint64
	for _, s := range n.allShards() {
		total += s.fired
	}
	return total
}

// Workers returns the effective shard count: Options.Workers, degraded to 1
// when the latency model declares no positive MinDelay (no safe lookahead).
func (n *Network) Workers() int { return len(n.shards) }

// Lookahead returns the conservative safe-time bound — the latency model's
// MinDelay, added to peers' published positions (zero in sequential mode).
func (n *Network) Lookahead() time.Duration {
	if len(n.shards) == 1 {
		return 0
	}
	return time.Duration(n.lookaheadNS)
}

// ------------------------------------------------------------ hash streams

// The engine's own hash-stream salts, distinct from faults.go's and latency.go's.
const (
	latSalt   = 0x8f1bbcdcbfa53e0b // per-message latency stream
	protoSalt = 0x6a09e667f3bcc909 // a node's protocol stream (node.Env.Rand)
	delaySalt = 0xbb67ae8584caa73b // a node's Options.ProcessingDelay stream
)

// mixPair folds the simulation seed, a stream's salt, the directed pair and
// the per-sender draw counter into one 64-bit stream seed.
func mixPair(seed int64, salt uint64, from, to ids.NodeID, counter uint64) uint64 {
	h := node.Mix64(uint64(seed) ^ salt)
	h = node.Mix64(h ^ uint64(from))
	h = node.Mix64(h ^ uint64(to))
	return node.Mix64(h ^ counter)
}

// mixNode is mixPair for a stream that belongs to one node.
func mixNode(seed int64, salt uint64, id ids.NodeID, counter uint64) uint64 {
	h := node.Mix64(uint64(seed) ^ salt)
	return node.Mix64(node.Mix64(h^uint64(id)) ^ counter)
}

// nodeRand returns node id's random stream for one purpose, named by its
// salt. It starts at a pure hash of (seed, purpose, id): what a node draws
// depends neither on how many nodes booted before it nor on what the driver
// drew in between.
func nodeRand(seed int64, purpose uint64, id ids.NodeID) *rand.Rand {
	return node.NewRand(mixNode(seed, purpose, id, 0))
}

// defaultParallelMin scales the inline-span threshold with the shard
// count: waking K workers only pays off when the span holds enough events.
func defaultParallelMin(workers int) int { return 2 * workers }

// defaultWorkers is the Options.Workers == 0 default: one shard per
// available CPU, bounded by the shard-count cap. On a single-core host this
// is 1 — the sequential engine, no synchronization at all.
func defaultWorkers() int {
	w := runtime.GOMAXPROCS(0)
	if max := maxWorkers(); w > max {
		w = max
	}
	if w < 1 {
		w = 1
	}
	return w
}

// maxWorkers bounds Options.Workers to something sane: enough shards to
// oversubscribe the machine for testing, not enough to drown it.
func maxWorkers() int {
	c := runtime.NumCPU()
	if c < 4 {
		c = 4
	}
	return 8 * c
}
