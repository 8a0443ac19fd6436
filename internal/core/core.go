package core

import (
	"cmp"
	"math"
	"slices"
	"time"

	"repro/internal/ids"
	"repro/internal/node"
	"repro/internal/wire"
)

// Protocol is one node's BRISA instance. It implements node.Proto; all
// methods run on the node's actor loop. Membership changes arrive through
// NeighborUp/NeighborDown, wired to the PSS callbacks by the assembler
// (package brisa or the experiment harness).
type Protocol struct {
	node.BaseProto
	cfg       Config
	env       node.Env
	streams   []*stream // ascending by id
	metrics   Metrics
	startedAt instant
	stopped   bool

	// Where deliveries, events and completed blobs leave the actor: the only
	// protocol state other goroutines touch (they attach and cancel).
	deliveries node.Listeners[Delivery]
	events     node.Listeners[Event]
	blobs      node.Listeners[BlobDelivery]
}

// New builds a Protocol. cfg.PSS must be set.
func New(cfg Config) *Protocol {
	if cfg.PSS == nil {
		panic("core: Config.PSS is required")
	}
	return &Protocol{cfg: cfg.withDefaults()}
}

// Start implements node.Proto.
func (p *Protocol) Start(env node.Env) {
	p.env = env
	p.startedAt = p.now()
}

// Stop implements node.Proto.
func (p *Protocol) Stop() { p.stopped = true }

// Metrics returns a snapshot of the counters.
func (p *Protocol) Metrics() Metrics { return p.metrics }

// Now returns the node-local clock the protocol runs on: virtual (and
// shard-local, under the sharded simulator) time on simnet, wall time on
// the live runtime. Only meaningful from the node's own actor callbacks
// after Start; instrumentation that timestamps deliveries must use this
// rather than a cluster-global clock, which is stale mid-window when the
// simulator runs sharded.
func (p *Protocol) Now() time.Time {
	if p.env == nil {
		return time.Time{}
	}
	return p.env.Now()
}

// now reads the node's clock as an instant.
func (p *Protocol) now() instant { return instant(p.env.Now().UnixNano()) }

// Mode returns the configured structure mode.
func (p *Protocol) Mode() Mode { return p.cfg.Mode }

// byID orders the stream table for binary search.
func byID(st *stream, id wire.StreamID) int { return cmp.Compare(st.id, id) }

// lookup returns stream id's state, nil if the node has none.
func (p *Protocol) lookup(id wire.StreamID) *stream {
	if i, ok := slices.BinarySearchFunc(p.streams, id, byID); ok {
		return p.streams[i]
	}
	return nil
}

// getStream returns stream id's state, inserting an empty one if there is
// none.
func (p *Protocol) getStream(id wire.StreamID) *stream {
	i, ok := slices.BinarySearchFunc(p.streams, id, byID)
	if !ok {
		p.streams = slices.Insert(p.streams, i, newStream(id, len(p.cfg.PSS.Active())))
	}
	return p.streams[i]
}

// StreamIDs lists the streams this node has state for, ascending.
func (p *Protocol) StreamIDs() []wire.StreamID {
	out := make([]wire.StreamID, len(p.streams))
	for i, st := range p.streams {
		out[i] = st.id
	}
	return out
}

// Parents returns the node's current parents for a stream, ascending. The
// slice is the caller's to keep.
func (p *Protocol) Parents(id wire.StreamID) []ids.NodeID {
	if st := p.lookup(id); st != nil {
		return st.appendParents(nil)
	}
	return nil
}

// Children returns the neighbors this node currently relays the stream to
// (outbound-active links). In a converged structure these are exactly the
// nodes that selected us as a parent.
func (p *Protocol) Children(id wire.StreamID) []ids.NodeID {
	if st := p.lookup(id); st != nil {
		return p.childrenOf(st)
	}
	return nil
}

func (p *Protocol) childrenOf(st *stream) []ids.NodeID {
	var out []ids.NodeID
	for _, n := range p.cfg.PSS.Active() {
		if !st.has(n, fOutInactive|fParent) {
			out = append(out, n)
		}
	}
	return out
}

// childCount is childrenOf without materializing the list — the keep-alive
// piggyback needs only the degree, once per stream per tick.
func (p *Protocol) childCount(st *stream) int {
	count := 0
	for _, n := range p.cfg.PSS.Active() {
		if !st.has(n, fOutInactive|fParent) {
			count++
		}
	}
	return count
}

// Depth returns the node's structural depth for a stream: hops from the
// source in tree mode (path length), the depth label in DAG mode. ok is
// false if the node has not received the stream.
func (p *Protocol) Depth(id wire.StreamID) (int, bool) {
	st := p.lookup(id)
	if st == nil || !st.started {
		return 0, false
	}
	if st.source {
		return 0, true
	}
	switch p.cfg.Mode {
	case ModeTree:
		if len(st.myPath) == 0 {
			return 0, false
		}
		return len(st.myPath) - 1, true
	case ModeDAG:
		if st.depth == wire.NoDepth {
			return 0, false
		}
		return int(st.depth), true
	}
	return 0, false
}

// DeliveredCount returns how many distinct messages of the stream this node
// has delivered.
func (p *Protocol) DeliveredCount(id wire.StreamID) uint64 {
	st := p.lookup(id)
	if st == nil || !st.started {
		return 0
	}
	return uint64(st.contigUpTo-st.base) + uint64(st.sparseN)
}

// IsOrphan reports whether the node is currently cut off from the stream's
// structure: it has received the stream but holds no parent. (Repair-delay
// accounting uses the internal orphanedAt timestamp instead, which is only
// cleared by a post-repair delivery.)
func (p *Protocol) IsOrphan(id wire.StreamID) bool {
	st := p.lookup(id)
	return st != nil && p.cfg.Mode != ModeFlood && st.started && !st.source && st.nParents == 0
}

// ConstructionTime returns the §III-D metric behind Figure 13: the time from
// this node's first deactivation activity until all inbound links except the
// target number of parents were inactive. ok is false if construction has
// not completed.
func (p *Protocol) ConstructionTime(id wire.StreamID) (time.Duration, bool) {
	st := p.lookup(id)
	if st == nil || st.constructedAt == 0 {
		return 0, false
	}
	return time.Duration(st.constructedAt - st.firstDeactivateAt), true
}

func (p *Protocol) emit(ev Event) {
	if p.events.Empty() {
		return
	}
	ev.At = p.env.Now()
	p.events.Emit(ev)
}

// Delivery is one newly delivered message, handed to delivery listeners.
type Delivery struct {
	Stream  wire.StreamID
	Seq     uint32
	From    ids.NodeID // the sender; ids.Nil for the node's own publish
	Payload []byte
}

// Deliveries is the registry of delivery listeners: they receive every
// message the node delivers, on every stream, local publishes included, in
// delivery order on the actor. Registration is safe from any goroutine.
func (p *Protocol) Deliveries() *node.Listeners[Delivery] { return &p.deliveries }

// Events is the registry of structural-event listeners, which run on the
// actor. Registration is safe from any goroutine, so a listener can attach
// to an already-running protocol — which is how the scenario runner probes
// clusters it did not configure.
func (p *Protocol) Events() *node.Listeners[Event] { return &p.events }

// ---------------------------------------------------------------- publish

// Publish injects the next message of a stream this node sources. The first
// Publish implicitly floods the network and bootstraps the dissemination
// structure (§II-C); an empty payload reproduces the paper's "empty message"
// bootstrap option.
func (p *Protocol) Publish(id wire.StreamID, payload []byte) uint32 {
	st := p.getStream(id)
	if !st.source {
		st.source = true
		st.depth = 0
		st.myPath = []ids.NodeID{p.env.ID()}
		st.nextSeq = 1
	}
	seq := st.nextSeq
	st.nextSeq++
	st.markDelivered(seq)
	st.remember(seq, payload, bufferSize)
	p.metrics.Delivered++
	p.emit(Event{Type: EvDeliver, Stream: id, Seq: seq})
	p.deliveries.Emit(Delivery{Stream: id, Seq: seq, Payload: payload})
	p.relay(st, ids.Nil, seq, payload)
	return seq
}

// relay forwards a message to every outbound-active neighbor except the one
// it came from.
func (p *Protocol) relay(st *stream, except ids.NodeID, seq uint32, payload []byte) {
	msg := wire.Data{
		Stream:  st.id,
		Seq:     seq,
		Depth:   st.depth,
		Payload: payload,
	}
	if p.cfg.Mode != ModeDAG {
		msg.Path = st.myPath
	}
	var m wire.Message // boxed once, on the first recipient: a leaf boxes nothing
	for _, n := range p.cfg.PSS.Active() {
		if n == except || st.has(n, fOutInactive) {
			continue
		}
		if m == nil {
			m = msg
		}
		p.env.Send(n, m)
	}
}

// ---------------------------------------------------------------- receive

// Receive implements node.Proto.
func (p *Protocol) Receive(from ids.NodeID, m wire.Message) {
	switch msg := m.(type) {
	case wire.Data:
		p.onData(from, msg)
	case wire.Deactivate:
		p.onDeactivate(from, msg)
	case wire.Reactivate:
		p.onReactivate(from, msg)
	case wire.FloodRepair:
		p.onFloodRepair(from, msg)
	case wire.DepthUpdate:
		p.onDepthUpdate(from, msg)
	case wire.MsgRequest:
		p.onMsgRequest(from, msg)
	case wire.BlobChunk:
		p.onBlobChunk(from, msg)
	case wire.BlobHave:
		p.onBlobHave(from, msg)
	case wire.BlobWant:
		p.onBlobWant(from, msg)
	}
}

// noteSender records what a payload message (Data or BlobChunk) reveals about
// the sender's structural position.
func (p *Protocol) noteSender(st *stream, from ids.NodeID, depth uint16, path []ids.NodeID) {
	pi := st.info(from)
	if pi.firstHeard == 0 {
		pi.firstHeard = p.now()
	}
	if p.cfg.Mode == ModeDAG {
		pi.depth = depth
	} else {
		pi.pathHasMe = ids.Contains(path, p.env.ID())
		pi.pathKnown = true
		pi.lastHop = ids.Nil
		if len(path) >= 2 {
			// path ends with the sender itself; its predecessor is the
			// node currently feeding the sender.
			pi.lastHop = path[len(path)-2]
		}
	}
}

func (p *Protocol) onData(from ids.NodeID, m wire.Data) {
	st := p.getStream(m.Stream)
	now := p.now()

	// Record what this message reveals about the sender's position.
	p.noteSender(st, from, m.Depth, m.Path)

	if st.isDelivered(m.Seq) {
		p.onDuplicate(st, from, m)
		return
	}

	// New message: deliver.
	st.markDelivered(m.Seq)
	st.remember(m.Seq, m.Payload, bufferSize)
	p.metrics.Delivered++
	st.lastDeliveredAt = now
	if st.isParent(from) {
		st.lastParentDelivery = now
	}
	p.emit(Event{Type: EvDeliver, Stream: st.id, Seq: m.Seq, Peer: from})
	p.deliveries.Emit(Delivery{Stream: st.id, Seq: m.Seq, From: from, Payload: m.Payload})
	if st.orphanedAt != 0 {
		p.emit(Event{
			Type: EvRepaired, Stream: st.id, Peer: from,
			Dur: time.Duration(now - st.orphanedAt), Hard: st.orphanWasHard,
		})
		st.orphanedAt = 0
		st.orphanWasHard = false
	}

	if st.source {
		// Our own message came back: a transient loop. Dedup already
		// stopped it; nothing to update structurally.
		return
	}

	p.structOnNew(st, from, m.Depth, m.Path)

	p.relay(st, from, m.Seq, m.Payload)
	p.maybeRecoverGaps(st, from, m.Seq)
}

// structOnNew is the structure bookkeeping a first reception drives — shared
// by Data and BlobChunk, which carry the same (Depth, Path) metadata. Must
// not be called on the stream's source.
func (p *Protocol) structOnNew(st *stream, from ids.NodeID, depth uint16, path []ids.NodeID) {
	switch p.cfg.Mode {
	case ModeTree:
		// The embedded path changes only on a re-parent. A changed one is
		// built fresh, never written into the old slice: every path handed
		// to Env.Send is aliased by in-flight messages and must stay as sent.
		if n := len(path); len(st.myPath) != n+1 || !slices.Equal(st.myPath[:n], path) {
			st.myPath = append(append(make([]ids.NodeID, 0, n+1), path...), p.env.ID())
		}
		if ids.Contains(path, p.env.ID()) {
			// §II-D continuous cycle detection, on *every* reception: a
			// path through us means our parent is fed (directly or via
			// retransmissions) by our own subtree. Duplicates through a
			// starved cycle never arrive, so new messages must be
			// checked too.
			if st.isParent(from) {
				p.onCycle(st, from)
			}
		} else if st.nParents == 0 {
			p.adoptParent(st, from)
		}
	case ModeDAG:
		if st.depth == wire.NoDepth {
			p.setDepth(st, depth+1)
		} else if depth == st.depth {
			p.setDepth(st, depth+1)
		}
		p.enforceParentDepth(st, from)
		if !st.isParent(from) && st.nParents < p.cfg.Parents && depth < st.depth {
			p.adoptParent(st, from)
		}
	}
}

// onDuplicate runs the §II-C link-deactivation state machine.
func (p *Protocol) onDuplicate(st *stream, from ids.NodeID, m wire.Data) {
	p.metrics.Duplicates++
	p.emit(Event{Type: EvDuplicate, Stream: st.id, Seq: m.Seq, Peer: from})
	p.structOnDup(st, from, m.Depth, m.Path)
}

// structOnDup is the link-deactivation machinery a duplicate reception drives
// — shared by Data and BlobChunk duplicates.
func (p *Protocol) structOnDup(st *stream, from ids.NodeID, depth uint16, path []ids.NodeID) {
	if p.cfg.Mode == ModeFlood {
		return
	}
	if st.source {
		// Every inbound link at the source is useless.
		p.deactivate(st, from, false)
		return
	}
	switch p.cfg.Mode {
	case ModeTree:
		p.onDuplicateTree(st, from, path)
	case ModeDAG:
		p.onDuplicateDAG(st, from, depth)
	}
}

func (p *Protocol) onDuplicateTree(st *stream, from ids.NodeID, path []ids.NodeID) {
	if from == st.graceParent {
		return // expected duplicates during a make-before-break switch
	}
	eligible := !ids.Contains(path, p.env.ID())
	if st.isParent(from) {
		if !eligible {
			// §II-D: continuous cycle detection — the parent's messages
			// now flow through us.
			p.onCycle(st, from)
		}
		return
	}
	if !eligible {
		p.deactivate(st, from, false)
		return
	}
	if st.nParents == 0 {
		p.adoptParent(st, from)
		return
	}
	cur := st.firstParent()
	if p.switchWins(st, from, cur) {
		p.beginGraceSwitch(st, cur, from)
		return
	}
	p.deactivate(st, from, p.cfg.SymmetricDeactivation)
}

// onCycle drops a parent whose messages loop through us and re-homes.
func (p *Protocol) onCycle(st *stream, from ids.NodeID) {
	p.metrics.CycleDetections++
	p.emit(Event{Type: EvCycleDetected, Stream: st.id, Peer: from})
	p.expel(st, from)
	if !p.revertGrace(st) {
		p.repairOrAcquire(st, from)
	}
}

// expel drops a parent that proved bad and bars it from proactive
// re-adoption for a cooldown: in a mutual-adoption cycle its stale path
// info can look eligible.
func (p *Protocol) expel(st *stream, peer ids.NodeID) {
	p.dropParent(st, peer)
	p.sendDeactivate(st, peer, false)
	st.info(peer).cooldownUntil = p.now() + instant(readoptCooldown)
}

// beginGraceSwitch replaces parent old with new, make-before-break: old's
// inbound link stays active for gracePeriod so that, if new turns out to
// sit in our own subtree (a cycle closed by two racing switches), data
// keeps flowing, the exact path check sees the loop, and we revert. Only
// after a clean grace period is old's link deactivated.
func (p *Protocol) beginGraceSwitch(st *stream, old, new ids.NodeID) {
	p.finalizeGrace(st) // at most one switch in flight
	p.dropParent(st, old)
	p.adoptParent(st, new)
	st.graceParent = old
	st.graceUntil = p.now() + instant(gracePeriod)
	id := st.id
	p.env.After(gracePeriod, func() {
		s := p.lookup(id)
		if s == nil || s.graceParent == ids.Nil || p.now() < s.graceUntil {
			return
		}
		p.finalizeGrace(s)
	})
}

// finalizeGrace commits a pending switch: the old parent's inbound link is
// deactivated unless it was re-adopted meanwhile.
func (p *Protocol) finalizeGrace(st *stream) {
	old := st.graceParent
	if old == ids.Nil {
		return
	}
	st.graceParent = ids.Nil
	if !st.isParent(old) && p.cfg.PSS.ActiveContains(old) {
		p.deactivate(st, old, false)
	}
}

// revertGrace aborts a pending switch after the new parent proved bad,
// re-adopting the still-active old parent. Reports whether it could.
func (p *Protocol) revertGrace(st *stream) bool {
	old := st.graceParent
	if old == ids.Nil {
		return false
	}
	st.graceParent = ids.Nil
	if !p.cfg.PSS.ActiveContains(old) {
		return false
	}
	p.adoptParent(st, old)
	return true
}

// switchWins decides whether a duplicate's sender displaces an incumbent
// parent: the candidate must not be under a re-adoption cooldown, must not
// have reported us as *its* parent (a switch would close a two-node
// cycle), and its score must beat the incumbent's by the configured
// hysteresis margin. The dampening keeps symmetric metrics (RTT) from
// racing pairs of nodes into adopting each other.
func (p *Protocol) switchWins(st *stream, cand, inc ids.NodeID) bool {
	if pi := st.known(cand); pi != nil && (pi.parentIsMe || p.now() < pi.cooldownUntil) {
		return false
	}
	if cand == st.graceParent {
		return false // a reverted parent must not flap straight back
	}
	sc := p.cfg.Strategy.Score(p.offer(st, cand))
	si := p.cfg.Strategy.Score(p.incumbent(st, inc))
	margin := switchMargin * math.Abs(si)
	return sc < si-margin
}

func (p *Protocol) onDuplicateDAG(st *stream, from ids.NodeID, depth uint16) {
	if from == st.graceParent {
		return // expected duplicates during a make-before-break switch
	}
	if st.isParent(from) {
		// Same-depth reception pushes us down (§II-G); a parent that sank
		// below us is dropped. pi.depth was refreshed from the message's
		// depth in noteSender.
		p.enforceParentDepth(st, from)
		return
	}
	if st.depth != wire.NoDepth && depth == st.depth {
		p.setDepth(st, depth+1) // sender becomes eligible below
	}
	if st.depth == wire.NoDepth || depth >= st.depth {
		p.deactivate(st, from, false)
		return
	}
	if st.nParents < p.cfg.Parents {
		p.adoptParent(st, from)
		return
	}
	// Parent set is full: the offer may displace the worst incumbent, but
	// only past the hysteresis bar.
	var worst ids.NodeID
	var worstCand Candidate
	for i := range st.nbrs {
		if par := st.nbrs[i].id; st.nbrs[i].facets&fParent != 0 {
			if c := p.incumbent(st, par); worst == ids.Nil || !better(p.cfg.Strategy, c, worstCand) {
				worst, worstCand = par, c
			}
		}
	}
	if !p.switchWins(st, from, worst) {
		// Never symmetric in DAG mode: a neighbor that heard the
		// message before us may still adopt us as an extra parent.
		p.deactivate(st, from, false)
		return
	}
	p.beginGraceSwitch(st, worst, from)
}

// ---------------------------------------------------------------- links

// deactivate turns the inbound link from peer off unless it is off already.
func (p *Protocol) deactivate(st *stream, peer ids.NodeID, symmetric bool) {
	if !st.has(peer, fInactiveIn) {
		p.sendDeactivate(st, peer, symmetric)
	}
}

func (p *Protocol) sendDeactivate(st *stream, to ids.NodeID, symmetric bool) {
	p.env.Send(to, wire.Deactivate{Stream: st.id, Symmetric: symmetric})
	f := fInactiveIn
	if symmetric {
		f |= fOutInactive
	}
	st.info(to).facets |= f
	p.metrics.DeactivationsSent++
	if st.firstDeactivateAt == 0 {
		st.firstDeactivateAt = p.now()
	}
	p.checkConstructed(st)
}

func (p *Protocol) onDeactivate(from ids.NodeID, m wire.Deactivate) {
	st := p.getStream(m.Stream)
	nb := st.info(from)
	nb.facets |= fOutInactive
	if m.Symmetric && nb.facets&fInactiveIn == 0 {
		// §II-E optimization: the peer also stopped relaying to us, so our
		// inbound link from it is inactive without a further message.
		nb.facets |= fInactiveIn
		if st.firstDeactivateAt == 0 {
			st.firstDeactivateAt = p.now()
		}
		p.checkConstructed(st)
	}
}

func (p *Protocol) onReactivate(from ids.NodeID, m wire.Reactivate) {
	st := p.getStream(m.Stream)
	st.unset(from, fOutInactive)
}

func (p *Protocol) sendReactivate(st *stream, to ids.NodeID) {
	st.unset(to, fInactiveIn)
	p.env.Send(to, wire.Reactivate{Stream: st.id})
	p.metrics.ReactivationsSent++
}

// checkConstructed records the Figure 13 construction-completion instant:
// the number of inbound-active links reached the target parent count.
func (p *Protocol) checkConstructed(st *stream) {
	if st.constructedAt != 0 || st.firstDeactivateAt == 0 || st.source {
		return
	}
	inActive := 0
	for _, n := range p.cfg.PSS.Active() {
		if !st.has(n, fInactiveIn) {
			inActive++
		}
	}
	if inActive <= p.cfg.Parents {
		st.constructedAt = p.now()
		p.emit(Event{
			Type: EvConstructionDone, Stream: st.id,
			Dur: time.Duration(st.constructedAt - st.firstDeactivateAt),
		})
	}
}

// ---------------------------------------------------------------- parents

func (p *Protocol) candidate(st *stream, peer ids.NodeID) Candidate {
	c := Candidate{Peer: peer, RTT: p.cfg.PSS.RTT(peer), Degree: -1}
	if pi := st.known(peer); pi != nil {
		c.FirstHeard, c.Uptime, c.Degree = pi.firstHeard.time(), time.Duration(pi.uptime)*time.Second, int(pi.degree)
	}
	return c
}

// offer describes a duplicate's sender as a parent candidate. Its
// first-heard instant is the *current* reception: under first-come
// semantics, every duplicate is by definition a later offer than the
// incumbent parent's (§II-E: "all subsequent duplicates received trigger
// the deactivation of the incoming link"). Reusing the historical
// first-heard time here would let a long-known neighbor steal parenthood
// back right after a repair and close a structure cycle.
func (p *Protocol) offer(st *stream, peer ids.NodeID) Candidate {
	c := p.candidate(st, peer)
	c.FirstHeard = p.env.Now()
	return c
}

// incumbent describes a current parent; its offer stands from the moment it
// was adopted.
func (p *Protocol) incumbent(st *stream, peer ids.NodeID) Candidate {
	c := p.candidate(st, peer)
	if pi := st.known(peer); pi != nil && pi.facets&fParent != 0 {
		c.FirstHeard = pi.adoptedAt.time()
	}
	return c
}

func (p *Protocol) adoptParent(st *stream, peer ids.NodeID) {
	if st.has(peer, fInactiveIn) {
		p.sendReactivate(st, peer)
	}
	now := p.now()
	nb := st.info(peer)
	if nb.facets&fParent == 0 {
		st.nParents++
	}
	nb.facets, nb.adoptedAt = nb.facets|fParent, now
	// Give the new parent a full stall window before judging it.
	st.lastParentDelivery = now
	p.emit(Event{Type: EvParentAdopt, Stream: st.id, Peer: peer})
}

// dropParent removes a parent for protocol-internal reasons (replacement,
// cycle, depth conflict) without failure accounting.
func (p *Protocol) dropParent(st *stream, peer ids.NodeID) {
	st.drop(peer)
	p.emit(Event{Type: EvParentLost, Stream: st.id, Peer: peer})
}

// knownEligible evaluates the cycle-prevention condition for *proactive*
// parent adoption (soft repair, DAG replenishment) using local knowledge
// from data receptions and keep-alive piggybacks. Unknown positions are NOT
// eligible: adopting blindly after a repair can close a silent cycle that
// carries no data and therefore never triggers the continuous cycle
// detection. Nodes without an informed candidate fall back to hard repair,
// where the exact per-message path check governs adoption (§II-F).
func (p *Protocol) knownEligible(st *stream, peer ids.NodeID) bool {
	pi := st.known(peer)
	if pi == nil || pi.parentIsMe || p.now() < pi.cooldownUntil {
		return false
	}
	switch p.cfg.Mode {
	case ModeTree:
		return pi.pathKnown && !pi.pathHasMe
	case ModeDAG:
		if pi.depth == wire.NoDepth {
			return false
		}
		// §II-G: parents may sit at any depth *not greater than* ours —
		// adopting an equal-depth parent is legal, the same-depth rule
		// then pushes us one level down on its next message.
		return st.depth == wire.NoDepth || pi.depth <= st.depth
	}
	return false
}

// bestEligibleNeighbor picks the strategy-preferred eligible active-view
// member that is not already a parent and not excluded. failedVia, when not
// Nil (repair context, tree mode), additionally bars candidates whose last
// known path ran through that node: their position knowledge is exactly as
// stale as ours, and adopting a fellow downstream node of the failed parent
// is how two simultaneous repairs close a silent cycle. Barred candidates
// leave the node to hard repair, whose flood re-bootstraps the subtree.
func (p *Protocol) bestEligibleNeighbor(st *stream, exclude, failedVia ids.NodeID) (ids.NodeID, bool) {
	var bestID ids.NodeID
	var bestCand Candidate
	found := false
	for _, n := range p.cfg.PSS.Active() {
		if n == exclude || st.isParent(n) || !p.knownEligible(st, n) {
			continue
		}
		if failedVia != ids.Nil && p.cfg.Mode == ModeTree {
			if st.known(n).lastHop == failedVia {
				continue // knownEligible found the record
			}
		}
		c := p.candidate(st, n)
		if !found || better(p.cfg.Strategy, c, bestCand) {
			bestID, bestCand, found = n, c, true
		}
	}
	return bestID, found
}

// acquireParents tops the parent set back up to the target using local
// knowledge (DAG replenishment, or a tree node mid-repair).
func (p *Protocol) acquireParents(st *stream) {
	if st.source || !st.started || p.cfg.Mode == ModeFlood {
		return
	}
	for st.nParents < p.cfg.Parents {
		c, ok := p.bestEligibleNeighbor(st, ids.Nil, ids.Nil)
		if !ok {
			return
		}
		p.sendReactivate(st, c)
		p.adoptParent(st, c)
	}
}

// ---------------------------------------------------------------- repair

// NeighborUp is wired to the PSS neighbor-up callback: links to new nodes
// start active (§II-F). Streams are visited in ascending id order:
// acquireParents sends repair traffic, and send order feeds the per-node
// event sequence, so per-stream side effects must fire in a run-stable
// order.
func (p *Protocol) NeighborUp(peer ids.NodeID) {
	for _, st := range p.streams {
		st.forget(peer) // fresh node, fresh links: both directions active
		if st.orphanedAt != 0 || (p.cfg.Mode == ModeDAG && st.started && !st.source && st.nParents < p.cfg.Parents) {
			p.acquireParents(st)
		}
	}
}

// NeighborDown is wired to the PSS neighbor-down callback (§II-F failure
// handling). Ascending stream order for the same reason as NeighborUp: the
// repair sends below must not fire in randomized map order.
func (p *Protocol) NeighborDown(peer ids.NodeID) {
	for _, st := range p.streams {
		wasParent := st.drop(peer)
		if st.graceParent == peer {
			st.graceParent = ids.Nil
		}
		st.forget(peer)
		if !wasParent {
			continue
		}
		p.metrics.ParentsLost++
		p.emit(Event{Type: EvParentLost, Stream: st.id, Peer: peer})
		if st.nParents > 0 {
			// DAG with surviving parents: flow continues seamlessly; top
			// the parent set back up in the background.
			p.acquireParents(st)
			continue
		}
		p.becameParentless(st, peer)
	}
}

// becameParentless runs the §II-F disconnection handling whenever a node
// that had joined the structure ends up with no parents — whether through a
// neighbor failure or through protocol-internal drops (depth-label drift,
// cycle detection). It is a no-op while any parent remains.
func (p *Protocol) becameParentless(st *stream, cause ids.NodeID) {
	if st.source || !st.started || p.cfg.Mode == ModeFlood || st.nParents > 0 {
		return
	}
	if st.orphanedAt != 0 {
		return // already mid-repair
	}
	p.metrics.Orphans++
	st.orphanedAt = p.now()
	st.orphanWasHard = false
	p.emit(Event{Type: EvOrphan, Stream: st.id, Peer: cause})
	p.repairOrAcquire(st, cause)
}

// repairOrAcquire implements §II-F: soft repair if any active-view member is
// an eligible replacement, hard repair (flooding fallback) otherwise.
func (p *Protocol) repairOrAcquire(st *stream, failed ids.NodeID) {
	if c, ok := p.bestEligibleNeighbor(st, failed, failed); ok {
		p.metrics.SoftRepairs++
		p.sendReactivate(st, c)
		p.adoptParent(st, c)
		p.emit(Event{Type: EvSoftRepair, Stream: st.id, Peer: c})
		// Ask the new parent for anything we might have missed in flight.
		p.requestRecent(st, c)
		return
	}
	p.hardRepair(st, failed)
}

// hardRepair is the flooding fallback (§II-F).
func (p *Protocol) hardRepair(st *stream, failed ids.NodeID) {
	p.metrics.HardRepairs++
	st.orphanWasHard = true
	p.emit(Event{Type: EvHardRepair, Stream: st.id, Peer: failed})
	p.refloodFrom(st, ids.Nil)
}

// refloodFrom forgets our position, turns every inbound link back on and
// orders our children, except the node the order came from, to re-bootstrap
// their part of the structure.
func (p *Protocol) refloodFrom(st *stream, from ids.NodeID) {
	p.forgetPosition(st)
	order := wire.FloodRepair{Stream: st.id}
	sent := 0
	for _, n := range p.cfg.PSS.Active() {
		if st.has(n, fInactiveIn) {
			p.sendReactivate(st, n)
		}
		if n != from && !st.has(n, fOutInactive) {
			p.env.Send(n, order)
			sent++
		}
	}
	if sent > 0 {
		p.metrics.FloodRepairOrders++
	}
}

// forgetPosition resets the node's cycle-detection state so it can take any
// neighbor as a parent, like a fresh node (§II-F).
func (p *Protocol) forgetPosition(st *stream) {
	if p.cfg.Mode == ModeDAG {
		st.depth = wire.NoDepth
	}
	for i := range st.nbrs {
		pi := &st.nbrs[i]
		pi.pathKnown, pi.pathHasMe, pi.depth = false, false, wire.NoDepth
	}
}

// onFloodRepair handles a parent's re-activation order: replace that parent
// locally if possible, otherwise recurse the re-bootstrap downwards.
func (p *Protocol) onFloodRepair(from ids.NodeID, m wire.FloodRepair) {
	st := p.getStream(m.Stream)
	if !st.isParent(from) {
		// We do not depend on the sender; our feed is unaffected.
		return
	}
	p.dropParent(st, from)
	if c, ok := p.bestEligibleNeighbor(st, from, from); ok {
		// Absorb the repair: a local replacement exists. The former parent
		// will pick us (or another node) up through normal selection.
		p.sendReactivate(st, c)
		p.adoptParent(st, c)
		p.requestRecent(st, c)
		return
	}
	// Recurse: reactivate all inbound and pass the order down.
	p.refloodFrom(st, from)
}

func (p *Protocol) onDepthUpdate(from ids.NodeID, m wire.DepthUpdate) {
	st := p.getStream(m.Stream)
	st.info(from).depth = m.Depth
	p.enforceParentDepth(st, from)
}

// enforceParentDepth restores the DAG invariant depth(parent) < depth(node)
// after a parent's label moved. A parent that reached our level pushes us
// one deeper (the §II-G same-depth rule); a parent strictly below us is
// dropped — following it down could ping-pong forever if labels ever formed
// a mutual dependency, while dropping always breaks it.
func (p *Protocol) enforceParentDepth(st *stream, peer ids.NodeID) {
	if p.cfg.Mode != ModeDAG || st.depth == wire.NoDepth {
		return
	}
	pi := st.known(peer)
	if pi == nil || pi.facets&fParent == 0 || pi.depth == wire.NoDepth {
		return
	}
	depth := pi.depth // pi is not read again: the calls below can move the table
	switch {
	case depth == st.depth:
		p.setDepth(st, depth+1)
	case depth > st.depth:
		p.dropParent(st, peer)
		p.sendDeactivate(st, peer, false)
		p.acquireParents(st)
		p.becameParentless(st, peer)
	}
}

// setDepth moves the node to a new DAG depth and immediately updates
// downstream children (§II-G).
func (p *Protocol) setDepth(st *stream, d uint16) {
	if st.depth == d {
		return
	}
	st.depth = d
	p.emit(Event{Type: EvDepthChange, Stream: st.id, Seq: uint32(d)})
	var upd wire.Message = wire.DepthUpdate{Stream: st.id, Depth: d}
	for _, n := range p.cfg.PSS.Active() { // the children, as childrenOf lists them
		if !st.has(n, fOutInactive|fParent) {
			p.env.Send(n, upd)
		}
	}
}

// ---------------------------------------------------------------- recovery

// maybeRecoverGaps requests retransmission of sequence gaps revealed by an
// out-of-order reception, rate-limited per stream.
func (p *Protocol) maybeRecoverGaps(st *stream, from ids.NodeID, seq uint32) {
	lo, hi, any := st.gapsBelow(seq, 64)
	if !any {
		return
	}
	now := p.now()
	if time.Duration(now-st.lastRecovery) < recoveryMinInterval {
		return
	}
	st.lastRecovery = now
	target := st.firstParent()
	if target == ids.Nil {
		target = from
	}
	p.metrics.RecoveryRequests++
	p.env.Send(target, wire.MsgRequest{Stream: st.id, From: lo, To: hi})
}

// requestRecent asks a newly adopted parent to retransmit the window above
// our contiguous prefix — the §II-F "compensate message loss during the
// parent recovery process" step.
func (p *Protocol) requestRecent(st *stream, parent ids.NodeID) {
	if !st.started {
		return
	}
	p.metrics.RecoveryRequests++
	p.env.Send(parent, wire.MsgRequest{
		Stream: st.id,
		From:   st.contigUpTo,
		To:     st.contigUpTo + uint32(bufferSize),
	})
}

// checkProgress reacts to a neighbor's piggybacked delivery progress.
// Falling behind a neighbor means our feed missed messages: request the gap
// from the peer that provably had them (catch-up). If on top of that no
// parent has delivered anything for stallTimeout, the feed itself is broken
// — most likely a structure cycle closed by racing parent switches, which
// carries no data and is therefore invisible to the exact path check — so
// the parents are dropped and the node re-homes (stall repair).
func (p *Protocol) checkProgress(st *stream, peer ids.NodeID, peerUpTo uint32) {
	if st.source || !st.started || p.cfg.Mode == ModeFlood || peerUpTo <= st.contigUpTo {
		return
	}
	now := p.now()
	// Only act when the node has been idle for a while: during normal flow
	// a receiver always trails its upstream by one propagation delay, and
	// requesting that in-flight window would just manufacture duplicates.
	catchupIdle := stallTimeout / 3
	if time.Duration(now-st.lastDeliveredAt) < catchupIdle {
		return
	}
	// Catch-up: pull the missing window from the neighbor reporting it.
	if time.Duration(now-st.lastRecovery) >= recoveryMinInterval {
		st.lastRecovery = now
		hi := peerUpTo
		if max := st.contigUpTo + uint32(bufferSize); hi > max {
			hi = max
		}
		p.metrics.RecoveryRequests++
		p.env.Send(peer, wire.MsgRequest{Stream: st.id, From: st.contigUpTo, To: hi})
	}
	// Stall repair: the structure stopped feeding us while the stream
	// demonstrably advances.
	if st.nParents == 0 || time.Duration(now-st.lastParentDelivery) < stallTimeout {
		return
	}
	p.metrics.StallRepairs++
	p.emit(Event{Type: EvStallRepair, Stream: st.id, Peer: peer})
	former := st.firstParent()
	for i := range st.nbrs { // expel inserts nothing: its record exists
		if st.nbrs[i].facets&fParent != 0 {
			p.expel(st, st.nbrs[i].id)
		}
	}
	if c, ok := p.bestEligibleNeighbor(st, former, former); ok {
		p.sendReactivate(st, c)
		p.adoptParent(st, c)
		p.requestRecent(st, c)
		return
	}
	p.hardRepair(st, former)
}

func (p *Protocol) onMsgRequest(from ids.NodeID, m wire.MsgRequest) {
	st := p.getStream(m.Stream)
	if m.To < m.From || m.To-m.From > 256 {
		return // bogus or abusive range
	}
	msg := wire.Data{Stream: st.id, Depth: st.depth}
	if p.cfg.Mode != ModeDAG {
		msg.Path = st.myPath
	}
	for seq := m.From; seq < m.To; seq++ {
		payload, ok := st.lookup(seq)
		if !ok {
			continue
		}
		msg.Seq = seq
		msg.Payload = payload
		p.metrics.Retransmissions++
		p.env.Send(from, msg)
	}
}
