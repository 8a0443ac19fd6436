// Package tag implements the TAG baseline (Liu & Zhou, "Tree-assisted
// gossiping for overlay video distribution", 2006) as described in §III-D(c)
// of the BRISA paper: nodes form a linked list sorted by join time with
// 2-hop predecessor/successor knowledge; a joiner traverses the list
// backwards until it finds a tree parent with spare capacity, picking random
// gossip partners along the way; dissemination is pull-based from both the
// tree parent and the gossip partners.
//
// Unspecified details are instantiated as documented in DESIGN.md: the
// "application specific condition" is child capacity, and the list tail is
// tracked by the stream source (the rendezvous the paper implies).
package tag

import (
	"time"

	"repro/internal/ids"
	"repro/internal/node"
	"repro/internal/wire"
)

// Config tunes one TAG peer.
type Config struct {
	// Source is the stream source / list rendezvous.
	Source ids.NodeID
	// MaxChildren is the join condition: the first traversed node with
	// fewer children accepts the joiner.
	MaxChildren int
	// GossipPeers is how many random traversal nodes become gossip
	// partners (the paper's k).
	GossipPeers int
	// PullPeriod is the pull interval; pulls alternate between the tree
	// parent and one gossip partner.
	PullPeriod time.Duration
	// MaxItemsPerPull caps how many messages one pull reply carries.
	MaxItemsPerPull int
	// OnDeliver receives every newly delivered payload.
	OnDeliver func(stream wire.StreamID, seq uint32, payload []byte)
	// OnRepair reports a completed parent recovery: hard marks the
	// list-broken case where the node re-inserted through the source.
	OnRepair func(hard bool, d time.Duration)
}

func (c Config) withDefaults() Config {
	if c.MaxChildren <= 0 {
		c.MaxChildren = 4
	}
	if c.GossipPeers <= 0 {
		c.GossipPeers = 3
	}
	if c.PullPeriod <= 0 {
		c.PullPeriod = 400 * time.Millisecond
	}
	if c.MaxItemsPerPull <= 0 {
		c.MaxItemsPerPull = 1
	}
	return c
}

// Metrics counts per-peer activity.
type Metrics struct {
	Delivered   uint64
	Duplicates  uint64
	PullsSent   uint64
	ItemsServed uint64
	SoftRepairs uint64
	HardRejoins uint64
}

type walkPhase int

const (
	walkIdle    walkPhase = iota
	walkTail              // waiting for the source's tail pointer
	walkProbing           // waiting for a TagJoinAccept from walkTarget
)

type streamState struct {
	started    bool
	base       uint32
	contigUpTo uint32
	sparse     map[uint32]struct{}
	payloads   map[uint32][]byte
	nextSeq    uint32
	remoteUpTo uint32 // highest announced sequence; gates pulls
}

// Peer is one TAG node.
type Peer struct {
	node.BaseProto
	cfg Config
	env node.Env

	isSource bool
	tail     ids.NodeID // source only: current list tail

	pred, pred2 ids.NodeID
	succ, succ2 ids.NodeID
	parent      ids.NodeID
	children    *ids.Set
	gossip      []ids.NodeID

	phase        walkPhase
	walkTarget   ids.NodeID
	walkSeen     []ids.NodeID
	joinStarted  time.Time
	settled      bool
	settleDur    time.Duration
	parentLostAt time.Time
	repairHard   bool

	streams  map[wire.StreamID]*streamState
	outbox   []queued
	pullFlip bool
	metrics  Metrics
	stopped  bool
	timer    node.Timer
}

type queued struct {
	to ids.NodeID
	m  wire.Message
}

// Kinds returns the wire kinds this protocol owns.
func Kinds() []wire.Kind {
	return []wire.Kind{
		wire.KindTagJoinRequest, wire.KindTagWalk, wire.KindTagJoinAccept,
		wire.KindTagLinkUpdate, wire.KindTagPull, wire.KindTagPullReply,
		wire.KindTagAnnounce,
	}
}

// New builds a peer; self is the peer's own id.
func New(self ids.NodeID, cfg Config) *Peer {
	cfg = cfg.withDefaults()
	return &Peer{
		cfg:      cfg,
		isSource: self == cfg.Source,
		children: ids.NewSet(),
		streams:  make(map[wire.StreamID]*streamState),
	}
}

// Now returns the node's own clock — the one instrumentation callbacks must
// read: under the sharded simulator the network-level clock is only valid at
// barriers.
func (p *Peer) Now() time.Time { return p.env.Now() }

// Handler returns the actor to register with a runtime.
func (p *Peer) Handler() node.Handler {
	mux := node.NewMux()
	mux.Register(p, Kinds()...)
	return mux
}

// Metrics returns the peer's counters.
func (p *Peer) Metrics() Metrics { return p.metrics }

// Parent returns the current tree parent (Nil for the source or while
// recovering).
func (p *Peer) Parent() ids.NodeID { return p.parent }

// Children returns the current children, ascending.
func (p *Peer) Children() []ids.NodeID { return p.children.Snapshot() }

// SettleTime returns how long the join traversal took (the paper's Figure 13
// construction-time metric for TAG: "the time since a node joins the list
// until it settles its position").
func (p *Peer) SettleTime() (time.Duration, bool) { return p.settleDur, p.settled }

// DeliveredCount returns how many distinct messages were delivered.
func (p *Peer) DeliveredCount(stream wire.StreamID) uint64 {
	st, ok := p.streams[stream]
	if !ok || !st.started {
		return 0
	}
	return uint64(st.contigUpTo-st.base) + uint64(len(st.sparse))
}

// Start implements node.Proto.
func (p *Peer) Start(env node.Env) {
	p.env = env
	if p.isSource {
		p.tail = env.ID()
		p.settled = true
	}
	jitter := time.Duration(env.Rand().Int63n(int64(p.cfg.PullPeriod)))
	p.timer = env.After(p.cfg.PullPeriod+jitter, p.pullTick)
}

// Stop implements node.Proto.
func (p *Peer) Stop() {
	p.stopped = true
	if p.timer != nil {
		p.timer.Stop()
	}
}

// Join starts the insertion: ask the source for the tail, then traverse.
func (p *Peer) Join() {
	if p.isSource || p.phase != walkIdle {
		return
	}
	p.joinStarted = p.env.Now()
	p.phase = walkTail
	p.sendTo(p.cfg.Source, wire.TagJoinRequest{})
}

func (p *Peer) stream(id wire.StreamID) *streamState {
	st, ok := p.streams[id]
	if !ok {
		st = &streamState{sparse: make(map[uint32]struct{}), payloads: make(map[uint32][]byte)}
		p.streams[id] = st
	}
	return st
}

func (st *streamState) delivered(seq uint32) bool {
	if !st.started {
		return false
	}
	if seq < st.base || seq < st.contigUpTo {
		return true
	}
	_, ok := st.sparse[seq]
	return ok
}

func (st *streamState) mark(seq uint32, payload []byte) {
	if !st.started {
		st.started = true
		st.base = seq
		st.contigUpTo = seq
	}
	st.sparse[seq] = struct{}{}
	st.payloads[seq] = payload
	for {
		if _, ok := st.sparse[st.contigUpTo]; !ok {
			break
		}
		delete(st.sparse, st.contigUpTo)
		st.contigUpTo++
	}
}

// Publish injects the next message at the source. Children learn about it
// via the relayed announcement and fetch it with their next pull.
func (p *Peer) Publish(id wire.StreamID, payload []byte) uint32 {
	st := p.stream(id)
	if st.nextSeq == 0 {
		st.nextSeq = 1
	}
	seq := st.nextSeq
	st.nextSeq++
	st.mark(seq, payload)
	p.metrics.Delivered++
	p.announce(id, st.contigUpTo, ids.Nil)
	return seq
}

func (p *Peer) announce(id wire.StreamID, upTo uint32, except ids.NodeID) {
	msg := wire.TagAnnounce{Stream: id, UpTo: upTo}
	for _, c := range p.children.Snapshot() {
		if c != except {
			p.env.Send(c, msg)
		}
	}
	for _, g := range p.gossip {
		if g != except {
			p.sendTo(g, msg)
		}
	}
}

// ---------------------------------------------------------------- pulling

func (p *Peer) pullTick() {
	if p.stopped {
		return
	}
	defer func() { p.timer = p.env.After(p.cfg.PullPeriod, p.pullTick) }()
	// Alternate between the tree parent and one random gossip partner
	// ("pulling content both from the tree and from gossip neighbors").
	p.pullFlip = !p.pullFlip
	target := p.parent
	if p.pullFlip || target == ids.Nil {
		if len(p.gossip) > 0 {
			target = p.gossip[p.env.Rand().Intn(len(p.gossip))]
		}
	}
	if target == ids.Nil {
		return
	}
	for id, st := range p.streams {
		if !st.started && st.remoteUpTo == 0 {
			continue
		}
		if st.remoteUpTo <= st.contigUpTo && len(st.sparse) == 0 && st.started {
			continue // nothing new announced
		}
		p.metrics.PullsSent++
		p.sendTo(target, wire.TagPull{Stream: id, UpTo: st.contigUpTo, Missing: missingOf(st, 16)})
	}
}

func missingOf(st *streamState, limit int) []uint32 {
	var hi uint32
	for seq := range st.sparse {
		if seq > hi {
			hi = seq
		}
	}
	out := make([]uint32, 0, 8)
	for seq := st.contigUpTo; seq < hi && len(out) < limit; seq++ {
		if _, ok := st.sparse[seq]; !ok {
			out = append(out, seq)
		}
	}
	return out
}

func (p *Peer) onPull(from ids.NodeID, m wire.TagPull) {
	st := p.stream(m.Stream)
	var items []wire.StreamItem
	for _, seq := range m.Missing {
		if len(items) >= p.cfg.MaxItemsPerPull {
			break
		}
		if payload, ok := st.payloads[seq]; ok {
			items = append(items, wire.StreamItem{Seq: seq, Payload: payload})
		}
	}
	start := m.UpTo
	if !st.started || start < st.base {
		start = st.base
	}
	for seq := start; len(items) < p.cfg.MaxItemsPerPull; seq++ {
		payload, ok := st.payloads[seq]
		if !ok {
			break
		}
		items = append(items, wire.StreamItem{Seq: seq, Payload: payload})
	}
	if len(items) == 0 {
		return
	}
	p.metrics.ItemsServed += uint64(len(items))
	p.env.Send(from, wire.TagPullReply{Stream: m.Stream, Items: items})
}

func (p *Peer) onPullReply(m wire.TagPullReply) {
	st := p.stream(m.Stream)
	changed := false
	for _, it := range m.Items {
		if st.delivered(it.Seq) {
			p.metrics.Duplicates++
			continue
		}
		st.mark(it.Seq, it.Payload)
		p.metrics.Delivered++
		changed = true
		if p.cfg.OnDeliver != nil {
			p.cfg.OnDeliver(m.Stream, it.Seq, it.Payload)
		}
	}
	if changed {
		p.announce(m.Stream, st.contigUpTo, ids.Nil)
	}
}

func (p *Peer) onAnnounce(from ids.NodeID, m wire.TagAnnounce) {
	st := p.stream(m.Stream)
	if m.UpTo > st.remoteUpTo {
		st.remoteUpTo = m.UpTo
		p.announce(m.Stream, m.UpTo, from)
	}
}

// ---------------------------------------------------------------- joining

func (p *Peer) onJoinRequest(from ids.NodeID) {
	if !p.isSource {
		return
	}
	// Hand out the current tail and append the joiner to the list.
	p.env.Send(from, wire.TagJoinAccept{Accept: false, Pred: p.tail})
	p.tail = from
}

func (p *Peer) onWalk(from ids.NodeID, m wire.TagWalk) {
	accept := p.children.Len() < p.cfg.MaxChildren || p.isSource
	if accept {
		p.children.Add(m.Joiner)
		p.env.Send(from, wire.TagJoinAccept{Accept: true, Pred: p.pred, Pred2: p.pred2})
		return
	}
	p.env.Send(from, wire.TagJoinAccept{Accept: false, Pred: p.pred})
}

func (p *Peer) onJoinAccept(from ids.NodeID, m wire.TagJoinAccept) {
	switch p.phase {
	case walkTail:
		// The source handed us the old tail: that is our list predecessor
		// and the first parent candidate.
		p.pred = m.Pred
		p.phase = walkProbing
		if p.pred == ids.Nil || p.pred == p.env.ID() {
			// Degenerate: we are the first joiner; attach to the source.
			p.walkTarget = p.cfg.Source
		} else {
			p.walkTarget = p.pred
		}
		p.sendTo(p.walkTarget, wire.TagWalk{Joiner: p.env.ID()})

	case walkProbing:
		if from != p.walkTarget {
			return
		}
		if from == p.pred {
			p.pred2 = m.Pred // first candidate is our pred: learn its pred
		}
		p.walkSeen = append(p.walkSeen, from)
		if m.Accept {
			p.finishJoin(from)
			return
		}
		next := m.Pred
		if next == ids.Nil || next == p.env.ID() {
			next = p.cfg.Source // walk exhausted: the source always accepts
		}
		p.walkTarget = next
		p.sendTo(next, wire.TagWalk{Joiner: p.env.ID()})
	}
}

func (p *Peer) finishJoin(parent ids.NodeID) {
	p.parent = parent
	p.phase = walkIdle
	p.walkTarget = ids.Nil
	if !p.settled {
		p.settled = true
		p.settleDur = p.env.Now().Sub(p.joinStarted)
	}
	if !p.parentLostAt.IsZero() {
		d := p.env.Now().Sub(p.parentLostAt)
		if p.repairHard {
			p.metrics.HardRejoins++
		} else {
			p.metrics.SoftRepairs++
		}
		if p.cfg.OnRepair != nil {
			p.cfg.OnRepair(p.repairHard, d)
		}
		p.parentLostAt = time.Time{}
		p.repairHard = false
	}
	// Pick gossip partners from the nodes seen during the traversal.
	p.adoptGossipPeers()
	// Tell our list predecessor about us so 2-hop knowledge propagates.
	p.broadcastLinks()
	// Release connections to traversal nodes we keep no role with.
	for _, seen := range p.walkSeen {
		if !p.keepsConn(seen) {
			p.env.Close(seen)
		}
	}
	p.walkSeen = nil
}

func (p *Peer) adoptGossipPeers() {
	candidates := make([]ids.NodeID, 0, len(p.walkSeen)+2)
	add := func(id ids.NodeID) {
		if id != ids.Nil && id != p.env.ID() && !ids.Contains(candidates, id) {
			candidates = append(candidates, id)
		}
	}
	for _, s := range p.walkSeen {
		add(s)
	}
	add(p.pred)
	add(p.pred2)
	p.env.Rand().Shuffle(len(candidates), func(i, j int) {
		candidates[i], candidates[j] = candidates[j], candidates[i]
	})
	if len(candidates) > p.cfg.GossipPeers {
		candidates = candidates[:p.cfg.GossipPeers]
	}
	p.gossip = candidates
}

func (p *Peer) keepsConn(id ids.NodeID) bool {
	return id == p.parent || id == p.pred || id == p.succ ||
		ids.Contains(p.gossip, id) || p.children.Has(id)
}

// broadcastLinks sends our link state to the list neighbors so they can
// maintain their 2-hop knowledge.
func (p *Peer) broadcastLinks() {
	msg := wire.TagLinkUpdate{Pred: p.pred, Pred2: p.pred2, Succ: p.succ, Succ2: p.succ2}
	if p.pred != ids.Nil {
		p.sendTo(p.pred, msg)
	}
	if p.succ != ids.Nil {
		p.sendTo(p.succ, msg)
	}
}

func (p *Peer) onLinkUpdate(from ids.NodeID, m wire.TagLinkUpdate) {
	changed := false
	if m.Pred == p.env.ID() {
		// The sender is our successor.
		if p.succ != from {
			p.succ, changed = from, true
		}
		if p.succ2 != m.Succ {
			p.succ2 = m.Succ
		}
	}
	if m.Succ == p.env.ID() {
		// The sender is our predecessor.
		if p.pred != from {
			p.pred, changed = from, true
		}
		if p.pred2 != m.Pred {
			p.pred2 = m.Pred
		}
	}
	if from == p.succ && m.Pred == p.env.ID() {
		p.succ2 = m.Succ
	}
	if from == p.pred && m.Succ == p.env.ID() {
		p.pred2 = m.Pred
	}
	if changed {
		p.broadcastLinks()
	}
}

// ---------------------------------------------------------------- failure

// ConnDown implements node.Proto: the paper's TAG repairs the list with the
// 2-hop knowledge and re-inserts through the source when the list is broken
// by two consecutive failures.
func (p *Peer) ConnDown(peer ids.NodeID, err error) {
	// Drop any queued messages for the dead peer.
	kept := p.outbox[:0]
	for _, q := range p.outbox {
		if q.to != peer {
			kept = append(kept, q)
		}
	}
	p.outbox = kept

	p.children.Remove(peer)
	p.gossip = ids.Remove(p.gossip, peer)

	if peer == p.pred {
		p.pred, p.pred2 = p.pred2, ids.Nil
		if p.pred != ids.Nil {
			p.broadcastLinks()
		}
	}
	if peer == p.succ {
		p.succ, p.succ2 = p.succ2, ids.Nil
		if p.succ != ids.Nil {
			p.broadcastLinks()
		}
	}

	if peer == p.parent {
		p.parent = ids.Nil
		if p.parentLostAt.IsZero() {
			p.parentLostAt = p.env.Now()
		}
		p.recoverParent()
		return
	}
	if p.phase == walkProbing && peer == p.walkTarget {
		// The walk candidate died mid-traversal: restart through the
		// source.
		p.hardRejoin()
	}
}

func (p *Peer) recoverParent() {
	if p.pred != ids.Nil {
		// Soft: traverse backwards from our predecessor.
		p.repairHard = false
		p.phase = walkProbing
		p.walkTarget = p.pred
		p.sendTo(p.pred, wire.TagWalk{Joiner: p.env.ID()})
		return
	}
	p.hardRejoin()
}

// hardRejoin re-inserts the node through the source (the broken-list case).
func (p *Peer) hardRejoin() {
	p.repairHard = true
	p.phase = walkTail
	p.walkTarget = ids.Nil
	p.sendTo(p.cfg.Source, wire.TagJoinRequest{})
}

// ---------------------------------------------------------------- plumbing

// Receive implements node.Proto.
func (p *Peer) Receive(from ids.NodeID, m wire.Message) {
	switch msg := m.(type) {
	case wire.TagJoinRequest:
		p.onJoinRequest(from)
	case wire.TagWalk:
		p.onWalk(from, msg)
	case wire.TagJoinAccept:
		p.onJoinAccept(from, msg)
	case wire.TagLinkUpdate:
		p.onLinkUpdate(from, msg)
	case wire.TagPull:
		p.onPull(from, msg)
	case wire.TagPullReply:
		p.onPullReply(msg)
	case wire.TagAnnounce:
		p.onAnnounce(from, msg)
	}
}

func (p *Peer) sendTo(to ids.NodeID, m wire.Message) {
	if to == p.env.ID() || to == ids.Nil {
		return
	}
	if p.env.Connected(to) {
		p.env.Send(to, m)
		return
	}
	p.outbox = append(p.outbox, queued{to: to, m: m})
	p.env.Connect(to)
}

// ConnUp implements node.Proto.
func (p *Peer) ConnUp(peer ids.NodeID) {
	kept := p.outbox[:0]
	for _, q := range p.outbox {
		if q.to == peer {
			p.env.Send(peer, q.m)
		} else {
			kept = append(kept, q)
		}
	}
	p.outbox = kept
}
