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

	"repro/internal/baselines/kit"
	"repro/internal/core"
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

type walkPhase int

const (
	walkIdle    walkPhase = iota
	walkTail              // waiting for the source's tail pointer
	walkProbing           // waiting for a TagJoinAccept from walkTarget
)

// Peer is one TAG node. Every stream buffers all of its payloads: a pull may
// ask for any sequence.
type Peer struct {
	kit.Base
	cfg Config

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

	// announced is the highest sequence a neighbor advertised per stream;
	// it gates pulls.
	announced map[wire.StreamID]uint32
	pullFlip  bool
	stopped   bool
	timer     node.Timer
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
		Base:      kit.Base{Buffer: true},
		cfg:       cfg,
		isSource:  self == cfg.Source,
		children:  ids.NewSet(),
		announced: make(map[wire.StreamID]uint32),
	}
}

// Handler returns the actor to register with a runtime.
func (p *Peer) Handler() *node.Mux {
	mux := node.NewMux()
	mux.Register(p, Kinds()...)
	return mux
}

// Parent returns the current tree parent (Nil for the source or while
// recovering).
func (p *Peer) Parent() ids.NodeID { return p.parent }

// Parents returns the tree parent as the harness's per-stream parent list;
// the one tree carries every stream.
func (p *Peer) Parents(wire.StreamID) []ids.NodeID { return kit.ParentList(p.parent) }

// IsOrphan reports whether the peer is without a tree parent: still joining,
// or recovering from its parent's death.
func (p *Peer) IsOrphan(wire.StreamID) bool { return !p.isSource && p.parent == ids.Nil }

// Children returns the current children, ascending.
func (p *Peer) Children() []ids.NodeID { return p.children.Snapshot() }

// SettleTime returns how long the join traversal took (the paper's Figure 13
// construction-time metric for TAG: "the time since a node joins the list
// until it settles its position").
func (p *Peer) SettleTime() (time.Duration, bool) { return p.settleDur, p.settled }

// ConstructionTime is SettleTime under the name the harness reads; the
// source, which joins nothing, has none.
func (p *Peer) ConstructionTime(wire.StreamID) (time.Duration, bool) {
	return p.settleDur, p.settled && !p.isSource
}

// Start implements node.Proto.
func (p *Peer) Start(env node.Env) {
	p.Env = env
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

// Join starts the insertion: ask the source for the tail, then traverse. The
// source is the only way in, so the harness's contact is not used, and a
// node that is walking or has settled ignores a repeated call (the harness's
// bootstrap retry): repairs are the protocol's own business.
func (p *Peer) Join(ids.NodeID) {
	if p.isSource || p.phase != walkIdle || p.settled {
		return
	}
	p.joinStarted = p.Env.Now()
	p.phase = walkTail
	p.SendTo(p.cfg.Source, wire.TagJoinRequest{})
}

// Publish injects the next message at the source. Children learn about it
// via the relayed announcement and fetch it with their next pull.
func (p *Peer) Publish(id wire.StreamID, payload []byte) uint32 {
	st := p.Stream(id)
	seq := p.Originate(st, payload)
	p.announce(id, st.UpTo, ids.Nil)
	return seq
}

func (p *Peer) announce(id wire.StreamID, upTo uint32, except ids.NodeID) {
	msg := wire.TagAnnounce{Stream: id, UpTo: upTo}
	for _, c := range p.children.Snapshot() {
		if c != except {
			p.Env.Send(c, msg)
		}
	}
	for _, g := range p.gossip {
		if g != except {
			p.SendTo(g, msg)
		}
	}
}

// ---------------------------------------------------------------- pulling

func (p *Peer) pullTick() {
	if p.stopped {
		return
	}
	defer func() { p.timer = p.Env.After(p.cfg.PullPeriod, p.pullTick) }()
	// Alternate between the tree parent and one random gossip partner
	// ("pulling content both from the tree and from gossip neighbors").
	p.pullFlip = !p.pullFlip
	target := p.parent
	if p.pullFlip || target == ids.Nil {
		if len(p.gossip) > 0 {
			target = p.gossip[p.Env.Rand().Intn(len(p.gossip))]
		}
	}
	if target == ids.Nil {
		return
	}
	for _, st := range p.Streams() {
		remote := p.announced[st.ID]
		if !st.Started && remote == 0 {
			continue
		}
		if remote <= st.UpTo && !st.Gaps() && st.Started {
			continue // nothing new announced
		}
		p.SendTo(target, wire.TagPull{Stream: st.ID, UpTo: st.UpTo, Missing: st.Missing(16)})
	}
}

func (p *Peer) onPull(from ids.NodeID, m wire.TagPull) {
	st := p.Stream(m.Stream)
	var items []wire.StreamItem
	for _, seq := range m.Missing {
		if len(items) >= p.cfg.MaxItemsPerPull {
			break
		}
		if payload, ok := st.Payload(seq); ok {
			items = append(items, wire.StreamItem{Seq: seq, Payload: payload})
		}
	}
	start := m.UpTo
	if !st.Started || start < st.Base {
		start = st.Base
	}
	for seq := start; len(items) < p.cfg.MaxItemsPerPull; seq++ {
		payload, ok := st.Payload(seq)
		if !ok {
			break
		}
		items = append(items, wire.StreamItem{Seq: seq, Payload: payload})
	}
	if len(items) == 0 {
		return
	}
	p.Env.Send(from, wire.TagPullReply{Stream: m.Stream, Items: items})
}

func (p *Peer) onPullReply(from ids.NodeID, m wire.TagPullReply) {
	st := p.Stream(m.Stream)
	changed := false
	for _, it := range m.Items {
		if p.Deliver(st, from, it.Seq, it.Payload) {
			changed = true
		}
	}
	if changed {
		p.announce(m.Stream, st.UpTo, ids.Nil)
	}
}

func (p *Peer) onAnnounce(from ids.NodeID, m wire.TagAnnounce) {
	p.Stream(m.Stream) // pullTick walks the streams the peer has state for
	if m.UpTo > p.announced[m.Stream] {
		p.announced[m.Stream] = m.UpTo
		p.announce(m.Stream, m.UpTo, from)
	}
}

// ---------------------------------------------------------------- joining

func (p *Peer) onJoinRequest(from ids.NodeID) {
	if !p.isSource {
		return
	}
	// Hand out the current tail and append the joiner to the list.
	p.Env.Send(from, wire.TagJoinAccept{Accept: false, Pred: p.tail})
	p.tail = from
}

func (p *Peer) onWalk(from ids.NodeID, m wire.TagWalk) {
	accept := p.children.Len() < p.cfg.MaxChildren || p.isSource
	if accept {
		p.children.Add(m.Joiner)
		p.Env.Send(from, wire.TagJoinAccept{Accept: true, Pred: p.pred, Pred2: p.pred2})
		return
	}
	p.Env.Send(from, wire.TagJoinAccept{Accept: false, Pred: p.pred})
}

func (p *Peer) onJoinAccept(from ids.NodeID, m wire.TagJoinAccept) {
	switch p.phase {
	case walkTail:
		// The source handed us the old tail: that is our list predecessor
		// and the first parent candidate.
		p.pred = m.Pred
		p.phase = walkProbing
		if p.pred == ids.Nil || p.pred == p.Env.ID() {
			// Degenerate: we are the first joiner; attach to the source.
			p.walkTarget = p.cfg.Source
		} else {
			p.walkTarget = p.pred
		}
		p.SendTo(p.walkTarget, wire.TagWalk{Joiner: p.Env.ID()})

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
		if next == ids.Nil || next == p.Env.ID() {
			next = p.cfg.Source // walk exhausted: the source always accepts
		}
		p.walkTarget = next
		p.SendTo(next, wire.TagWalk{Joiner: p.Env.ID()})
	}
}

func (p *Peer) finishJoin(parent ids.NodeID) {
	p.parent = parent
	p.phase = walkIdle
	p.walkTarget = ids.Nil
	if !p.settled {
		p.settled = true
		p.settleDur = p.Env.Now().Sub(p.joinStarted)
	}
	if !p.parentLostAt.IsZero() {
		if p.repairHard {
			p.M.HardRepairs++
		} else {
			p.M.SoftRepairs++
		}
		// A completed parent recovery; Hard marks the list-broken case where
		// the node re-inserted through the source.
		p.Emit(core.Event{Type: core.EvRepaired, Peer: parent, Hard: p.repairHard, Dur: p.Env.Now().Sub(p.parentLostAt)})
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
			p.Env.Close(seen)
		}
	}
	p.walkSeen = nil
}

func (p *Peer) adoptGossipPeers() {
	candidates := make([]ids.NodeID, 0, len(p.walkSeen)+2)
	add := func(id ids.NodeID) {
		if id != ids.Nil && id != p.Env.ID() && !ids.Contains(candidates, id) {
			candidates = append(candidates, id)
		}
	}
	for _, s := range p.walkSeen {
		add(s)
	}
	add(p.pred)
	add(p.pred2)
	p.Env.Rand().Shuffle(len(candidates), func(i, j int) {
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
		p.SendTo(p.pred, msg)
	}
	if p.succ != ids.Nil {
		p.SendTo(p.succ, msg)
	}
}

func (p *Peer) onLinkUpdate(from ids.NodeID, m wire.TagLinkUpdate) {
	changed := false
	if m.Pred == p.Env.ID() {
		// The sender is our successor.
		if p.succ != from {
			p.succ, changed = from, true
		}
		if p.succ2 != m.Succ {
			p.succ2 = m.Succ
		}
	}
	if m.Succ == p.Env.ID() {
		// The sender is our predecessor.
		if p.pred != from {
			p.pred, changed = from, true
		}
		if p.pred2 != m.Pred {
			p.pred2 = m.Pred
		}
	}
	if from == p.succ && m.Pred == p.Env.ID() {
		p.succ2 = m.Succ
	}
	if from == p.pred && m.Succ == p.Env.ID() {
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
	p.Base.ConnDown(peer, err)

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
		p.M.ParentsLost++
		p.M.Orphans++
		if p.parentLostAt.IsZero() {
			p.parentLostAt = p.Env.Now()
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
		p.SendTo(p.pred, wire.TagWalk{Joiner: p.Env.ID()})
		return
	}
	p.hardRejoin()
}

// hardRejoin re-inserts the node through the source (the broken-list case).
func (p *Peer) hardRejoin() {
	p.repairHard = true
	p.phase = walkTail
	p.walkTarget = ids.Nil
	p.SendTo(p.cfg.Source, wire.TagJoinRequest{})
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
		p.onPullReply(from, msg)
	case wire.TagAnnounce:
		p.onAnnounce(from, msg)
	}
}
