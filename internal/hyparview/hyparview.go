// Package hyparview implements the HyParView membership protocol (Leitão,
// Pereira, Rodrigues — DSN 2007) as specified in §II-A of the BRISA paper:
// a small symmetric *active view* of monitored TCP connections exposed to
// the application, and a larger *passive view* refreshed by shuffles and
// used to replace failed active entries.
//
// BRISA-specific behaviour reproduced here:
//   - the expansion factor: the active view may grow to
//     ceil(ActiveSize×ExpansionFactor); evictions only trigger passive-view
//     promotion when the view drops below the target size;
//   - keep-alives measure per-neighbor RTT (used by the delay-aware parent
//     selection strategy) and carry an opaque piggyback blob for the upper
//     layer (used by BRISA soft repair).
//
// A keep-alive is one-way. The active view is symmetric, so each link
// already carries one heartbeat each way per period; nobody answers one.
// The round trip is closed by echo, as TCP's timestamp option does: a
// heartbeat hands the neighbor's last SentAt back, advanced by the time this
// node held it, and the neighbor's clock minus that echo is one RTT sample
// per neighbor per period. A neighbor this node has not heard a heartbeat
// from for MissLimit periods is closed, whether it died or merely does not
// list this node.
package hyparview

import (
	"cmp"
	"math"
	"slices"
	"time"

	"repro/internal/ids"
	"repro/internal/node"
	"repro/internal/wire"
)

// Config tunes the protocol. The zero value is unusable; call
// DefaultConfig and override.
type Config struct {
	// ActiveSize is the target active view size (the paper's "view size").
	ActiveSize int
	// ExpansionFactor lets the active view grow to
	// ceil(ActiveSize*ExpansionFactor) before forced evictions (§II-A; the
	// paper uses 2 in the evaluation, 1 for the Figure 8 tree drawings).
	ExpansionFactor float64
	// PassiveSize caps the passive view.
	PassiveSize int
	// ARWL and PRWL are the active and passive random-walk lengths for
	// ForwardJoin propagation.
	ARWL, PRWL uint8
	// ShufflePeriod is the passive-view exchange period; Ka and Kp are the
	// active and passive sample sizes included in a shuffle; ShuffleTTL is
	// the shuffle walk length.
	ShufflePeriod time.Duration
	Ka, Kp        int
	ShuffleTTL    uint8
	// KeepAlivePeriod is the heartbeat period on active connections;
	// MissLimit periods without hearing the neighbor's heartbeat declare it
	// failed. MissLimit periods is also the longest RTT sample believed.
	KeepAlivePeriod time.Duration
	MissLimit       int

	// Callbacks into the upper layer (BRISA). All optional.
	OnNeighborUp   func(peer ids.NodeID)
	OnNeighborDown func(peer ids.NodeID)
	// Piggyback, when set, supplies the opaque upper-layer state attached
	// to each keep-alive; OnPiggyback delivers the peer's blob.
	Piggyback   func() []byte
	OnPiggyback func(peer ids.NodeID, blob []byte)
}

// DefaultConfig returns the configuration used throughout the paper's
// evaluation unless an experiment overrides it.
func DefaultConfig() Config {
	return Config{
		ActiveSize:      4,
		ExpansionFactor: 2,
		PassiveSize:     24,
		ARWL:            6,
		PRWL:            3,
		ShufflePeriod:   5 * time.Second,
		Ka:              3,
		Kp:              4,
		ShuffleTTL:      3,
		KeepAlivePeriod: 1 * time.Second,
		MissLimit:       3,
	}
}

// Metrics counts protocol activity for the evaluation harness.
type Metrics struct {
	JoinsHandled     uint64
	ForwardJoins     uint64
	Evictions        uint64
	Promotions       uint64
	PromotionRejects uint64
	Shuffles         uint64
	NeighborFailures uint64
	KeepAlivesMissed uint64
}

type dialKind int

const (
	dialNone     dialKind = iota
	dialJoin              // send Join when up
	dialNeighbor          // send NeighborRequest when up (forward-join accept / promotion)
	dialTemp              // flush queued one-shot messages, peer closes
)

type dial struct {
	kind     dialKind
	priority bool // for dialNeighbor
	queued   []wire.Message
	started  time.Time
}

// neighbor is one active-view entry, held by value in Protocol.view. An
// entry is parked (connected false) from the moment a neighbour dial
// completes until the peer's NeighborReply accepts it; a parked entry
// counts against the cap but is not in Active. heardAt and peerSentAt are
// what the next heartbeat echoes: this node's clock when the peer's last
// heartbeat arrived and the SentAt it carried, both in nanoseconds.
// peerSentAt is 0 when there is nothing to echo: no heartbeat yet, or the
// last one's timestamp already went back. missed is an int32 so that a
// record packs into 40 bytes.
type neighbor struct {
	id         ids.NodeID
	rtt        time.Duration
	heardAt    int64
	peerSentAt int64
	missed     int32
	connected  bool
}

// Protocol is one node's HyParView instance. It implements node.Proto; all
// methods run on the node's actor loop.
//
// The active view is view, ascending by id. Only insert adds to it and only
// drop removes from it; up, the ids of its connected entries in the same
// order, changes only in connect and drop, and is what Active returns.
type Protocol struct {
	node.BaseProto
	cfg     Config
	env     node.Env
	view    []neighbor
	up      []ids.NodeID
	passive *ids.Set
	dials   map[ids.NodeID]*dial
	// promotionInFlight guards against issuing a storm of parallel
	// NeighborRequests after one failure.
	promotionInFlight bool
	stopped           bool
	metrics           Metrics
	kaTimer           node.Timer
	shuffleTimer      node.Timer
	kaTickFn          func()
	shuffleTickFn     func()
	// scratch is a reused buffer for the random draws over a filtered
	// view (walk next hops, passive-view evictions and promotions).
	scratch []ids.NodeID
}

// Kinds returns the wire kinds this protocol owns, for Mux registration.
func Kinds() []wire.Kind {
	return []wire.Kind{
		wire.KindJoin, wire.KindForwardJoin, wire.KindDisconnect,
		wire.KindNeighborRequest, wire.KindNeighborReply,
		wire.KindShuffle, wire.KindShuffleReply,
		wire.KindKeepAlive,
	}
}

// New builds a Protocol with the given configuration.
func New(cfg Config) *Protocol {
	if cfg.ActiveSize <= 0 {
		panic("hyparview: ActiveSize must be positive")
	}
	if cfg.ExpansionFactor < 1 {
		cfg.ExpansionFactor = 1
	}
	return &Protocol{
		cfg:     cfg,
		passive: ids.NewSet(),
		dials:   make(map[ids.NodeID]*dial),
	}
}

// maxActive is the hard cap: target size times expansion factor.
func (p *Protocol) maxActive() int {
	return int(math.Ceil(float64(p.cfg.ActiveSize) * p.cfg.ExpansionFactor))
}

// Start implements node.Proto.
func (p *Protocol) Start(env node.Env) {
	p.env = env
	p.kaTickFn = p.keepAliveTick
	p.shuffleTickFn = p.shuffleTick
	p.scheduleKeepAlive()
	p.scheduleShuffle()
}

// Stop implements node.Proto.
func (p *Protocol) Stop() {
	p.stopped = true
	if p.kaTimer != nil {
		p.kaTimer.Stop()
	}
	if p.shuffleTimer != nil {
		p.shuffleTimer.Stop()
	}
}

// Metrics returns a snapshot of the protocol counters.
func (p *Protocol) Metrics() Metrics { return p.metrics }

// Join bootstraps this node into the overlay via the given contact.
func (p *Protocol) Join(contact ids.NodeID) {
	if contact == p.env.ID() {
		return
	}
	p.openDial(contact, dial{kind: dialJoin})
}

// Active returns the connected active-view members, ascending. The returned
// slice is owned by the protocol and changes in place with the view:
// callers iterate it (or copy it) but must not mutate or retain it.
func (p *Protocol) Active() []ids.NodeID { return p.up }

// ActiveContains reports whether peer is a connected active neighbor.
func (p *Protocol) ActiveContains(peer ids.NodeID) bool {
	nb := p.lookup(peer)
	return nb != nil && nb.connected
}

// Passive returns the passive view, ascending.
func (p *Protocol) Passive() []ids.NodeID { return p.passive.Snapshot() }

// RTT returns the last measured round-trip time to an active neighbor, or 0
// if unknown.
func (p *Protocol) RTT(peer ids.NodeID) time.Duration {
	if nb := p.lookup(peer); nb != nil {
		return nb.rtt
	}
	return 0
}

// ---------------------------------------------------------------- view ops

func byID(nb neighbor, id ids.NodeID) int { return cmp.Compare(nb.id, id) }

// find returns peer's index in the view, or where it would be inserted.
func (p *Protocol) find(peer ids.NodeID) (int, bool) {
	return slices.BinarySearchFunc(p.view, peer, byID)
}

// lookup returns peer's view entry, or nil. The pointer is valid until the
// next insert or drop.
func (p *Protocol) lookup(peer ids.NodeID) *neighbor {
	if i, ok := p.find(peer); ok {
		return &p.view[i]
	}
	return nil
}

// insert is the one way into the view: it enters peer, which must not be in
// it, as a parked entry with the given RTT, first evicting random members
// while the view is at its hard cap. The views stay disjoint: a peer
// entering the active view leaves the passive one.
func (p *Protocol) insert(peer ids.NodeID, rtt time.Duration) {
	for len(p.view) >= p.maxActive() {
		p.evictRandom()
	}
	p.passive.Remove(peer)
	i, _ := p.find(peer)
	p.view = slices.Insert(p.view, i, neighbor{id: peer, rtt: rtt})
}

// connect flips peer's parked entry to connected and tells the upper
// layer. It does nothing for a peer that is not parked.
func (p *Protocol) connect(peer ids.NodeID) {
	nb := p.lookup(peer)
	if nb == nil || nb.connected {
		return
	}
	nb.connected = true
	i, _ := slices.BinarySearch(p.up, peer)
	p.up = slices.Insert(p.up, i, peer)
	p.notifyUp(peer)
}

// drop is the one way out of the view: it removes peer's entry and returns
// it; ok is false if peer was not in the view. Telling the upper layer is
// the caller's, since each caller orders it among its own sends.
func (p *Protocol) drop(peer ids.NodeID) (nb neighbor, ok bool) {
	i, ok := p.find(peer)
	if !ok {
		return neighbor{}, false
	}
	nb = p.view[i]
	p.view = slices.Delete(p.view, i, i+1)
	if nb.connected {
		j, _ := slices.BinarySearch(p.up, peer)
		p.up = slices.Delete(p.up, j, j+1)
	}
	return nb, true
}

// addActive records peer as an active neighbor whose connection is already
// established, entering it into the view if it is not there yet.
func (p *Protocol) addActive(peer ids.NodeID) {
	if peer == p.env.ID() || peer == ids.Nil {
		return
	}
	if _, ok := p.find(peer); !ok {
		p.insert(peer, 0)
	}
	p.connect(peer)
}

// openDial records why peer is being dialed and dials it.
func (p *Protocol) openDial(peer ids.NodeID, d dial) {
	d.started = p.env.Now()
	p.dials[peer] = &d
	p.env.Connect(peer)
}

// startActiveDial begins adding a peer we are not connected to yet.
func (p *Protocol) startActiveDial(peer ids.NodeID, priority bool) {
	if peer == p.env.ID() || peer == ids.Nil {
		return
	}
	if _, ok := p.find(peer); ok {
		return
	}
	if _, ok := p.dials[peer]; ok {
		return
	}
	p.openDial(peer, dial{kind: dialNeighbor, priority: priority})
}

// evictRandom drops a random active member to make room. A connected one
// is told via Disconnect (the receiver closes the connection).
func (p *Protocol) evictRandom() {
	victim, _ := p.drop(p.view[p.env.Rand().Intn(len(p.view))].id)
	p.metrics.Evictions++
	if victim.connected {
		p.env.Send(victim.id, wire.Disconnect{})
		p.notifyDown(victim.id)
	} else {
		// Pending handshake: just tear the connection down.
		p.env.Close(victim.id)
	}
	p.addPassive(victim.id)
}

// removeActive drops peer from the active view (already-disconnected path)
// and promotes a replacement if the view fell below target.
func (p *Protocol) removeActive(peer ids.NodeID, addToPassive bool) {
	nb, ok := p.drop(peer)
	if !ok {
		return
	}
	if nb.connected {
		p.notifyDown(peer)
	}
	if addToPassive {
		p.addPassive(peer)
	}
	p.maybePromote()
}

func (p *Protocol) addPassive(peer ids.NodeID) {
	if peer == p.env.ID() || peer == ids.Nil {
		return
	}
	if _, inActive := p.find(peer); inActive {
		return
	}
	if p.passive.Has(peer) {
		return
	}
	for p.passive.Len() >= p.cfg.PassiveSize {
		snap := p.passive.AppendSorted(p.scratch[:0])
		p.passive.Remove(snap[p.env.Rand().Intn(len(snap))])
		p.scratch = snap[:0]
	}
	p.passive.Add(peer)
}

// maybePromote starts one passive-view promotion if the active view is below
// target (the expansion-factor rule: no replacement while the view is
// between target and target×expansion).
func (p *Protocol) maybePromote() {
	if p.stopped || p.promotionInFlight || len(p.view) >= p.cfg.ActiveSize {
		return
	}
	candidates := p.passive.AppendSorted(p.scratch[:0])
	p.scratch = candidates[:0]
	// Filter out nodes we are already dialing.
	filtered := candidates[:0]
	for _, c := range candidates {
		if _, dialing := p.dials[c]; !dialing {
			filtered = append(filtered, c)
		}
	}
	if len(filtered) == 0 {
		return
	}
	pick := filtered[p.env.Rand().Intn(len(filtered))]
	p.promotionInFlight = true
	p.passive.Remove(pick)
	p.openDial(pick, dial{kind: dialNeighbor, priority: len(p.up) == 0})
	p.metrics.Promotions++
}

func (p *Protocol) notifyUp(peer ids.NodeID) {
	if p.cfg.OnNeighborUp != nil {
		p.cfg.OnNeighborUp(peer)
	}
}

func (p *Protocol) notifyDown(peer ids.NodeID) {
	if p.cfg.OnNeighborDown != nil {
		p.cfg.OnNeighborDown(peer)
	}
}

// ---------------------------------------------------------------- conn events

// ConnUp implements node.Proto.
func (p *Protocol) ConnUp(peer ids.NodeID) {
	d, ok := p.dials[peer]
	if !ok {
		// Inbound connection: intent arrives as the peer's first message.
		return
	}
	delete(p.dials, peer)
	rtt := p.env.Now().Sub(d.started)
	switch d.kind {
	case dialJoin:
		p.env.Send(peer, wire.Join{})
		p.addActive(peer)
		if nb := p.lookup(peer); nb != nil {
			nb.rtt = rtt
		}
	case dialNeighbor:
		p.env.Send(peer, wire.NeighborRequest{Priority: d.priority})
		// Membership is confirmed by NeighborReply; park the peer so the
		// RTT survives. A peer that joined inbound while the dial was out
		// is already in the view and keeps its entry.
		if _, ok := p.find(peer); !ok {
			p.insert(peer, rtt)
		}
	case dialTemp:
		for _, m := range d.queued {
			p.env.Send(peer, m)
		}
		// The receiver closes temp connections once it has consumed the
		// messages; nothing more to do here.
	}
}

// ConnDown implements node.Proto.
func (p *Protocol) ConnDown(peer ids.NodeID, err error) {
	if d, ok := p.dials[peer]; ok {
		delete(p.dials, peer)
		if d.kind == dialNeighbor {
			p.promotionInFlight = false
			p.passive.Remove(peer) // it is unreachable; drop it
			p.maybePromote()
		}
		return
	}
	if _, ok := p.find(peer); ok {
		p.metrics.NeighborFailures++
		p.removeActive(peer, false) // failed: do not keep in passive
	}
}

// ---------------------------------------------------------------- messages

// Receive implements node.Proto.
func (p *Protocol) Receive(from ids.NodeID, m wire.Message) {
	switch msg := m.(type) {
	case wire.Join:
		p.onJoin(from)
	case wire.ForwardJoin:
		p.onForwardJoin(from, msg)
	case wire.Disconnect:
		p.onDisconnect(from)
	case wire.NeighborRequest:
		p.onNeighborRequest(from, msg)
	case wire.NeighborReply:
		p.onNeighborReply(from, msg)
	case wire.Shuffle:
		p.onShuffle(from, msg)
	case wire.ShuffleReply:
		p.onShuffleReply(from, msg)
	case wire.KeepAlive:
		p.onKeepAlive(from, msg)
	case *wire.KeepAlive: // as keepAliveTick sends it; decoders return the value
		p.onKeepAlive(from, *msg)
	}
}

func (p *Protocol) onJoin(from ids.NodeID) {
	p.metrics.JoinsHandled++
	p.addActive(from)
	var fj wire.Message = wire.ForwardJoin{Joiner: from, TTL: p.cfg.ARWL}
	for _, peer := range p.Active() {
		if peer != from {
			p.env.Send(peer, fj)
		}
	}
}

func (p *Protocol) onForwardJoin(from ids.NodeID, m wire.ForwardJoin) {
	p.metrics.ForwardJoins++
	joiner := m.Joiner
	if joiner == p.env.ID() {
		return
	}
	if m.TTL == 0 || len(p.up) <= 1 {
		p.startActiveDial(joiner, true)
		return
	}
	if m.TTL == p.cfg.PRWL {
		p.addPassive(joiner)
	}
	next, ok := p.nextHop(from, joiner)
	if !ok {
		p.startActiveDial(joiner, true)
		return
	}
	p.env.Send(next, wire.ForwardJoin{Joiner: joiner, TTL: m.TTL - 1})
}

// nextHop draws the next step of a random walk: a connected neighbour other
// than a and b. ok is false when there is none.
func (p *Protocol) nextHop(a, b ids.NodeID) (next ids.NodeID, ok bool) {
	candidates := p.scratch[:0]
	for _, peer := range p.up {
		if peer != a && peer != b {
			candidates = append(candidates, peer)
		}
	}
	p.scratch = candidates
	if len(candidates) == 0 {
		return ids.Nil, false
	}
	return candidates[p.env.Rand().Intn(len(candidates))], true
}

func (p *Protocol) onDisconnect(from ids.NodeID) {
	// The evicting side keeps the link usable until we close it, so the
	// Disconnect itself is always delivered.
	p.env.Close(from)
	p.removeActive(from, true)
}

func (p *Protocol) onNeighborRequest(from ids.NodeID, m wire.NeighborRequest) {
	accept := m.Priority || len(p.view) < p.maxActive()
	p.env.Send(from, wire.NeighborReply{Accept: accept})
	if accept {
		p.addActive(from)
	} else {
		p.addPassive(from)
		// The requester closes the connection on reject.
	}
}

func (p *Protocol) onNeighborReply(from ids.NodeID, m wire.NeighborReply) {
	p.promotionInFlight = false
	// Only a parked entry awaits this reply; a peer that joined inbound
	// meanwhile is a neighbour whatever it answers.
	if nb := p.lookup(from); nb == nil || nb.connected {
		return
	}
	if m.Accept {
		p.connect(from)
	} else {
		p.drop(from)
		p.env.Close(from)
		p.metrics.PromotionRejects++
		p.addPassive(from) // keep it around; it was alive, just full
		p.maybePromote()
	}
}

// ---------------------------------------------------------------- shuffles

func (p *Protocol) scheduleShuffle() {
	if p.cfg.ShufflePeriod <= 0 {
		return
	}
	// Jitter the first shuffle to avoid lock-step rounds across the network.
	delay := p.cfg.ShufflePeriod/2 + time.Duration(p.env.Rand().Int63n(int64(p.cfg.ShufflePeriod)))
	p.shuffleTimer = p.env.After(delay, p.shuffleTickFn)
}

func (p *Protocol) shuffleTick() {
	if p.stopped {
		return
	}
	defer func() {
		p.shuffleTimer = p.env.After(p.cfg.ShufflePeriod, p.shuffleTickFn)
	}()
	active := p.Active()
	if len(active) == 0 {
		return
	}
	target := active[p.env.Rand().Intn(len(active))]
	sample := p.shuffleSample(target)
	p.metrics.Shuffles++
	p.env.Send(target, wire.Shuffle{Origin: p.env.ID(), TTL: p.cfg.ShuffleTTL, Nodes: sample})
}

// shuffleSample builds self + Ka active + Kp passive, excluding the target.
// Both views are picked from inside the one slice it sends.
func (p *Protocol) shuffleSample(exclude ids.NodeID) []ids.NodeID {
	active := p.Active()
	sample := make([]ids.NodeID, 1, 1+len(active)+p.passive.Len())
	sample[0] = p.env.ID()
	sample = pickRandom(append(sample, active...), 1, p.cfg.Ka, exclude, p.env)
	return pickRandom(p.passive.AppendSorted(sample), len(sample), p.cfg.Kp, exclude, p.env)
}

func (p *Protocol) onShuffle(from ids.NodeID, m wire.Shuffle) {
	ttl := m.TTL
	if ttl > 0 {
		ttl--
	}
	if ttl > 0 && len(p.up) > 1 {
		if next, ok := p.nextHop(from, m.Origin); ok {
			p.env.Send(next, wire.Shuffle{Origin: m.Origin, TTL: ttl, Nodes: m.Nodes})
			return
		}
	}
	// Terminal node: integrate and reply with our own passive sample.
	reply := wire.ShuffleReply{Nodes: pickRandom(p.Passive(), 0, len(m.Nodes), m.Origin, p.env)}
	p.integrate(m.Nodes)
	if m.Origin == p.env.ID() {
		return
	}
	if p.env.Connected(m.Origin) {
		p.env.Send(m.Origin, reply)
		return
	}
	p.tempSend(m.Origin, reply)
}

func (p *Protocol) onShuffleReply(from ids.NodeID, m wire.ShuffleReply) {
	p.integrate(m.Nodes)
	// If the reply arrived on a temporary connection, close it; the remote
	// side treats the ConnDown as expected.
	if _, isActive := p.find(from); !isActive {
		if _, dialing := p.dials[from]; !dialing {
			p.env.Close(from)
		}
	}
}

func (p *Protocol) integrate(nodes []ids.NodeID) {
	for _, id := range nodes {
		p.addPassive(id)
	}
}

// tempSend opens a short-lived connection, flushes msgs, and relies on the
// receiver to close it.
func (p *Protocol) tempSend(to ids.NodeID, msgs ...wire.Message) {
	if d, ok := p.dials[to]; ok {
		if d.kind == dialTemp {
			d.queued = append(d.queued, msgs...)
		}
		return
	}
	p.openDial(to, dial{kind: dialTemp, queued: msgs})
}

// ---------------------------------------------------------------- keepalive

func (p *Protocol) scheduleKeepAlive() {
	if p.cfg.KeepAlivePeriod <= 0 {
		return
	}
	delay := p.cfg.KeepAlivePeriod/2 + time.Duration(p.env.Rand().Int63n(int64(p.cfg.KeepAlivePeriod)))
	p.kaTimer = p.env.After(delay, p.kaTickFn)
}

func (p *Protocol) keepAliveTick() {
	if p.stopped {
		return
	}
	defer func() {
		p.kaTimer = p.env.After(p.cfg.KeepAlivePeriod, p.kaTickFn)
	}()
	var blob []byte
	if p.cfg.Piggyback != nil {
		blob = p.cfg.Piggyback()
	}
	now := p.env.Now().UnixNano()
	// One slab per round boxes every heartbeat: each neighbour gets a
	// pointer to its own element. The slab is new each round because a sent
	// message is read-only from Send on (node.Env.Send) and the simulator
	// may still hold last round's pointers on another shard.
	kas := make([]wire.KeepAlive, 0, len(p.up))
	// The walk is in id order: each Send draws from the shared RNG stream
	// (latency sampling on the simulator), so the send order must be the
	// same in every run for a seed to reproduce a run.
	for i := 0; i < len(p.view); i++ {
		nb := &p.view[i]
		if !nb.connected {
			continue
		}
		nb.missed++
		if int(nb.missed) > p.cfg.MissLimit {
			// The transport failure detector usually beats this, but a
			// silently wedged peer, or one that does not list this node
			// and so sends it nothing, is declared dead here.
			id := nb.id
			p.metrics.KeepAlivesMissed++
			p.env.Close(id)
			p.removeActive(id, false)
			i, _ = p.find(id)
			i-- // resume at the first member above id
			continue
		}
		kas = append(kas, wire.KeepAlive{SentAt: now, Piggyback: blob})
		ka := &kas[len(kas)-1]
		if nb.peerSentAt != 0 {
			ka.Echo = nb.peerSentAt + (now - nb.heardAt)
			nb.peerSentAt = 0 // an echo is spent once
		}
		p.env.Send(nb.id, ka)
	}
}

func (p *Protocol) onKeepAlive(from ids.NodeID, m wire.KeepAlive) {
	if p.cfg.OnPiggyback != nil && m.Piggyback != nil {
		p.cfg.OnPiggyback(from, m.Piggyback)
	}
	nb := p.lookup(from)
	if nb == nil {
		return
	}
	now := p.env.Now().UnixNano()
	nb.missed = 0
	nb.heardAt, nb.peerSentAt = now, m.SentAt
	if m.Echo == 0 {
		return
	}
	// The sample comes off the network: a stale, hostile or wrapped echo
	// must not reach the estimate the delay-aware strategy ranks parents by.
	sample := time.Duration(now - m.Echo)
	if sample <= 0 || sample > time.Duration(p.cfg.MissLimit)*p.cfg.KeepAlivePeriod {
		return
	}
	if nb.rtt <= 0 {
		nb.rtt = sample
	} else {
		// EWMA smoothing: one queued keep-alive must not make a good
		// link look bad to the delay-aware strategy.
		nb.rtt = (nb.rtt*3 + sample) / 4
	}
}

// pickRandom keeps up to n distinct random elements of s[from:], never
// exclude, and returns s[:from] followed by them. It filters and shuffles in
// place, drawing exactly as a shuffle of a filtered copy would.
func pickRandom(s []ids.NodeID, from, n int, exclude ids.NodeID, env node.Env) []ids.NodeID {
	kept := s[:from]
	for _, id := range s[from:] {
		if id != exclude {
			kept = append(kept, id)
		}
	}
	picked := kept[from:]
	if n >= len(picked) {
		return kept
	}
	env.Rand().Shuffle(len(picked), func(i, j int) {
		picked[i], picked[j] = picked[j], picked[i]
	})
	return kept[:from+n]
}
