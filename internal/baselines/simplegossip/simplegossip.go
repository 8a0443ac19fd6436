// Package simplegossip implements the paper's robustness-end baseline
// (§III-D(a)): Cyclon as the PSS, push rumor mongering with an
// infect-and-die policy and fanout ln(N) for bulk dissemination, and a
// periodic anti-entropy pull against one random node to guarantee
// completeness. The anti-entropy frequency is double the message creation
// rate, as specified in the paper.
package simplegossip

import (
	"math"
	"time"

	"repro/internal/cyclon"
	"repro/internal/ids"
	"repro/internal/node"
	"repro/internal/wire"
)

// Config tunes one peer.
type Config struct {
	// Fanout is the rumor push fanout; the paper uses ln(N).
	Fanout int
	// AntiEntropyPeriod is the pull period (paper: half the message
	// creation interval, i.e. double the frequency).
	AntiEntropyPeriod time.Duration
	// Cyclon configures the underlying PSS.
	Cyclon cyclon.Config
	// OnDeliver receives every newly delivered payload.
	OnDeliver func(stream wire.StreamID, seq uint32, payload []byte)
}

// FanoutFor returns the paper's fanout for a network of n nodes: ceil(ln n).
func FanoutFor(n int) int {
	if n < 2 {
		return 1
	}
	return int(math.Ceil(math.Log(float64(n))))
}

// Metrics counts per-peer activity.
type Metrics struct {
	Delivered        uint64
	Duplicates       uint64
	RumorsSent       uint64
	AntiEntropyAsks  uint64
	AntiEntropyItems uint64
}

// streamState tracks one stream at one peer.
type streamState struct {
	started    bool
	base       uint32
	contigUpTo uint32
	sparse     map[uint32]struct{}
	payloads   map[uint32][]byte // full buffer: anti-entropy must serve any seq
	nextSeq    uint32
}

func newStreamState() *streamState {
	return &streamState{
		sparse:   make(map[uint32]struct{}),
		payloads: make(map[uint32][]byte),
	}
}

func (s *streamState) delivered(seq uint32) bool {
	if !s.started {
		return false
	}
	if seq < s.base || seq < s.contigUpTo {
		return true
	}
	_, ok := s.sparse[seq]
	return ok
}

func (s *streamState) mark(seq uint32, payload []byte) {
	if !s.started {
		s.started = true
		// Anti-entropy guarantees completeness over the whole stream
		// (§III-D(a)), so the baseline is always sequence 1: holes before
		// the first rumor a node happened to catch are chased too.
		s.base = 1
		s.contigUpTo = 1
	}
	s.sparse[seq] = struct{}{}
	s.payloads[seq] = payload
	for {
		if _, ok := s.sparse[s.contigUpTo]; !ok {
			break
		}
		delete(s.sparse, s.contigUpTo)
		s.contigUpTo++
	}
}

func (s *streamState) missingBelow(limit int) []uint32 {
	out := make([]uint32, 0, 8)
	// Sparse deliveries above contigUpTo imply holes below them; list the
	// holes between contigUpTo and the highest sparse seq.
	var hi uint32
	for seq := range s.sparse {
		if seq > hi {
			hi = seq
		}
	}
	for seq := s.contigUpTo; seq < hi && len(out) < limit; seq++ {
		if _, ok := s.sparse[seq]; !ok {
			out = append(out, seq)
		}
	}
	return out
}

// Peer is one SimpleGossip node: Cyclon + rumor mongering + anti-entropy.
type Peer struct {
	node.BaseProto
	cfg     Config
	env     node.Env
	pss     *cyclon.Protocol
	streams map[wire.StreamID]*streamState
	outbox  []queued
	metrics Metrics
	stopped bool
	timer   node.Timer
}

type queued struct {
	to ids.NodeID
	m  wire.Message
}

// New builds a peer and its Cyclon instance.
func New(cfg Config) *Peer {
	if cfg.Fanout <= 0 {
		cfg.Fanout = 6
	}
	if cfg.AntiEntropyPeriod <= 0 {
		cfg.AntiEntropyPeriod = 100 * time.Millisecond
	}
	if cfg.Cyclon.ViewSize == 0 {
		cfg.Cyclon = cyclon.DefaultConfig()
	}
	return &Peer{
		cfg:     cfg,
		pss:     cyclon.New(cfg.Cyclon),
		streams: make(map[wire.StreamID]*streamState),
	}
}

// Now returns the node's own clock — the one instrumentation callbacks must
// read: under the sharded simulator the network-level clock is only valid at
// barriers.
func (p *Peer) Now() time.Time { return p.env.Now() }

// Handler returns the actor to register with a runtime: the Cyclon layer
// and the gossip layer on one mux.
func (p *Peer) Handler() node.Handler {
	mux := node.NewMux()
	mux.Register(p.pss, cyclon.Kinds()...)
	mux.Register(p, wire.KindRumor, wire.KindAntiEntropyRequest, wire.KindAntiEntropyReply)
	return mux
}

// Join seeds the Cyclon view.
func (p *Peer) Join(contact ids.NodeID) { p.pss.Join(contact) }

// Metrics returns the peer's counters.
func (p *Peer) Metrics() Metrics { return p.metrics }

// View exposes the Cyclon view (tests).
func (p *Peer) View() []ids.NodeID { return p.pss.View() }

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
	delay := time.Duration(env.Rand().Int63n(int64(p.cfg.AntiEntropyPeriod)))
	p.timer = env.After(p.cfg.AntiEntropyPeriod+delay, p.antiEntropyTick)
}

// Stop implements node.Proto.
func (p *Peer) Stop() {
	p.stopped = true
	if p.timer != nil {
		p.timer.Stop()
	}
}

func (p *Peer) stream(id wire.StreamID) *streamState {
	st, ok := p.streams[id]
	if !ok {
		st = newStreamState()
		p.streams[id] = st
	}
	return st
}

// Publish injects the next message of a stream this peer sources.
func (p *Peer) Publish(id wire.StreamID, payload []byte) uint32 {
	st := p.stream(id)
	if st.nextSeq == 0 {
		st.nextSeq = 1
	}
	seq := st.nextSeq
	st.nextSeq++
	st.mark(seq, payload)
	p.metrics.Delivered++
	p.push(id, seq, payload, ids.Nil)
	return seq
}

// push sends a rumor to Fanout random view members (infect and die: this is
// called exactly once per message per node).
func (p *Peer) push(id wire.StreamID, seq uint32, payload []byte, except ids.NodeID) {
	targets := p.pss.Sample(p.cfg.Fanout + 1)
	sent := 0
	msg := wire.Rumor{Stream: id, Seq: seq, Payload: payload}
	for _, t := range targets {
		if t == except || sent >= p.cfg.Fanout {
			continue
		}
		p.sendTo(t, msg)
		p.metrics.RumorsSent++
		sent++
	}
}

func (p *Peer) antiEntropyTick() {
	if p.stopped {
		return
	}
	defer func() { p.timer = p.env.After(p.cfg.AntiEntropyPeriod, p.antiEntropyTick) }()
	view := p.pss.Sample(1)
	if len(view) == 0 {
		return
	}
	target := view[0]
	for id, st := range p.streams {
		if !st.started {
			continue
		}
		p.metrics.AntiEntropyAsks++
		p.sendTo(target, wire.AntiEntropyRequest{
			Stream:  id,
			UpTo:    st.contigUpTo,
			Missing: st.missingBelow(64),
		})
	}
}

// Receive implements node.Proto.
func (p *Peer) Receive(from ids.NodeID, m wire.Message) {
	switch msg := m.(type) {
	case wire.Rumor:
		p.onRumor(from, msg)
	case wire.AntiEntropyRequest:
		p.onAERequest(from, msg)
	case wire.AntiEntropyReply:
		p.onAEReply(from, msg)
	}
}

func (p *Peer) onRumor(from ids.NodeID, m wire.Rumor) {
	st := p.stream(m.Stream)
	if st.delivered(m.Seq) {
		p.metrics.Duplicates++
		return // infect and die: duplicates are dropped silently
	}
	st.mark(m.Seq, m.Payload)
	p.metrics.Delivered++
	if p.cfg.OnDeliver != nil {
		p.cfg.OnDeliver(m.Stream, m.Seq, m.Payload)
	}
	p.push(m.Stream, m.Seq, m.Payload, from)
}

func (p *Peer) onAERequest(from ids.NodeID, m wire.AntiEntropyRequest) {
	st := p.stream(m.Stream)
	var items []wire.StreamItem
	// Serve the explicitly missing seqs first, then anything at or above
	// the requester's contiguous mark.
	for _, seq := range m.Missing {
		if payload, ok := st.payloads[seq]; ok {
			items = append(items, wire.StreamItem{Seq: seq, Payload: payload})
		}
	}
	for seq := m.UpTo; len(items) < 64; seq++ {
		payload, ok := st.payloads[seq]
		if !ok {
			break
		}
		items = append(items, wire.StreamItem{Seq: seq, Payload: payload})
	}
	if len(items) == 0 {
		return
	}
	p.metrics.AntiEntropyItems += uint64(len(items))
	p.sendTo(from, wire.AntiEntropyReply{Stream: m.Stream, Items: items})
}

func (p *Peer) onAEReply(from ids.NodeID, m wire.AntiEntropyReply) {
	st := p.stream(m.Stream)
	for _, it := range m.Items {
		if st.delivered(it.Seq) {
			p.metrics.Duplicates++
			continue
		}
		st.mark(it.Seq, it.Payload)
		p.metrics.Delivered++
		if p.cfg.OnDeliver != nil {
			p.cfg.OnDeliver(m.Stream, it.Seq, it.Payload)
		}
		// Recovered messages are not pushed further: anti-entropy heals
		// locally; rumor mongering already seeded the epidemic.
	}
}

// sendTo delivers over an existing or freshly dialed connection.
func (p *Peer) sendTo(to ids.NodeID, m wire.Message) {
	if to == p.env.ID() {
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

// ConnDown implements node.Proto.
func (p *Peer) ConnDown(peer ids.NodeID, err error) {
	kept := p.outbox[:0]
	for _, q := range p.outbox {
		if q.to != peer {
			kept = append(kept, q)
		}
	}
	p.outbox = kept
}
