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

	"repro/internal/baselines/kit"
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
}

// FanoutFor returns the paper's fanout for a network of n nodes: ceil(ln n).
func FanoutFor(n int) int {
	if n < 2 {
		return 1
	}
	return int(math.Ceil(math.Log(float64(n))))
}

// Peer is one SimpleGossip node: Cyclon + rumor mongering + anti-entropy.
// Every stream buffers all of its payloads: anti-entropy must serve any seq.
type Peer struct {
	kit.Base
	cfg     Config
	pss     *cyclon.Protocol
	stopped bool
	timer   node.Timer
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
		Base: kit.Base{Buffer: true},
		cfg:  cfg,
		pss:  cyclon.New(cfg.Cyclon),
	}
}

// Handler returns the actor to register with a runtime: the Cyclon layer
// and the gossip layer on one mux.
func (p *Peer) Handler() *node.Mux {
	mux := node.NewMux()
	mux.Register(p.pss, cyclon.Kinds()...)
	mux.Register(p, wire.KindRumor, wire.KindAntiEntropyRequest, wire.KindAntiEntropyReply)
	return mux
}

// Join seeds the Cyclon view.
func (p *Peer) Join(contact ids.NodeID) { p.pss.Join(contact) }

// View exposes the Cyclon view (tests).
func (p *Peer) View() []ids.NodeID { return p.pss.View() }

// Parents, IsOrphan and ConstructionTime answer the harness's structure
// questions: gossip builds no structure, so there is nothing to hold, lose or
// construct.
func (p *Peer) Parents(wire.StreamID) []ids.NodeID { return nil }

// IsOrphan is always false; see Parents.
func (p *Peer) IsOrphan(wire.StreamID) bool { return false }

// ConstructionTime is never available; see Parents.
func (p *Peer) ConstructionTime(wire.StreamID) (time.Duration, bool) { return 0, false }

// Start implements node.Proto.
func (p *Peer) Start(env node.Env) {
	p.Env = env
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

// stream returns a stream's window, pinned at sequence 1: anti-entropy
// guarantees completeness over the whole stream (§III-D(a)), so holes before
// the first rumor a node happened to catch are chased too.
func (p *Peer) stream(id wire.StreamID) *kit.Stream {
	st := p.Stream(id)
	st.StartAt(1)
	return st
}

// Publish injects the next message of a stream this peer sources.
func (p *Peer) Publish(id wire.StreamID, payload []byte) uint32 {
	seq := p.Originate(p.stream(id), payload)
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
		p.SendTo(t, msg)
		sent++
	}
}

func (p *Peer) antiEntropyTick() {
	if p.stopped {
		return
	}
	defer func() { p.timer = p.Env.After(p.cfg.AntiEntropyPeriod, p.antiEntropyTick) }()
	view := p.pss.Sample(1)
	if len(view) == 0 {
		return
	}
	for _, st := range p.Streams() {
		if !st.Started {
			continue // only asked about so far, nothing received
		}
		p.SendTo(view[0], wire.AntiEntropyRequest{
			Stream:  st.ID,
			UpTo:    st.UpTo,
			Missing: st.Missing(64),
		})
	}
}

// Receive implements node.Proto.
func (p *Peer) Receive(from ids.NodeID, m wire.Message) {
	switch msg := m.(type) {
	case wire.Rumor:
		// Infect and die: a duplicate is dropped, a first reception pushed on.
		if p.Deliver(p.stream(msg.Stream), from, msg.Seq, msg.Payload) {
			p.push(msg.Stream, msg.Seq, msg.Payload, from)
		}
	case wire.AntiEntropyRequest:
		p.onAERequest(from, msg)
	case wire.AntiEntropyReply:
		// Recovered messages are not pushed further: anti-entropy heals
		// locally; rumor mongering already seeded the epidemic.
		st := p.stream(msg.Stream)
		for _, it := range msg.Items {
			p.Deliver(st, from, it.Seq, it.Payload)
		}
	}
}

func (p *Peer) onAERequest(from ids.NodeID, m wire.AntiEntropyRequest) {
	st := p.Stream(m.Stream)
	var items []wire.StreamItem
	// Serve the explicitly missing seqs first, then anything at or above
	// the requester's contiguous mark.
	for _, seq := range m.Missing {
		if payload, ok := st.Payload(seq); ok {
			items = append(items, wire.StreamItem{Seq: seq, Payload: payload})
		}
	}
	for seq := m.UpTo; len(items) < 64; seq++ {
		payload, ok := st.Payload(seq)
		if !ok {
			break
		}
		items = append(items, wire.StreamItem{Seq: seq, Payload: payload})
	}
	if len(items) == 0 {
		return
	}
	p.SendTo(from, wire.AntiEntropyReply{Stream: m.Stream, Items: items})
}
