package main

import (
	"bufio"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/hyparview"
	"repro/internal/ids"
	"repro/internal/node"
	"repro/internal/wire"
)

// Layers a traced rep attributes time to. A span is one call across a layer
// boundary seen from outside the program: the runtime calling into a
// protocol (recv, timer, conn) or a protocol calling into the runtime (send).
const (
	layerCore  = iota // core.Receive: data relay, deactivation, repair
	layerHPV          // hyparview.Receive: membership, keep-alives, shuffles
	layerTimer        // Env.After callbacks of either protocol (they share one Env)
	layerConn         // Start, ConnUp, ConnDown
	layerSend         // Env.Send: simnet scheduling or livenet encode+write+flush
	numLayers
)

var layerNames = [numLayers]string{"core", "hyparview", "proto", "proto", "net"}
var layerOps = [numLayers]string{"recv", "recv", "timer", "conn", "send"}

// sampleEvery keeps the spans of one data sequence number in this many;
// call counters cover every call.
const sampleEvery = 100

// timeShift sets how many callbacks are timed: one in 2^timeShift, picked
// pseudo-randomly per node, plus every sampled one. Two clock reads around
// each callback and each send cost a simulated event of 2 us some 15 %; at
// one in eight the traced rep stays within a tenth of the untraced one, and
// with 10^5 calls per layer the estimate loses nothing that matters.
const timeShift = 3

// layerCount is one layer's counters on one node: calls, how many of them
// were timed, and the timed calls' span time and self time (span time minus
// the child spans inside it), in nanoseconds.
type layerCount struct {
	calls, timed uint64
	total, self  int64
}

// scaled extrapolates the timed calls' times to all calls.
func (c layerCount) scaled() layerCount {
	if c.timed > 0 {
		f := float64(c.calls) / float64(c.timed)
		c.total, c.self = int64(float64(c.total)*f), int64(float64(c.self)*f)
	}
	return c
}

// span is one sampled call. Parent is the span that caused it: the enclosing
// recv for a send, the sender's send for a recv on the next node. Spans of
// one message share req = (stream, seq).
type span struct {
	ID     uint64        `json:"id"`
	Parent uint64        `json:"parent,omitempty"`
	Layer  string        `json:"layer"`
	Op     string        `json:"op"`
	Node   string        `json:"node"`
	Start  int64         `json:"start_ns"`
	End    int64         `json:"end_ns"`
	Self   int64         `json:"self_ns"`
	Stream wire.StreamID `json:"stream"`
	Seq    uint32        `json:"seq"`
}

// interval is a half-open [start, end) stretch of the tracer clock.
type interval struct{ start, end int64 }

// selfTime is a span's duration minus the part of it its child spans cover:
// children are clipped to the span and overlapping children count once.
func selfTime(sp interval, children []interval) int64 {
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < sp.start {
			c.start = sp.start
		}
		if c.end > sp.end {
			c.end = sp.end
		}
		if c.end > c.start {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
	covered, edge := int64(0), sp.start
	for _, c := range cs {
		if c.start > edge {
			edge = c.start
		}
		if c.end > edge {
			covered += c.end - edge
			edge = c.end
		}
	}
	return sp.end - sp.start - covered
}

type hopKey struct {
	from, to ids.NodeID
	stream   wire.StreamID
	seq      uint32
}

type hopMark struct {
	span  uint64
	start int64
}

// tracer is the shared state of one traced rep. Per-call accounting lives on
// each node's shim (single-threaded, like the actor it wraps); only sampled
// sends cross nodes, through the mutex-guarded hops table.
type tracer struct {
	base      time.Time
	kindLayer [256]uint8
	wallHops  bool // live runs: time send entry -> recv entry across nodes

	mu    sync.Mutex
	hops  map[hopKey]hopMark
	shims []*shim
}

func newTracer(wallHops bool) *tracer {
	t := &tracer{base: time.Now(), wallHops: wallHops, hops: make(map[hopKey]hopMark)}
	for i := range t.kindLayer {
		t.kindLayer[i] = layerCore
	}
	for _, k := range hyparview.Kinds() {
		t.kindLayer[k] = layerHPV
	}
	for _, k := range core.Kinds() {
		t.kindLayer[k] = layerCore
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// wrap returns the shim to register with a runtime in place of h.
func (t *tracer) wrap(id ids.NodeID, h node.Handler) *shim {
	s := &shim{t: t, inner: h, id: id}
	t.mu.Lock()
	s.idBase = uint64(len(t.shims)+1) << 32
	t.shims = append(t.shims, s)
	t.mu.Unlock()
	return s
}

// totals sums the per-node counters, unscaled. Call once the traced nodes
// are quiescent (simulation returned, live nodes closed).
func (t *tracer) totals() (counts [numLayers]layerCount, hops hist) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.shims {
		for l := range counts {
			counts[l].calls += s.counts[l].calls
			counts[l].timed += s.counts[l].timed
			counts[l].total += s.counts[l].total
			counts[l].self += s.counts[l].self
		}
		hops.merge(&s.hops)
	}
	return counts, hops
}

// countsSince is now minus base, the timed calls' times scaled to all calls.
func countsSince(now, base [numLayers]layerCount) [numLayers]layerCount {
	for l := range now {
		now[l].calls -= base[l].calls
		now[l].timed -= base[l].timed
		now[l].total -= base[l].total
		now[l].self -= base[l].self
		now[l] = now[l].scaled()
	}
	return now
}

// addLayerSamples reports the protocol layers' counters and the runtime's
// send counters, the latter under the runtime's name (simnet or livenet).
func addLayerSamples(s samples, c [numLayers]layerCount, runtime string) {
	s.add("core.recv_self_s", float64(c[layerCore].self)/1e9)
	s.add("core.recv_calls", float64(c[layerCore].calls))
	s.add("core.recv_ns_per_call", float64(c[layerCore].self)/float64(c[layerCore].calls))
	s.add("hyparview.recv_self_s", float64(c[layerHPV].self)/1e9)
	s.add("hyparview.recv_calls", float64(c[layerHPV].calls))
	s.add("proto.timer_self_s", float64(c[layerTimer].self)/1e9)
	s.add("proto.timer_calls", float64(c[layerTimer].calls))
	s.add(runtime+".send_self_s", float64(c[layerSend].self)/1e9)
	s.add(runtime+".send_calls", float64(c[layerSend].calls))
}

// busyNS is the time spent inside handler callbacks (sends included, since
// they run inside a callback).
func busyNS(c [numLayers]layerCount) int64 {
	return c[layerCore].total + c[layerHPV].total + c[layerTimer].total + c[layerConn].total
}

// writeSpans writes the sampled spans as JSON lines, self time filled in
// from each span's recorded children.
func (t *tracer) writeSpans(path string) (int, error) {
	t.mu.Lock()
	var all []span
	for _, s := range t.shims {
		all = append(all, s.spans...)
	}
	t.mu.Unlock()
	children := make(map[uint64][]interval)
	for _, sp := range all {
		// A recv's parent is a send on another node: it caused the recv
		// but does not enclose it, so it takes nothing off the send's time.
		if sp.Parent != 0 && sp.Op == "send" {
			children[sp.Parent] = append(children[sp.Parent], interval{sp.Start, sp.End})
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range all {
		sp := &all[i]
		sp.Self = selfTime(interval{sp.Start, sp.End}, children[sp.ID])
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return 0, err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return 0, err
	}
	return len(all), f.Close()
}

// shim sits between a runtime and one node's protocol stack: it is the
// node.Handler the runtime calls and the node.Env the protocols call back.
// All of it runs on the node's actor, so its state needs no locking.
type shim struct {
	t     *tracer
	inner node.Handler
	env   node.Env
	id    ids.NodeID

	counts [numLayers]layerCount
	rnd    uint32 // picks the callbacks to time
	timing bool   // the callback in progress is timed, so its sends are too
	child  int64  // time spent in child spans of the callback in progress
	hops   hist

	// Sampling state: the sampled callback in progress, if any.
	idBase, nextID uint64
	cur            uint64
	curStream      wire.StreamID
	curSeq         uint32
	spans          []span
}

func (s *shim) newID() uint64 {
	s.nextID++
	return s.idBase | s.nextID
}

// pick decides whether the callback about to run is timed.
func (s *shim) pick() bool {
	s.rnd = s.rnd*1664525 + 1013904223
	return s.rnd>>(32-timeShift) == 0
}

// call runs one handler callback as a span of the given layer.
func (s *shim) call(layer int, fn func()) {
	c := &s.counts[layer]
	c.calls++
	if !s.pick() {
		fn()
		return
	}
	s.timing, s.child = true, 0
	start := s.t.now()
	fn()
	d := s.t.now() - start
	s.timing = false
	c.timed++
	c.total += d
	c.self += d - s.child
}

// Start implements node.Handler.
func (s *shim) Start(env node.Env) {
	s.env = env
	s.call(layerConn, func() { s.inner.Start(s) })
}

// Receive implements node.Handler.
func (s *shim) Receive(from ids.NodeID, m wire.Message) {
	layer := int(s.t.kindLayer[m.Kind()])
	c := &s.counts[layer]
	c.calls++
	if d, ok := m.(wire.Data); ok && d.Seq%sampleEvery == 0 {
		s.cur, s.curStream, s.curSeq = s.newID(), d.Stream, d.Seq
	} else if !s.pick() {
		s.inner.Receive(from, m)
		return
	}
	s.timing, s.child = true, 0
	start := s.t.now()
	s.inner.Receive(from, m)
	end := s.t.now()
	s.timing = false
	c.timed++
	c.total += end - start
	c.self += end - start - s.child
	if s.cur != 0 {
		sp := span{ID: s.cur, Layer: layerNames[layer], Op: layerOps[layer], Node: s.id.String(),
			Start: start, End: end, Stream: s.curStream, Seq: s.curSeq}
		key := hopKey{from, s.id, s.curStream, s.curSeq}
		s.t.mu.Lock()
		if mark, ok := s.t.hops[key]; ok {
			delete(s.t.hops, key)
			sp.Parent = mark.span
			if s.t.wallHops {
				s.hops.add(start - mark.start)
			}
		}
		s.t.mu.Unlock()
		s.spans = append(s.spans, sp)
		s.cur = 0
	}
}

// ConnUp implements node.Handler.
func (s *shim) ConnUp(peer ids.NodeID) {
	s.call(layerConn, func() { s.inner.ConnUp(peer) })
}

// ConnDown implements node.Handler.
func (s *shim) ConnDown(peer ids.NodeID, err error) {
	s.call(layerConn, func() { s.inner.ConnDown(peer, err) })
}

// Stop implements node.Handler.
func (s *shim) Stop() { s.inner.Stop() }

// Send implements node.Env: the one child span protocols open. It is timed
// when the callback it runs in is, and when it carries a sampled message.
func (s *shim) Send(to ids.NodeID, m wire.Message) {
	c := &s.counts[layerSend]
	c.calls++
	dm, sampled := m.(wire.Data)
	sampled = sampled && dm.Seq%sampleEvery == 0
	if !sampled && !s.timing {
		s.env.Send(to, m)
		return
	}
	start := s.t.now()
	var id uint64
	if sampled {
		// Registered before the send: a live receiver can be in Receive
		// before Send returns here.
		id = s.newID()
		s.t.mu.Lock()
		s.t.hops[hopKey{s.id, to, dm.Stream, dm.Seq}] = hopMark{id, start}
		s.t.mu.Unlock()
	}
	s.env.Send(to, m)
	end := s.t.now()
	d := end - start
	c.timed++
	c.total += d
	c.self += d
	s.child += d
	if sampled {
		s.spans = append(s.spans, span{ID: id, Parent: s.cur, Layer: layerNames[layerSend], Op: layerOps[layerSend],
			Node: s.id.String(), Start: start, End: end, Stream: dm.Stream, Seq: dm.Seq})
	}
}

// After implements node.Env: the callback becomes a timer span.
func (s *shim) After(d time.Duration, fn func()) node.Timer {
	return s.env.After(d, func() { s.call(layerTimer, fn) })
}

func (s *shim) ID() ids.NodeID                 { return s.env.ID() }
func (s *shim) Now() time.Time                 { return s.env.Now() }
func (s *shim) Rand() *rand.Rand               { return s.env.Rand() }
func (s *shim) Connect(to ids.NodeID)          { s.env.Connect(to) }
func (s *shim) Close(to ids.NodeID)            { s.env.Close(to) }
func (s *shim) Connected(to ids.NodeID) bool   { return s.env.Connected(to) }
func (s *shim) Log(format string, args ...any) { s.env.Log(format, args...) }

var (
	_ node.Handler = (*shim)(nil)
	_ node.Env     = (*shim)(nil)
)
