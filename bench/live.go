package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	brisa "repro"
	"repro/internal/livenet"
)

// liveSpec sizes one live-overlay workload.
type liveSpec struct {
	nodes  int
	warmup int // messages published at warmupRate before any measurement
	// Closed loop (rate == 0): msgs per rep, published back to back with at
	// most inflight of them not yet delivered everywhere.
	msgs     int
	inflight int
	// Open loop (rate > 0): messages per second, for span per rep.
	rate int
	span time.Duration
}

const (
	liveStream = brisa.StreamID(1)
	warmupRate = 20 // msg/s: slow enough for the tree to emerge message by message
)

// liveNode is what the workloads need from a node: brisa.Node on untraced
// runs, tracedNode (the same stack behind a tracing shim) on traced ones.
type liveNode interface {
	Addr() string
	Join(contacts ...string) error
	Neighbors() []brisa.NodeID
	Publish(stream brisa.StreamID, payload []byte) uint32
	Metrics() brisa.Metrics
	Traffic() brisa.WireTraffic
	Close() error
}

// tracedNode assembles what brisa.Listen assembles, with the tracing shim
// between livenet and the peer's handler.
type tracedNode struct {
	ln   *livenet.Node
	peer *brisa.Peer
}

func listenTraced(cfg brisa.Config, tr *tracer) (*tracedNode, error) {
	ln, err := livenet.Listen(livenet.Config{Listen: "127.0.0.1:0"})
	if err != nil {
		return nil, err
	}
	peer, err := brisa.NewPeer(ln.ID(), cfg)
	if err == nil {
		err = ln.Run(tr.wrap(ln.ID(), peer.Handler()))
	}
	if err != nil {
		ln.Stop()
		return nil, err
	}
	return &tracedNode{ln: ln, peer: peer}, nil
}

func (n *tracedNode) Addr() string { return n.ln.Addr() }
func (n *tracedNode) Close() error { n.ln.Stop(); return nil }

func (n *tracedNode) Traffic() brisa.WireTraffic { return n.ln.Traffic() }

func (n *tracedNode) Neighbors() (out []brisa.NodeID) {
	n.ln.Call(func() { out = n.peer.Neighbors() })
	return out
}

func (n *tracedNode) Metrics() (out brisa.Metrics) {
	n.ln.Call(func() { out = n.peer.Metrics() })
	return out
}

func (n *tracedNode) Publish(stream brisa.StreamID, payload []byte) (seq uint32) {
	n.ln.Call(func() { seq = n.peer.Publish(stream, payload) })
	return seq
}

// Join follows brisa.Node.Join: try each contact in turn, up to five
// attempts, polling for an active neighbor for a second after each.
func (n *tracedNode) Join(contacts ...string) error {
	for attempt := 0; attempt < 5; attempt++ {
		contact, err := brisa.ParseNodeID(contacts[attempt%len(contacts)])
		if err != nil {
			return err
		}
		n.ln.Call(func() { n.peer.Join(contact) })
		for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
			if len(n.Neighbors()) > 0 {
				return nil
			}
		}
	}
	return fmt.Errorf("join via %v failed", contacts)
}

// receiver is the benchmark's own accounting at one node, fed by OnDeliver
// on the node's actor. n is bumped last, so a reader that has seen the
// expected count may read lat.
type receiver struct {
	lat hist
	bad atomic.Int64 // payloads that are not what was published
	n   atomic.Int64
}

// overlay is a live loopback overlay with the benchmark's receivers hooked in.
type overlay struct {
	nodes     []liveNode
	recv      []*receiver // recv[0], the source's, stays empty
	payload   []byte      // the published bytes; [0:8] is overwritten per message
	base      time.Time   // origin of the due times messages carry
	published int64
	tr        *tracer // non-nil on traced runs
}

func (o *overlay) now() int64 { return int64(time.Since(o.base)) }

func (o *overlay) close() {
	for _, n := range o.nodes {
		n.Close()
	}
}

// buildOverlay is the live set-up: listen, join through node 0 and the
// predecessor, wait until every node holds a neighbor, then the warm-up
// stream, awaited at every node. The warm-up is part of the workload's
// definition (see README: a cold start at high rate starves receivers).
func buildOverlay(sp liveSpec, seed int64, traced bool) (*overlay, error) {
	o := &overlay{base: time.Now(), payload: make([]byte, payloadSize)}
	rand.New(rand.NewSource(seed)).Read(o.payload)
	if traced {
		o.tr = newTracer(true)
	}
	ok := false
	defer func() {
		if !ok {
			o.close()
		}
	}()
	for i := 0; i < sp.nodes; i++ {
		r := &receiver{}
		cfg := brisa.Config{Mode: brisa.ModeTree, OnDeliver: func(_ brisa.StreamID, _ uint32, p []byte) {
			if len(p) != payloadSize || !bytes.Equal(p[8:], o.payload[8:]) {
				r.bad.Add(1)
			} else if due := int64(binary.LittleEndian.Uint64(p)); due != 0 {
				r.lat.add(o.now() - due)
			}
			r.n.Add(1)
		}}
		var n liveNode
		var err error
		if traced {
			n, err = listenTraced(cfg, o.tr)
		} else {
			n, err = brisa.Listen("127.0.0.1:0", cfg)
		}
		if err != nil {
			return nil, fmt.Errorf("node %d: %w", i, err)
		}
		o.nodes = append(o.nodes, n)
		o.recv = append(o.recv, r)
	}
	for i := 1; i < sp.nodes; i++ {
		contacts := []string{o.nodes[0].Addr()}
		if i > 1 {
			contacts = append(contacts, o.nodes[i-1].Addr())
		}
		if err := o.nodes[i].Join(contacts...); err != nil {
			return nil, fmt.Errorf("node %d: %w", i, err)
		}
	}
	// Readiness: every node holds a neighbor. HyParView can evict a node's
	// only neighbor while everyone joins through node 0, and an evicted node
	// with an empty passive view stays alone; it joins again, as a
	// deployment's bootstrap loop would have it do.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		ready := true
		for i, n := range o.nodes {
			if len(n.Neighbors()) > 0 {
				continue
			}
			ready = false
			if err := n.Join(o.nodes[(i+1)%sp.nodes].Addr()); err != nil {
				return nil, fmt.Errorf("node %d, found alone: %w", i, err)
			}
		}
		if ready {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("overlay not connected within 10s")
		}
	}
	for i := 0; i < sp.warmup; i++ {
		o.publish(0)
		time.Sleep(time.Second / warmupRate)
	}
	if err := o.await(10 * time.Second); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	ok = true
	return o, nil
}

// publish injects one message carrying its due time (0 marks a warm-up
// message, which receivers count but do not time).
func (o *overlay) publish(due int64) {
	p := make([]byte, payloadSize)
	copy(p, o.payload)
	binary.LittleEndian.PutUint64(p, uint64(due))
	o.nodes[0].Publish(liveStream, p)
	o.published++
}

// delivered is the smallest delivery count over the receivers.
func (o *overlay) delivered() int64 {
	least := o.published
	for _, r := range o.recv[1:] {
		least = min(least, r.n.Load())
	}
	return least
}

// await blocks until every receiver delivered everything published so far.
func (o *overlay) await(bound time.Duration) error {
	for deadline := time.Now().Add(bound); o.delivered() < o.published; time.Sleep(200 * time.Microsecond) {
		if time.Now().After(deadline) {
			return fmt.Errorf("%d of %d messages delivered everywhere after %v", o.delivered(), o.published, bound)
		}
	}
	return nil
}

// counters is a snapshot of everything a rep reports as a delta.
type counters struct {
	wall      time.Time
	cpu       float64
	mallocs   uint64
	bytesOut  uint64
	msgsOut   uint64
	delivered uint64
	dups      uint64
	gc        gcStats
}

func (o *overlay) snapshot() counters {
	c := counters{wall: time.Now(), cpu: cpuSeconds(), gc: readGCStats()}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs = ms.Mallocs
	for _, n := range o.nodes {
		t := n.Traffic()
		c.bytesOut += t.BytesOut
		c.msgsOut += t.MsgsOut
		m := n.Metrics()
		c.delivered += m.Delivered
		c.dups += m.Duplicates
	}
	return c
}

// liveRep runs one rep on the overlay: the closed loop publishes sp.msgs
// messages back to back; the open loop publishes at sp.rate for sp.window,
// each message due at its slot and timed from there. The rep ends when every
// receiver has everything. late records how far behind its schedule the
// generator ran; pub how long each Publish call took.
func (o *overlay) liveRep(sp liveSpec, late, pub *hist) (before, after counters, err error) {
	for _, r := range o.recv {
		r.lat.reset()
	}
	n := sp.msgs
	if sp.rate > 0 {
		n = int(sp.span.Seconds() * float64(sp.rate))
	}
	before = o.snapshot()
	t0 := o.now()
	for i := 0; i < n; i++ {
		due := o.now()
		if sp.rate == 0 {
			for o.published-o.delivered() >= int64(sp.inflight) {
				time.Sleep(100 * time.Microsecond) // not a spin: the generator must not eat a core
			}
			due = o.now()
		} else {
			due = t0 + int64(i)*int64(time.Second)/int64(sp.rate)
			for wait := due - o.now(); wait > 0; wait = due - o.now() {
				if wait > int64(100*time.Microsecond) {
					time.Sleep(time.Duration(wait) - 50*time.Microsecond)
				} else {
					runtime.Gosched()
				}
			}
			late.add(o.now() - due)
		}
		t := o.now()
		o.publish(due)
		pub.add(o.now() - t)
	}
	err = o.await(awaitBound)
	after = o.snapshot()
	return before, after, err
}

// liveAgg is what the reps of one overlay add up to beyond their samples.
type liveAgg struct {
	all, late, pub hist
	cost           []float64 // per rep: seconds per delivery, wall (closed loop) or CPU (open loop)
}

// reps runs reps on the overlay until the deadline (at least least of
// them), validating each and adding its samples to res.
func (o *overlay) reps(sp liveSpec, until time.Time, least int, res *runResult, opt runOpts) (*liveAgg, error) {
	agg := &liveAgg{}
	s := res.Samples
	receivers := uint64(len(o.nodes) - 1)
	start := time.Now()
	for n := 0; n < least || fits(start, n, until.Sub(start).Seconds()); n++ {
		stop := watchdog("live rep", repDeadline)
		before, after, err := o.liveRep(sp, &agg.late, &agg.pub)
		stop()
		if err != nil {
			return nil, err
		}
		res.Reps++
		var lat hist
		var bad int64
		for _, r := range o.recv {
			lat.merge(&r.lat)
			bad += r.bad.Load()
		}
		if bad > 0 {
			return nil, fmt.Errorf("payload: %d deliveries did not carry the published bytes", bad)
		}
		res.Attempted += int64(lat.n)
		if got := after.delivered - before.delivered - lat.n/receivers; got != lat.n {
			return nil, fmt.Errorf("Metrics.Delivered: the nodes report %d receptions, the benchmark counted %d", got, lat.n)
		}
		agg.all.merge(&lat)
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		wall := after.wall.Sub(before.wall).Seconds()
		cpu := after.cpu - before.cpu
		d := float64(lat.n)
		if sp.rate > 0 {
			agg.cost = append(agg.cost, cpu/d)
		} else {
			agg.cost = append(agg.cost, wall/d)
		}
		opt.logf("rep %d: %.3fs, %.0f msgs/s, cpu %.2fus/delivery, p50 %.3fms p90 %.3fms", res.Reps, wall,
			d/float64(receivers)/wall, cpu*1e6/d, lat.percentile(50)/1e6, lat.percentile(90)/1e6)

		s.add("cpu_us_per_delivery", cpu*1e6/d)
		s.add("lat_p50_ms", lat.percentile(50)/1e6)
		s.add("lat_p90_ms", lat.percentile(90)/1e6)
		s.add("allocs_per_delivery", float64(after.mallocs-before.mallocs)/d)
		s.add("heap_mb", float64(ms.HeapAlloc)/(1<<20))
		s.add("wire_bytes_per_delivery", float64(after.bytesOut-before.bytesOut)/d)
		s.add("wire_msgs_per_delivery", float64(after.msgsOut-before.msgsOut)/d)
		s.add("copies_per_delivery", 1+float64(after.dups-before.dups)/float64(after.delivered-before.delivered))
		s.add("run_s", wall)
		s.add("msgs_per_s", d/float64(receivers)/wall)
		s.add("dup_per_msg", float64(after.dups-before.dups)/d)
		s.add("livenet.wire_bytes_per_msg", float64(after.bytesOut-before.bytesOut)/float64(after.msgsOut-before.msgsOut))
		s.add("runtime.gc_cpu_share", after.gc.gcShareSince(before.gc))
		s.add("runtime.alloc_mb", float64(after.gc.allocBytes-before.gc.allocBytes)/(1<<20))
	}
	return agg, nil
}

// runLive is one run of a live workload: the set-up several times over (its
// time is a metric), then reps on the last overlay until the time is used.
// A traced run sets up twice: an untraced overlay whose reps are the base of
// the tracing overhead, then the traced one.
func runLive(name string, sp liveSpec, opt runOpts) (*runResult, error) {
	res := &runResult{Samples: samples{}}
	s := res.Samples
	start := time.Now()
	seconds, traced := opt.seconds, opt.traced
	setups := liveSetups
	if traced {
		seconds -= opt.microBudget().Seconds()
		setups = 2
	}
	until := func(share float64) time.Time {
		return start.Add(time.Duration(share * seconds * float64(time.Second)))
	}

	var o *overlay
	var base []float64
	for i := 0; i < setups; i++ {
		last := i == setups-1
		t0 := time.Now()
		stop := watchdog("live set-up", repDeadline)
		var err error
		o, err = buildOverlay(sp, opt.seed, traced && last)
		stop()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		defer o.close()
		s.add("setup_s", time.Since(t0).Seconds())
		opt.logf("set-up %d: %.3fs", i+1, time.Since(t0).Seconds())
		res.Attempted += int64(sp.warmup * (sp.nodes - 1))
		if last {
			break
		}
		if traced {
			agg, err := o.reps(sp, until(0.5), 1, &runResult{Samples: samples{}}, opt)
			if err != nil {
				return nil, err
			}
			base = agg.cost
		}
		o.close()
	}
	agg, err := o.reps(sp, until(1), opt.minReps, res, opt)
	if err != nil {
		return nil, err
	}
	s.add("fail_share", 0) // a rep that misses a delivery fails the run above
	s.add("lat_p99_ms", agg.all.percentile(99)/1e6)
	s.add("lat_max_ms", float64(agg.all.max)/1e6)
	s.add("loadgen.late_p99_ms", agg.late.percentile(99)/1e6)
	s.add("loadgen.late_max_ms", float64(agg.late.max)/1e6)
	s.add("brisa.publish_p50_us", agg.pub.percentile(50)/1e3)
	if !traced {
		return res, nil
	}

	o.close() // quiesce the actors before reading their shims
	raw, hops := o.tr.totals()
	c := countsSince(raw, [numLayers]layerCount{})
	addLayerSamples(s, c, "livenet")
	s.add("livenet.send_ns_per_call", float64(c[layerSend].self)/float64(c[layerSend].calls))
	s.add("livenet.hop_p50_us", hops.percentile(50)/1e3)
	s.add("livenet.hop_p99_us", hops.percentile(99)/1e3)
	s.add("trace.overhead_share", median(agg.cost)/median(base)-1)
	spans, err := o.tr.writeSpans(opt.spansFile(name))
	if err != nil {
		return nil, err
	}
	s.add("trace.spans", float64(spans))
	return res, nil
}
