package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"time"

	brisa "repro"
	"repro/internal/simnet"
	"repro/internal/trace"
	"repro/internal/wire"
)

// simSpec sizes one simulator workload.
type simSpec struct {
	workers int
	nodes   int
	msgs    int
	churn   bool
	// inline keeps every scheduler span on the coordinator instead of the
	// worker goroutines (simnet's ParallelThreshold). Only the smoke test's
	// toy sim-par sets it: fanned out, a 64-node run hit the scheduler's
	// quiesce hang (ROADMAP, fix-first 1) once in about 300 reps, and a
	// test inside `go test ./...` must not be able to hang.
	inline bool
}

func (sp simSpec) parallelThreshold() int {
	if sp.inline {
		return math.MaxInt32
	}
	return 0
}

// scenario builds the workload's Scenario. Everything random in it derives
// from seed; the payloads are the runner's zero-filled buffers.
func (sp simSpec) scenario(name string, seed int64) brisa.Scenario {
	sc := brisa.Scenario{
		Name: name,
		Seed: seed,
		Topology: brisa.Topology{
			Nodes:         sp.nodes,
			Peer:          brisa.Config{Mode: brisa.ModeTree, ViewSize: 4},
			JoinInterval:  5 * time.Millisecond,
			StabilizeTime: 10 * time.Second,
		},
		Workloads: []brisa.Workload{{Stream: 1, Messages: sp.msgs, Payload: payloadSize, Interval: 10 * time.Millisecond}},
		Probes:    []brisa.Probe{brisa.ProbeLatency, brisa.ProbeDuplicates, brisa.ProbeTraffic},
		Drain:     2 * time.Second,
	}
	if sp.churn {
		sc.Topology.Peer = brisa.Config{Mode: brisa.ModeDAG, Parents: 2, ViewSize: 8}
		sc.Workloads[0].Interval = brisa.DefaultInterval // the paper's 5 msg/s
		sc.Churn = &brisa.Churn{Script: "from 0s to 16s const churn 3% each 4s", Start: 2 * time.Second}
		sc.Probes = append(sc.Probes, brisa.ProbeRepairs)
		sc.Drain = 5 * time.Second
	}
	return sc
}

// deliveryCounters are the benchmark's own per-node reception counters,
// hooked in through each peer's OnDeliver. A slot is written only by its
// node's actor; slots are padded so shards do not share cache lines.
type deliveryCounters struct {
	slots    []counterSlot
	overflow atomic.Uint64 // churn joiners past the preallocated slots
	badLen   atomic.Uint64 // payloads of the wrong size
}

type counterSlot struct {
	n uint64
	_ [56]byte
}

func newDeliveryCounters(nodes int) *deliveryCounters {
	return &deliveryCounters{slots: make([]counterSlot, 2*nodes)}
}

// peerConfig derives peer i's configuration: the base plus its counter.
func (dc *deliveryCounters) peerConfig(base brisa.Config) func(i int) brisa.Config {
	return func(i int) brisa.Config {
		cfg := base
		if i >= len(dc.slots) {
			cfg.OnDeliver = func(_ brisa.StreamID, _ uint32, p []byte) {
				dc.overflow.Add(1)
				if len(p) != payloadSize {
					dc.badLen.Add(1)
				}
			}
			return cfg
		}
		slot := &dc.slots[i]
		cfg.OnDeliver = func(_ brisa.StreamID, _ uint32, p []byte) {
			slot.n++
			if len(p) != payloadSize {
				dc.badLen.Add(1)
			}
		}
		return cfg
	}
}

func (dc *deliveryCounters) total() int64 {
	t := dc.overflow.Load()
	for i := range dc.slots {
		t += dc.slots[i].n
	}
	return int64(t)
}

// simStats are the modelled protocol's own results, in virtual time: a pure
// function of the scenario and its seed, identical on every host, rep and
// worker count. A mismatch is a determinism bug, not noise.
type simStats struct {
	Published   int
	Deliveries  int64
	Alive       int
	Events      uint64
	SetupEvents uint64
	LatP50      float64
	LatP90      float64
	LatP99      float64
	LatMax      float64
	DupPerMsg   float64
	Copies      float64
	WireBytes   float64
	WireMsgs    float64
	Failed      int64
	Attempted   int64
}

// simRep is one untraced rep: a fresh cluster bootstrapped, then the
// scenario run on it through the public API.
type simRep struct {
	setupS, runS, cpuS float64
	mallocs            uint64
	heapMB             float64
	stats              simStats
	// Messages delivered during the run, by kind (churn workloads only).
	dataMsgs, depthUpdates uint64
}

// storm reports the DAG's depth-label chase: under churn, on about one seed
// in ten, labels form a mutual dependency and DepthUpdate messages count to
// infinity, ten times the run's data messages (47 k are normal, 1.47 M in a
// storm, for 168 k Data). Deliveries still complete, but messages, bytes and
// allocations per delivery double to quadruple, so such a seed is another
// workload. It is a protocol defect for a later issue (README, findings).
func (r simRep) storm() bool { return r.depthUpdates > r.dataMsgs }

func runSimRep(sp simSpec, sc brisa.Scenario) (simRep, error) {
	var rep simRep
	dc := newDeliveryCounters(sp.nodes)
	sc.Topology.PeerConfig = dc.peerConfig(sc.Topology.Peer)

	// What SimRuntime{Workers}.NewCluster(sc) builds, plus the threshold.
	top := sc.Topology
	t0 := time.Now()
	c, err := brisa.NewCluster(brisa.ClusterConfig{
		Nodes: top.Nodes, PeerConfigAt: top.PeerConfig, Seed: sc.Seed,
		JoinInterval: top.JoinInterval, StabilizeTime: top.StabilizeTime,
		Workers: sp.workers, ParallelThreshold: sp.parallelThreshold(),
	})
	if err != nil {
		return rep, err
	}
	defer c.Close()
	c.Bootstrap()
	rep.setupS = time.Since(t0).Seconds()
	rep.stats.SetupEvents = c.Net.EventsFired()
	if sp.churn {
		c.Net.Tap = func(_, _ brisa.NodeID, m wire.Message) {
			switch m.Kind() {
			case wire.KindData:
				rep.dataMsgs++
			case wire.KindDepthUpdate:
				rep.depthUpdates++
			}
		}
	}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuSeconds()
	t1 := time.Now()
	report, err := brisa.Run(context.Background(), brisa.SimRuntime{Cluster: c}, sc)
	rep.runS = time.Since(t1).Seconds()
	rep.cpuS = cpuSeconds() - cpu0
	if err != nil {
		return rep, err
	}
	runtime.ReadMemStats(&ms1)
	rep.mallocs = ms1.Mallocs - ms0.Mallocs
	// Per-node protocol state: what stays live with the cluster referenced.
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	rep.heapMB = float64(ms1.HeapAlloc) / (1 << 20)

	st := &rep.stats
	st.Events = c.Net.EventsFired() - st.SetupEvents
	sr := report.Streams[0]
	st.Published = sr.Published
	st.Alive = report.Alive
	st.Deliveries = dc.total()
	st.LatP50 = sr.Delays.Percentile(50) * 1e3
	st.LatP90 = sr.Delays.Percentile(90) * 1e3
	st.LatP99 = sr.Delays.Percentile(99) * 1e3
	st.LatMax = sr.Delays.Max() * 1e3
	st.DupPerMsg = sr.Duplicates.Mean()
	var delivered, dups, bytes, msgs uint64
	for _, p := range c.Peers() {
		m := p.Metrics()
		delivered += m.Delivered
		dups += m.Duplicates
		u := c.Net.Usage(p.ID()) // survives the node's crash
		bytes += u.UpBytes[simnet.PhaseDissemination][0] + u.UpBytes[simnet.PhaseDissemination][1]
		msgs += u.UpMessages[simnet.PhaseDissemination]
	}
	st.Copies = 1 + float64(dups)/float64(delivered)
	st.WireBytes = float64(bytes) / float64(st.Deliveries)
	st.WireMsgs = float64(msgs) / float64(st.Deliveries)

	// Output validation: the benchmark's own counters against the Report's.
	if n := dc.badLen.Load(); n > 0 {
		return rep, fmt.Errorf("payload: %d deliveries carried a payload of the wrong size", n)
	}
	if sr.Published != sp.msgs {
		return rep, fmt.Errorf("Published: Report says %d, the workload publishes %d", sr.Published, sp.msgs)
	}
	if int64(sr.Delays.Len()) != st.Deliveries {
		return rep, fmt.Errorf("Delays.Len: Report says %d deliveries, the benchmark counted %d", sr.Delays.Len(), st.Deliveries)
	}
	// Expected deliveries: every message at every node that was present from
	// the start of dissemination to its end (the source excluded).
	for i, p := range c.Peers()[:sp.nodes] {
		if i == 0 || !c.Net.Alive(p.ID()) {
			continue
		}
		st.Attempted += int64(sp.msgs)
		st.Failed += int64(sp.msgs) - int64(dc.slots[i].n)
	}
	runtime.KeepAlive(c)
	return rep, nil
}

// tracedSim is the traced rep's cluster, assembled by hand from simnet and
// brisa.NewPeer so every node's handler can be wrapped in a shim. It follows
// Cluster.Bootstrap and the scenario runner's schedule step by step — same
// seed, same order of scheduler calls and RNG draws — so it simulates exactly
// what the untraced rep does (checked: same deliveries, same event count).
type tracedSim struct {
	net   *simnet.Network
	sc    brisa.Scenario
	tr    *tracer
	peers []*brisa.Peer
}

func newTracedSim(sp simSpec, sc brisa.Scenario, tr *tracer) (*tracedSim, error) {
	ts := &tracedSim{sc: sc, tr: tr}
	ts.net = simnet.New(simnet.Options{Seed: sc.Seed, Workers: sp.workers, ParallelThreshold: sp.parallelThreshold()})
	for i := 0; i < sp.nodes; i++ {
		if _, err := ts.addPeer(); err != nil {
			return nil, err
		}
	}
	return ts, nil
}

func (ts *tracedSim) addPeer() (*brisa.Peer, error) {
	id := brisa.NodeID(len(ts.peers) + 1)
	p, err := brisa.NewPeer(id, ts.sc.Topology.PeerConfig(len(ts.peers)))
	if err != nil {
		return nil, err
	}
	ts.peers = append(ts.peers, p)
	ts.net.AddNode(id, ts.tr.wrap(id, p.Handler()))
	return p, nil
}

func (ts *tracedSim) bootstrap() {
	top := ts.sc.Topology
	for i := 1; i < len(ts.peers); i++ {
		i := i
		ts.net.At(time.Duration(i)*top.JoinInterval, func() {
			ts.peers[i].Join(ts.peers[ts.net.Rand().Intn(i)].ID())
		})
	}
	ts.net.RunUntil(time.Duration(len(ts.peers))*top.JoinInterval + top.StabilizeTime)
}

// others returns the alive node ids except skip.
func (ts *tracedSim) others(skip brisa.NodeID) []brisa.NodeID {
	alive := ts.net.NodeIDs()
	out := alive[:0]
	for _, id := range alive {
		if id != skip {
			out = append(out, id)
		}
	}
	return out
}

// Join, Fail, Size and Stop implement trace.Target like the cluster does:
// a joiner enters through a random alive member and retries while isolated;
// a failure crashes a random alive node other than the source.
func (ts *tracedSim) Join() {
	p, err := ts.addPeer()
	if err != nil {
		panic("bench: churn join: " + err.Error())
	}
	cands := ts.others(p.ID())
	if len(cands) == 0 {
		return
	}
	contact := cands[ts.net.Rand().Intn(len(cands))]
	ts.net.After(0, func() {
		if ts.net.Alive(p.ID()) {
			p.Join(contact)
		}
	})
	ts.retryJoin(p, 5)
}

func (ts *tracedSim) retryJoin(p *brisa.Peer, attempts int) {
	if attempts <= 0 {
		return
	}
	ts.net.After(5*time.Second, func() {
		if !ts.net.Alive(p.ID()) || len(p.Neighbors()) > 0 {
			return
		}
		cands := ts.others(p.ID())
		if len(cands) == 0 {
			return
		}
		p.Join(cands[ts.net.Rand().Intn(len(cands))])
		ts.retryJoin(p, attempts-1)
	})
}

func (ts *tracedSim) Fail() {
	cands := ts.others(ts.peers[0].ID())
	if len(cands) > 0 {
		ts.net.Crash(cands[ts.net.Rand().Intn(len(cands))])
	}
}

func (ts *tracedSim) Size() int { return len(ts.net.NodeIDs()) }
func (ts *tracedSim) Stop()     {}

// At implements trace.Scheduler, anchoring offsets at the current time.
func (ts *tracedSim) At(offset time.Duration, fn func()) {
	ts.net.At(ts.net.Since()+offset, fn)
}

// run schedules the workload and the churn and advances virtual time to the
// end of the drain, in the runner's one-second slices.
func (ts *tracedSim) run() error {
	ts.net.SetPhase(simnet.PhaseDissemination)
	w := ts.sc.Workloads[0]
	src := ts.peers[w.Source]
	for i := 0; i < w.Messages; i++ {
		ts.net.After(w.Start+time.Duration(i)*w.Interval, func() {
			src.Publish(w.Stream, make([]byte, w.Payload))
		})
	}
	end := time.Duration(w.Messages-1) * w.Interval
	if ch := ts.sc.Churn; ch != nil {
		script, err := trace.Parse(ch.Script)
		if err != nil {
			return err
		}
		var window time.Duration
		for _, d := range script.Directives {
			window = max(window, d.To, d.At)
		}
		ts.net.After(ch.Start, func() { script.Replay(ts, ts) })
		ts.net.After(ch.Start+window, func() {}) // the runner's end-of-window snapshot event
		end = max(end, ch.Start+window)
	}
	total := end + ts.sc.Drain
	for ran := time.Duration(0); ran < total; ran += time.Second {
		ts.net.RunFor(min(time.Second, total-ran))
	}
	return nil
}

// tracedSimRep is what one traced rep measured.
type tracedSimRep struct {
	runS       float64
	counts     [numLayers]layerCount // dissemination phase only
	deliveries int64
	events     uint64
	workers    int
	spans      int
}

func runTracedSimRep(sp simSpec, sc brisa.Scenario, spansPath string) (tracedSimRep, error) {
	var rep tracedSimRep
	dc := newDeliveryCounters(sp.nodes)
	sc.Topology.PeerConfig = dc.peerConfig(sc.Topology.Peer)
	tr := newTracer(false)
	ts, err := newTracedSim(sp, sc, tr)
	if err != nil {
		return rep, err
	}
	defer ts.net.Close()
	ts.bootstrap()
	setupEvents := ts.net.EventsFired()
	base, _ := tr.totals()

	t0 := time.Now()
	if err := ts.run(); err != nil {
		return rep, err
	}
	rep.runS = time.Since(t0).Seconds()
	rep.events = ts.net.EventsFired() - setupEvents
	rep.workers = ts.net.Workers()
	rep.deliveries = dc.total()
	now, _ := tr.totals()
	rep.counts = countsSince(now, base)
	rep.spans, err = tr.writeSpans(spansPath)
	return rep, err
}

// reseedStep is how far a seed that sets off the storm moves on.
const reseedStep = 1000

// runSim is one run of a simulator workload: reps until the time is used.
func runSim(name string, sp simSpec, opt runOpts) (*runResult, error) {
	sc := sp.scenario(name, opt.seed)
	traced, logf := opt.traced, opt.logf
	res := &runResult{Samples: samples{}}
	start := time.Now()

	// sim-par must simulate exactly what sim-dissem does: one unmeasured
	// sequential rep of the same scenario and seed is the reference.
	var ref *simStats
	if sp.workers > 1 {
		seq := sp
		seq.workers = 1
		stop := watchdog(name+" sequential reference", repDeadline)
		rep, err := runSimRep(seq, sc)
		stop()
		if err != nil {
			return nil, fmt.Errorf("sequential reference: %w", err)
		}
		ref = &rep.stats
		runtime.GC()
	}

	budget := opt.seconds
	if traced {
		budget -= opt.microBudget().Seconds()
	}
	var first *simStats
	s := res.Samples
	for res.Reps < opt.minReps || fits(start, res.Reps, budget) {
		stop := watchdog(name+" rep", repDeadline)
		rep, err := runSimRep(sp, sc)
		stop()
		if err != nil {
			return nil, err
		}
		runtime.GC() // the rep's cluster is garbage now; do not bill the next rep for it
		if first == nil && rep.storm() {
			// Inputs are chosen so that the run is the steady workload: the
			// same seed always moves on to the same next one.
			logf("seed %d sets off the DepthUpdate storm (%d depth updates for %d data messages); using seed %d instead",
				sc.Seed, rep.depthUpdates, rep.dataMsgs, sc.Seed+reseedStep)
			sc.Seed += reseedStep
			continue
		}
		st := rep.stats
		if first == nil {
			first = &st
		} else if st != *first {
			return nil, fmt.Errorf("simulated statistics differ between reps of one seed: %+v then %+v", *first, st)
		}
		if ref != nil && st != *ref {
			return nil, fmt.Errorf("simulated statistics differ from the sequential engine's: workers=1 %+v, workers=%d %+v", *ref, sp.workers, st)
		}
		res.Reps++
		res.Attempted += st.Attempted
		res.Failed += st.Failed
		logf("rep %d: setup %.3fs run %.3fs deliveries %d events %d", res.Reps, rep.setupS, rep.runS, st.Deliveries, st.Events)
		d := float64(st.Deliveries)
		s.add("setup_s", rep.setupS)
		s.add("run_s", rep.runS)
		s.add("cpu_us_per_delivery", rep.cpuS*1e6/d)
		s.add("lat_p50_ms", st.LatP50)
		s.add("lat_p90_ms", st.LatP90)
		s.add("allocs_per_delivery", float64(rep.mallocs)/d)
		s.add("heap_mb", rep.heapMB)
		s.add("wire_bytes_per_delivery", st.WireBytes)
		s.add("wire_msgs_per_delivery", st.WireMsgs)
		s.add("copies_per_delivery", st.Copies)
		s.add("fail_share", float64(st.Failed)/float64(st.Attempted))
		s.add("dup_per_msg", st.DupPerMsg)
		s.add("lat_p99_ms", st.LatP99)
		s.add("lat_max_ms", st.LatMax)
		s.add("simnet.setup_events", float64(st.SetupEvents))
		if !traced {
			continue
		}

		// Each traced rep follows an untraced one of the same inputs: the
		// pair gives the tracing overhead, and the untraced rep's outputs
		// are what the traced one must reproduce.
		gc0 := readGCStats()
		stop = watchdog(name+" traced rep", repDeadline)
		trep, err := runTracedSimRep(sp, sc, opt.spansFile(name))
		stop()
		if err != nil {
			return nil, err
		}
		gc1 := readGCStats()
		runtime.GC()
		if trep.deliveries != st.Deliveries {
			return nil, fmt.Errorf("deliveries: the traced rep made %d, the untraced rep %d", trep.deliveries, st.Deliveries)
		}
		if diff := math.Abs(float64(trep.events) - float64(st.Events)); diff > 1e-3*float64(st.Events) {
			return nil, fmt.Errorf("EventsFired: the traced rep fired %d events, the untraced rep %d", trep.events, st.Events)
		}
		logf("traced rep %d: run %.3fs events %d spans %d", res.Reps, trep.runS, trep.events, trep.spans)
		c := trep.counts
		addLayerSamples(s, c, "simnet")
		s.add("simnet.events", float64(trep.events))
		s.add("simnet.ns_per_event", trep.runS*1e9/float64(trep.events))
		s.add("simnet.events_per_delivery", float64(trep.events)/d)
		busy := float64(busyNS(c)) / 1e9
		if trep.workers > 1 {
			s.add("simnet.shard_busy_share", busy/(float64(trep.workers)*trep.runS))
		} else {
			s.add("simnet.sched_self_s", trep.runS-busy)
		}
		s.add("runtime.gc_cpu_share", gc1.gcShareSince(gc0))
		s.add("runtime.alloc_mb", float64(gc1.allocBytes-gc0.allocBytes)/(1<<20))
		s.add("trace.overhead_share", trep.runS/rep.runS-1)
		s.add("trace.spans", float64(trep.spans))
	}
	return res, nil
}
