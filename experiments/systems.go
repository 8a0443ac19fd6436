package experiments

import (
	"math/rand"
	"sync"
	"time"

	brisa "repro"
	"repro/internal/baselines/simplegossip"
	"repro/internal/baselines/simpletree"
	"repro/internal/baselines/tag"
	"repro/internal/ids"
	"repro/internal/simnet"
)

// sysParams is the common workload of the §III-D comparison runs. All four
// systems run in the same environment: cluster latencies plus the shared-
// host contention model (per-message CPU service time), which is what makes
// duplicate-heavy protocols pay in the paper's Table II.
type sysParams struct {
	Nodes   int
	Msgs    int
	Payload int
	Seed    int64
	Latency simnet.LatencyModel
	Proc    func(*rand.Rand) time.Duration
}

// sysResult is what each system runner reports.
type sysResult struct {
	// StabMB / DissMB: average per-node bytes *sent* during the
	// stabilization and dissemination phases, in MB (Figure 12).
	StabMB, DissMB float64
	// Latency: average over nodes of (last delivery − first delivery)
	// (Table II).
	Latency time.Duration
	// MeanDelay: average publish-to-delivery delay per message.
	MeanDelay time.Duration
	// Completeness: fraction of nodes that delivered every message.
	Completeness float64
	// Delivered: total deliveries (sanity).
	Delivered uint64
}

// deliveryTracker records first/last delivery instants per node plus the
// per-message delivery delay relative to publish time. record runs on
// scheduler shard goroutines (the simulator defaults to one shard per CPU),
// so the maps are mutex-guarded and every instant comes from the caller: the
// delivering node's own clock, never the network-level one, which stands
// still between barriers.
type deliveryTracker struct {
	mu          sync.Mutex
	first, last map[ids.NodeID]time.Time
	count       map[ids.NodeID]int
	pubAt       map[uint32]time.Time
	delaySum    time.Duration
	delayN      int
}

func newDeliveryTracker() *deliveryTracker {
	return &deliveryTracker{
		first: make(map[ids.NodeID]time.Time),
		last:  make(map[ids.NodeID]time.Time),
		count: make(map[ids.NodeID]int),
		pubAt: make(map[uint32]time.Time),
	}
}

// published records a message's injection time.
func (d *deliveryTracker) published(seq uint32, t time.Time) {
	d.mu.Lock()
	d.pubAt[seq] = t
	d.mu.Unlock()
}

func (d *deliveryTracker) record(id ids.NodeID, seq uint32, t time.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.first[id]; !ok {
		d.first[id] = t
	}
	d.last[id] = t
	d.count[id]++
	if t0, ok := d.pubAt[seq]; ok {
		d.delaySum += t.Sub(t0)
		d.delayN++
	}
}

// meanDelay is the average publish-to-delivery delay across all deliveries.
func (d *deliveryTracker) meanDelay() time.Duration {
	if d.delayN == 0 {
		return 0
	}
	return d.delaySum / time.Duration(d.delayN)
}

func (d *deliveryTracker) results(nodes []ids.NodeID, msgs int) (lat time.Duration, completeness float64, total uint64) {
	var sum time.Duration
	counted := 0
	complete := 0
	for _, id := range nodes {
		total += uint64(d.count[id])
		if d.count[id] == msgs {
			complete++
		}
		f, ok1 := d.first[id]
		l, ok2 := d.last[id]
		if ok1 && ok2 && d.count[id] > 1 {
			sum += l.Sub(f)
			counted++
		}
	}
	if counted > 0 {
		lat = sum / time.Duration(counted)
	}
	if len(nodes) > 0 {
		completeness = float64(complete) / float64(len(nodes))
	}
	return lat, completeness, total
}

// phaseMB averages per-node sent bytes for a phase, in MB.
func phaseMB(net *simnet.Network, nodes []ids.NodeID, phase simnet.Phase) float64 {
	var total uint64
	for _, id := range nodes {
		u := net.Usage(id)
		total += u.UpBytes[phase][0] + u.UpBytes[phase][1]
	}
	if len(nodes) == 0 {
		return 0
	}
	return float64(total) / float64(len(nodes)) / (1 << 20)
}

// ------------------------------------------------------------------ BRISA

// runSystemBrisa runs the shared §III-D workload through the declarative
// scenario runner: the traffic probe yields the per-phase byte averages and
// the latency probe yields completeness, per-message delay and the
// first-to-last delivery spread that the paper calls dissemination latency.
func runSystemBrisa(p sysParams) sysResult {
	rep := mustRun(brisa.Scenario{
		Name: "table2 BRISA",
		Seed: p.Seed,
		Topology: brisa.Topology{
			Nodes:           p.Nodes,
			Latency:         p.Latency,
			ProcessingDelay: p.Proc,
			Peer:            brisa.Config{Mode: brisa.ModeTree, ViewSize: 4},
		},
		Workloads: []brisa.Workload{
			{Stream: Stream, Messages: p.Msgs, Payload: p.Payload},
		},
		Probes: []brisa.Probe{brisa.ProbeLatency, brisa.ProbeTraffic},
		Drain:  20 * time.Second,
	})
	s := rep.Stream(Stream)
	return sysResult{
		StabMB:       rep.Traffic.StabMB,
		DissMB:       rep.Traffic.DissMB,
		Latency:      time.Duration(s.Spread.Mean() * float64(time.Second)),
		MeanDelay:    time.Duration(s.Delays.Mean() * float64(time.Second)),
		Completeness: s.Reliability,
		Delivered:    uint64(s.Delays.Len()),
	}
}

func nonSource(all []ids.NodeID, source ids.NodeID) []ids.NodeID {
	out := make([]ids.NodeID, 0, len(all))
	for _, id := range all {
		if id != source {
			out = append(out, id)
		}
	}
	return out
}

// -------------------------------------------------------------- SimpleTree

func runSystemSimpleTree(p sysParams) sysResult {
	net := simnet.New(simnet.Options{Seed: p.Seed, Latency: p.Latency, ProcessingDelay: p.Proc})
	tr := newDeliveryTracker()
	coord := ids.NodeID(1)
	peers := make([]*simpletree.Peer, p.Nodes)
	for i := 0; i < p.Nodes; i++ {
		self := ids.NodeID(i + 1)
		peers[i] = simpletree.New(self, coord, func(_ brisa.StreamID, seq uint32, _ []byte) {
			tr.record(self, seq, peers[i].Now())
		})
		net.AddNode(self, peers[i].Handler())
	}
	for i := 1; i < p.Nodes; i++ {
		i := i
		net.At(time.Duration(i)*50*time.Millisecond, func() { peers[i].Join() })
	}
	net.RunUntil(time.Duration(p.Nodes)*50*time.Millisecond + 10*time.Second)
	net.SetPhase(simnet.PhaseDissemination)
	for i := 0; i < p.Msgs; i++ {
		i := i
		net.After(time.Duration(i)*MessageInterval, func() {
			seq := peers[0].Publish(Stream, make([]byte, p.Payload))
			tr.published(seq, net.Now())
		})
	}
	net.RunFor(time.Duration(p.Msgs)*MessageInterval + 20*time.Second)

	nodes := nonSource(net.NodeIDs(), coord)
	res := sysResult{
		StabMB: phaseMB(net, nodes, simnet.PhaseStabilization),
		DissMB: phaseMB(net, nodes, simnet.PhaseDissemination),
	}
	res.Latency, res.Completeness, res.Delivered = tr.results(nodes, p.Msgs)
	res.MeanDelay = tr.meanDelay()
	return res
}

// ------------------------------------------------------------ SimpleGossip

func runSystemSimpleGossip(p sysParams) sysResult {
	net := simnet.New(simnet.Options{Seed: p.Seed, Latency: p.Latency, ProcessingDelay: p.Proc})
	tr := newDeliveryTracker()
	peers := make([]*simplegossip.Peer, p.Nodes)
	for i := 0; i < p.Nodes; i++ {
		self := ids.NodeID(i + 1)
		peers[i] = simplegossip.New(simplegossip.Config{
			Fanout:            simplegossip.FanoutFor(p.Nodes),
			AntiEntropyPeriod: MessageInterval / 2, // double the creation frequency
			OnDeliver:         func(_ brisa.StreamID, seq uint32, _ []byte) { tr.record(self, seq, peers[i].Now()) },
		})
		net.AddNode(self, peers[i].Handler())
	}
	for i := 1; i < p.Nodes; i++ {
		i := i
		net.At(time.Duration(i)*50*time.Millisecond, func() {
			peers[i].Join(ids.NodeID(net.Rand().Intn(i) + 1))
		})
	}
	net.RunUntil(time.Duration(p.Nodes)*50*time.Millisecond + 20*time.Second)
	net.SetPhase(simnet.PhaseDissemination)
	for i := 0; i < p.Msgs; i++ {
		i := i
		net.After(time.Duration(i)*MessageInterval, func() {
			seq := peers[0].Publish(Stream, make([]byte, p.Payload))
			tr.published(seq, net.Now())
		})
	}
	net.RunFor(time.Duration(p.Msgs)*MessageInterval + 30*time.Second)

	nodes := nonSource(net.NodeIDs(), ids.NodeID(1))
	// The paper books all SimpleGossip traffic under dissemination, since
	// the protocol builds no structure.
	res := sysResult{
		StabMB: 0,
		DissMB: phaseMB(net, nodes, simnet.PhaseStabilization) + phaseMB(net, nodes, simnet.PhaseDissemination),
	}
	res.Latency, res.Completeness, res.Delivered = tr.results(nodes, p.Msgs)
	res.MeanDelay = tr.meanDelay()
	return res
}

// --------------------------------------------------------------------- TAG

// tagCluster builds a TAG deployment and returns its pieces for reuse by
// several experiments.
type tagCluster struct {
	net    *simnet.Network
	peers  []*tag.Peer
	byID   map[ids.NodeID]*tag.Peer
	source ids.NodeID
	nextID uint64
	mkCfg  func(self ids.NodeID) tag.Config
}

// newTagCluster builds n TAG peers; mkCfg derives each peer's config (the
// Source field is filled in automatically). Joins are scheduled
// sequentially — TAG's list is ordered by join time.
func newTagCluster(n int, seed int64, latency simnet.LatencyModel, mkCfg func(self ids.NodeID) tag.Config) *tagCluster {
	return newTagClusterProc(n, seed, latency, nil, mkCfg)
}

func newTagClusterProc(n int, seed int64, latency simnet.LatencyModel, proc func(*rand.Rand) time.Duration, mkCfg func(self ids.NodeID) tag.Config) *tagCluster {
	tc := &tagCluster{
		net:    simnet.New(simnet.Options{Seed: seed, Latency: latency, ProcessingDelay: proc}),
		byID:   make(map[ids.NodeID]*tag.Peer),
		source: ids.NodeID(1),
		mkCfg:  mkCfg,
	}
	for i := 0; i < n; i++ {
		tc.addPeer()
	}
	for i := 1; i < n; i++ {
		i := i
		tc.net.At(time.Duration(i)*100*time.Millisecond, func() { tc.peers[i].Join() })
	}
	return tc
}

func (tc *tagCluster) addPeer() *tag.Peer {
	tc.nextID++
	self := ids.NodeID(tc.nextID)
	cfg := tc.mkCfg(self)
	cfg.Source = tc.source
	p := tag.New(self, cfg)
	tc.peers = append(tc.peers, p)
	tc.byID[self] = p
	tc.net.AddNode(self, p.Handler())
	return p
}

// joinNew adds a fresh peer mid-run (churn). The join runs right after the
// new node's Start event, unless churn killed the newborn first.
func (tc *tagCluster) joinNew() {
	p := tc.addPeer()
	id := ids.NodeID(tc.nextID)
	tc.net.After(0, func() {
		if tc.net.Alive(id) {
			p.Join()
		}
	})
}

// crashRandom kills one alive non-source node.
func (tc *tagCluster) crashRandom() {
	alive := tc.net.NodeIDs()
	candidates := alive[:0]
	for _, id := range alive {
		if id != tc.source {
			candidates = append(candidates, id)
		}
	}
	if len(candidates) == 0 {
		return
	}
	tc.net.Crash(candidates[tc.net.Rand().Intn(len(candidates))])
}

func (tc *tagCluster) stabilize(n int) {
	tc.net.RunUntil(time.Duration(n)*100*time.Millisecond + 15*time.Second)
}

func runSystemTAG(p sysParams) sysResult {
	tr := newDeliveryTracker()
	var tc *tagCluster
	tc = newTagClusterProc(p.Nodes, p.Seed, p.Latency, p.Proc, func(self ids.NodeID) tag.Config {
		return tag.Config{
			PullPeriod:      400 * time.Millisecond,
			MaxItemsPerPull: 1,
			OnDeliver:       func(_ brisa.StreamID, seq uint32, _ []byte) { tr.record(self, seq, tc.byID[self].Now()) },
		}
	})
	tc.stabilize(p.Nodes)
	tc.net.SetPhase(simnet.PhaseDissemination)
	for i := 0; i < p.Msgs; i++ {
		i := i
		tc.net.After(time.Duration(i)*MessageInterval, func() {
			seq := tc.peers[0].Publish(Stream, make([]byte, p.Payload))
			tr.published(seq, tc.net.Now())
		})
	}
	// TAG's one-item pulls drain slower than the injection rate; allow the
	// backlog to flush (the Table II effect).
	drain := time.Duration(p.Msgs)*400*time.Millisecond + 60*time.Second
	tc.net.RunFor(time.Duration(p.Msgs)*MessageInterval + drain)

	nodes := nonSource(tc.net.NodeIDs(), tc.source)
	res := sysResult{
		StabMB: phaseMB(tc.net, nodes, simnet.PhaseStabilization),
		DissMB: phaseMB(tc.net, nodes, simnet.PhaseDissemination),
	}
	res.Latency, res.Completeness, res.Delivered = tr.results(nodes, p.Msgs)
	res.MeanDelay = tr.meanDelay()
	return res
}

// systemRunners maps the §III-D system names to their runners, in the
// paper's presentation order.
func systemRunners() []struct {
	name string
	run  func(sysParams) sysResult
} {
	return []struct {
		name string
		run  func(sysParams) sysResult
	}{
		{"SimpleTree", runSystemSimpleTree},
		{"BRISA tree, view 4", runSystemBrisa},
		{"SimpleGossip", runSystemSimpleGossip},
		{"TAG, view 4", runSystemTAG},
	}
}
