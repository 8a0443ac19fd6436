package brisa

import (
	"context"
	"fmt"
	"time"

	"repro/internal/simnet"
)

// Run executes the scenario on the simulator: against rt.Cluster when set,
// else on a fresh cluster built from the scenario's topology and seed. The
// scenario's Topology is only consulted when the cluster is built from it;
// a hand-built cluster runs as-is (a zero Topology is filled in from it), so
// workload source indices must fit its size. Prefer the package-level Run,
// which applies defaults and stamps run metadata.
func (rt SimRuntime) Run(ctx context.Context, sc Scenario) (*Report, error) {
	sc = sc.withDefaults()
	c := rt.Cluster
	if c == nil {
		var err error
		if c, err = rt.NewCluster(sc); err != nil {
			return nil, err
		}
		defer c.Close()
	}
	sc = c.adopt(sc)
	return runScenario(ctx, &simWorld{churnTarget: churnTarget{c: c}, sc: sc}, sc)
}

// adopt fills a scenario's empty Topology from this (hand-built) cluster's
// dimensions, so validation reflects what actually runs.
func (c *Cluster) adopt(sc Scenario) Scenario {
	if sc.Topology.Nodes != 0 {
		return sc
	}
	sc.Topology.Nodes = len(c.order)
	sc.Topology.Peer = c.cfg.Peer
	sc.Topology.PeerConfig = c.cfg.PeerConfigAt
	return sc
}

// simChunk is the virtual-time slice the simulator advances per context
// check: cancellation is observed at this granularity.
const simChunk = time.Second

// simWorld is the simulator's world: one run of a scenario on a Cluster.
// Delivery, traffic and fault accounting is relative to the state at
// bringUp, so a cluster — and even a stream — can be reused across runs.
// Churn goes through the cluster's own churnTarget (CrashRandom / JoinNew on
// the network RNG).
type simWorld struct {
	churnTarget
	sc  Scenario
	col *collector

	peers []*Peer       // population at bringUp, in creation order
	start time.Duration // virtual offset of markStart
	// Baselines: what was already delivered, sent or injected before this
	// run. Peers that churn in mid-run start from zero.
	deliveredBase []map[NodeID]uint64
	usageBase     map[NodeID]simnet.Usage
	faultsBase    FaultStats
}

func (w *simWorld) bringUp(ctx context.Context, col *collector) error {
	c, sc := w.c, w.sc
	if sc.Faults != nil && c.cfg.Faults == nil {
		// Fault injection lives in the simulator's send/receive paths and is
		// wired at construction; a pre-built cluster cannot adopt it late.
		return fmt.Errorf("the scenario has Faults, but the cluster was built without them: set ClusterConfig.Faults (or let the runtime build the cluster)")
	}
	for i, wl := range sc.Workloads {
		if wl.Source >= len(c.order) {
			return fmt.Errorf("workload %d sources from node index %d, cluster has %d nodes", i, wl.Source, len(c.order))
		}
	}
	for i, wl := range sc.BlobWorkloads {
		if wl.Source >= len(c.order) {
			return fmt.Errorf("blob workload %d sources from node index %d, cluster has %d nodes", i, wl.Source, len(c.order))
		}
	}

	w.peers = c.Peers()
	w.deliveredBase = make([]map[NodeID]uint64, len(sc.Workloads))
	for wi, wl := range sc.Workloads {
		m := make(map[NodeID]uint64)
		for _, p := range w.peers {
			if n := p.DeliveredCount(wl.Stream); n > 0 {
				m[p.ID()] = n
			}
		}
		w.deliveredBase[wi] = m
	}
	if sc.probed(ProbeTraffic) {
		w.usageBase = make(map[NodeID]simnet.Usage, len(c.order))
		for _, id := range c.order {
			w.usageBase[id] = c.Net.Usage(id)
		}
	}
	if c.cfg.Faults != nil {
		w.faultsBase = c.Net.FaultStats()
	}

	if err := ctx.Err(); err != nil {
		return err
	}
	if !c.bootstrapped {
		c.Bootstrap()
	}
	w.col = col
	for _, p := range w.peers {
		col.instrument(p)
	}
	c.onAddPeer = col.instrument
	return nil
}

func (w *simWorld) protect(idx int) NodeID {
	id := w.peers[idx].ID()
	w.churnTarget.protect = append(w.churnTarget.protect, id)
	return id
}

func (w *simWorld) markStart(context.Context) error {
	w.start = w.c.Net.Since()
	w.c.Net.SetPhase(simnet.PhaseDissemination)
	return nil
}

func (w *simWorld) publish(wi, _ int) error {
	wl := w.sc.Workloads[wi]
	at := w.c.Net.Now()
	seq := w.peers[wl.Source].Publish(wl.Stream, make([]byte, wl.Payload))
	// Recording after the call is race-free here: remote deliveries only run
	// in later simulator events.
	w.col.published(wi, seq, at)
	return nil
}

func (w *simWorld) publishBlob(wi, i int) error {
	wl := w.sc.BlobWorkloads[wi]
	data := blobPayload(wl.Stream, i, wl.Size)
	id, err := w.peers[wl.Source].brisa.PublishBlob(wl.Stream, data, wl.params())
	if err != nil {
		return err
	}
	w.col.blobPublished(wi, id, len(data), blobHash(data))
	return nil
}

// At implements trace.Scheduler in virtual time.
func (w *simWorld) At(offset time.Duration, fn func()) { w.c.Net.At(w.start+offset, fn) }

// run advances virtual time to the end of the drain, in slices so that a
// cancelled context aborts the run — and with it every scheduled publish and
// churn directive — within one chunk.
func (w *simWorld) run(ctx context.Context, end, drain time.Duration) (time.Duration, error) {
	total := end + drain
	for ran := time.Duration(0); ran < total; {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		step := min(simChunk, total-ran)
		w.c.Net.RunFor(step)
		ran += step
	}
	return w.c.Net.Since() - w.start, nil
}

// metrics reads every peer ever created, crashed ones included — churn rates
// count events, not survivors.
func (w *simWorld) metrics(context.Context) (map[NodeID]Metrics, error) {
	out := make(map[NodeID]Metrics, len(w.c.order))
	for _, p := range w.c.Peers() {
		out[p.ID()] = p.Metrics()
	}
	return out, nil
}

func (w *simWorld) snapshot(context.Context) (*worldSnapshot, error) {
	c, sc := w.c, w.sc
	alive := c.AlivePeers()
	snap := &worldSnapshot{nodes: len(w.peers), survivors: make([]memberSnapshot, len(alive))}
	// One backing array per field rather than one per peer: at 100k nodes
	// the snapshot would otherwise show on the run's allocation count.
	nw, nb := len(sc.Workloads), len(sc.BlobWorkloads)
	streams := make([]peerSnapshot, len(alive)*nw)
	blobs := make([]BlobStats, len(alive)*nb)
	traffic := make([]memberTraffic, len(alive))
	for i, p := range alive {
		m := memberSnapshot{id: p.ID(), streams: streams[i*nw:][:nw], blobs: blobs[i*nb:][:nb]}
		for wi, wl := range sc.Workloads {
			m.streams[wi] = snapshotPeer(p, wl.Stream)
			m.streams[wi].delivered -= w.deliveredBase[wi][m.id]
		}
		for wi, wl := range sc.BlobWorkloads {
			m.blobs[wi] = p.BlobStats(wl.Stream)
		}
		if w.usageBase != nil {
			u := usageDelta(c.Net.Usage(m.id), w.usageBase[m.id])
			const stab, diss = simnet.PhaseStabilization, simnet.PhaseDissemination
			traffic[i] = memberTraffic{
				stab: u.UpBytes[stab][0] + u.UpBytes[stab][1],
				up:   u.UpBytes[diss][0] + u.UpBytes[diss][1],
				down: u.DownBytes[diss][0] + u.DownBytes[diss][1],
			}
			m.traffic = &traffic[i]
		}
		snap.survivors[i] = m
	}
	if f := c.cfg.Faults; f != nil {
		fr := &FaultsReport{
			Loss:       f.Loss,
			Duplicate:  f.Duplicate,
			Reorder:    f.Reorder,
			Partitions: len(f.Partitions),
			Injected:   c.Net.FaultStats().Delta(w.faultsBase),
		}
		if f.Buffer != nil {
			fr.BufferCapacity = f.Buffer.Capacity
			fr.BufferPolicy = f.Buffer.Policy.String()
		}
		snap.faults = fr
	}
	return snap, nil
}

// close stops instrumenting peers that join the (possibly reused) cluster.
func (w *simWorld) close() { w.c.onAddPeer = nil }

// usageDelta subtracts a baseline usage snapshot, element-wise.
func usageDelta(cur, base simnet.Usage) simnet.Usage {
	for p := range cur.UpBytes {
		for c := range cur.UpBytes[p] {
			cur.UpBytes[p][c] -= base.UpBytes[p][c]
			cur.DownBytes[p][c] -= base.DownBytes[p][c]
		}
	}
	return cur
}
