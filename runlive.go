package brisa

import (
	"context"
	"sync"
	"time"

	"repro/internal/livenet"
)

// liveStabilize bounds the post-join readiness poll when the topology does
// not set StabilizeTime: loopback overlays connect in milliseconds, loaded
// CI machines get generous headroom.
const liveStabilize = 10 * time.Second

// Run executes the scenario on live TCP nodes bound to rt.Addr: one node
// per topology slot (per-peer configs derived by join index), workloads
// injected in wall time, the churn script replayed against real sockets,
// and the livenet wire tap backing ProbeTraffic — into a Report of the same
// shape the simulator produces. Prefer the package-level Run, which applies
// defaults and stamps run metadata.
func (rt LiveRuntime) Run(ctx context.Context, sc Scenario) (*Report, error) {
	sc = sc.withDefaults()
	ln := &liveNet{addr: rt.Addr}
	if ln.addr == "" {
		ln.addr = "127.0.0.1:0"
	}
	ln.overlay = newOverlay[*liveMember](sc, ln, liveStabilize)
	return runScenario(ctx, ln, sc)
}

// liveNet is the live runtime's world: an overlay of loopback Nodes.
type liveNet struct {
	overlay[*liveMember]
	addr  string
	col   *collector
	joins sync.WaitGroup // in-flight churn-join bootstraps
}

// liveMember is one loopback node.
type liveMember struct {
	ln   *liveNet
	node *Node
	// base is the node's wire-traffic snapshot at markStart (zero for churn
	// joiners, which bind mid-run).
	base livenet.Traffic
}

func (m *liveMember) nodeID() NodeID  { return m.node.ID() }
func (m *liveMember) address() string { return m.node.Addr() }
func (m *liveMember) neighbors() int  { return len(m.node.Neighbors()) }
func (m *liveMember) kill()           { m.node.Close() }

func (m *liveMember) delivered(wi int) int {
	return int(m.node.DeliveredCount(m.ln.sc.Workloads[wi].Stream))
}

func (m *liveMember) blobsDelivered(wi int) int {
	return int(m.node.BlobsDelivered(m.ln.sc.BlobWorkloads[wi].Stream))
}

func (m *liveMember) join(contacts []string, wait bool) error {
	if wait {
		return m.node.Join(contacts...)
	}
	m.ln.joins.Add(1)
	go func() {
		defer m.ln.joins.Done()
		_ = m.node.Join(contacts...) // bounded; close() ends it early
	}()
	return nil
}

// check implements host.
func (ln *liveNet) check(cfg Config) error { return cfg.Validate() }

// spawn implements host: bind one fresh node and instrument it before it
// can join anything.
func (ln *liveNet) spawn(_ int, cfg Config) (*liveMember, error) {
	node, err := Listen(ln.addr, cfg)
	if err != nil {
		return nil, err
	}
	ln.col.instrument(node.peer)
	return &liveMember{ln: ln, node: node}, nil
}

func (ln *liveNet) bringUp(ctx context.Context, col *collector) error {
	ln.col = col
	if err := ln.spawnInitial(ctx); err != nil {
		return err
	}
	return ln.connect(ctx)
}

// markStart snapshots every node's wire counters — bytes before it are the
// stabilization phase — and starts the clock.
func (ln *liveNet) markStart(context.Context) error {
	for _, m := range ln.alive() {
		m.base = m.node.Traffic()
	}
	ln.t0 = time.Now()
	return nil
}

// publish records the sequence number before injecting, so a delivery racing
// in on another node's actor finds the timestamp.
func (ln *liveNet) publish(wi, i int) error {
	wl := ln.sc.Workloads[wi]
	ln.col.published(wi, uint32(i+1), time.Now())
	ln.slots[wl.Source].m.node.Publish(wl.Stream, make([]byte, wl.Payload))
	return nil
}

func (ln *liveNet) publishBlob(wi, i int) error {
	wl := ln.sc.BlobWorkloads[wi]
	data := blobPayload(wl.Stream, i, wl.Size)
	var id uint32
	var err error
	ln.slots[wl.Source].m.node.Do(func(p *Peer) { id, err = p.brisa.PublishBlob(wl.Stream, data, wl.params()) })
	if err != nil {
		return err
	}
	// Recording after the call is safe: hash verification runs at fold time.
	ln.col.blobPublished(wi, id, len(data), blobHash(data))
	return nil
}

// metrics reads every alive node's protocol counters. Unlike the simulator,
// counters of nodes that die afterwards are lost with their process — the
// same data loss a real deployment has.
func (ln *liveNet) metrics(context.Context) (map[NodeID]Metrics, error) {
	out := make(map[NodeID]Metrics)
	for _, m := range ln.alive() {
		out[m.node.ID()] = m.node.Metrics()
	}
	return out, nil
}

func (ln *liveNet) snapshot(context.Context) (*worldSnapshot, error) {
	sc := ln.sc
	snap := &worldSnapshot{nodes: sc.Topology.Nodes}
	for _, m := range ln.alive() {
		ms := memberSnapshot{
			id:      m.node.ID(),
			streams: make([]peerSnapshot, len(sc.Workloads)),
			blobs:   make([]BlobStats, len(sc.BlobWorkloads)),
		}
		m.node.Do(func(p *Peer) {
			for wi, wl := range sc.Workloads {
				ms.streams[wi] = snapshotPeer(p, wl.Stream)
			}
			for wi, wl := range sc.BlobWorkloads {
				ms.blobs[wi] = p.BlobStats(wl.Stream)
			}
		})
		if sc.probed(ProbeTraffic) {
			delta := m.node.Traffic().Sub(m.base)
			ms.traffic = &memberTraffic{stab: m.base.BytesOut, up: delta.BytesOut, down: delta.BytesIn}
		}
		snap.survivors = append(snap.survivors, ms)
	}
	return snap, nil
}

// close shuts every node ever created and waits for in-flight churn joins
// to observe the closes.
func (ln *liveNet) close() {
	for _, s := range ln.slots {
		s.m.node.Close()
	}
	ln.joins.Wait()
}
