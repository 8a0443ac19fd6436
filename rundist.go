package brisa

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/ids"
	"repro/internal/monitor"
)

// DistRuntime runs scenarios across machines: real peer processes spawned by
// pre-started brisa-agent daemons (one per host), streaming measurements
// back to an in-driver monitor collector that folds them into the shared
// Report. The unchanged Scenario grammar applies — Topology places
// join-indexed peers round-robin across the agents (PeerConfig re-keying
// carries over), Workloads and BlobWorkloads are dispatched to the owning
// agent, and Churn scripts kill and restart real remote processes.
//
// Everything works with all agents on 127.0.0.1 (how CI exercises it) and
// across real hosts; cross-host latency measurements inherit the hosts'
// clock synchronization (see internal/monitor). Like LiveRuntime, dist runs
// are wall-clock and not seed-reproducible.
type DistRuntime struct {
	// Agents are the control addresses of pre-started brisa-agent daemons
	// ("host:port"). Required; peers are placed round-robin across them in
	// join-index order.
	Agents []string
	// Monitor is the address the driver's measurement collector listens on
	// (default "127.0.0.1:0"). On multi-host deployments set it to an
	// address on the driver's host that every agent host can reach.
	Monitor string
	// DialTimeout bounds each agent control-connection dial (default 5s).
	DialTimeout time.Duration
}

// Name implements Runtime.
func (DistRuntime) Name() string { return "dist" }

// SupportsBlobs implements BlobCapable.
func (DistRuntime) SupportsBlobs() bool { return true }

// distStabilize bounds the post-join readiness poll when the topology does
// not set StabilizeTime: process spawns and real links are slower than
// loopback goroutines, so the dist default is above liveStabilize.
const distStabilize = 30 * time.Second

// distFlushTimeout bounds each flush barrier (spawned workers answer in
// milliseconds; the headroom covers loaded CI machines).
const distFlushTimeout = 30 * time.Second

// Run executes the scenario across the runtime's agents: one worker process
// per topology slot (round-robin), workloads dispatched to the owning agents
// in wall time, the churn script replayed by killing and spawning real
// remote processes, and the monitor stream — behind flush barriers — folded
// into a Report of the same shape the other runtimes produce. Prefer the
// package-level Run, which applies defaults and stamps run metadata.
func (rt DistRuntime) Run(ctx context.Context, sc Scenario) (*Report, error) {
	sc = sc.withDefaults()
	dn := &distNet{rt: rt}
	dn.overlay = newOverlay[*distMember](sc, dn, distStabilize)
	return runScenario(ctx, dn, sc)
}

// distNet is the distributed runtime's world: an overlay of worker processes
// across the agents, measured through the monitor collector.
type distNet struct {
	overlay[*distMember]
	rt     DistRuntime
	col    *collector
	mon    *monitor.Collector
	agents []*agentConn
	token  uint64 // last flush barrier
}

// distMember is one remote worker process.
type distMember struct {
	dn     *distNet
	agent  *agentConn
	worker int // agent-assigned worker handle
	addr   string
	id     NodeID
}

func (m *distMember) nodeID() NodeID  { return m.id }
func (m *distMember) address() string { return m.addr }

// cmd relays one command to the worker, under the run's context.
func (m *distMember) cmd(cmd distWorkerCmd) (distWorkerResp, error) {
	return m.agent.workerCmd(m.dn.ctx, m.worker, cmd)
}

// join relays the bootstrap to the worker, which runs it inline (wait) or on
// its own goroutine.
func (m *distMember) join(contacts []string, wait bool) error {
	_, err := m.cmd(distWorkerCmd{Op: "join", Contacts: contacts, Wait: wait})
	return err
}

func (m *distMember) neighbors() int {
	resp, _ := m.cmd(distWorkerCmd{Op: "ready"})
	return resp.Neighbors
}

// delivered and blobsDelivered read the collector's buffered sample stream
// (at most one worker flush interval stale).
func (m *distMember) delivered(wi int) int      { return m.dn.mon.DeliveredCount(m.id, wi) }
func (m *distMember) blobsDelivered(wi int) int { return m.dn.mon.BlobDoneCount(m.id, wi) }

// kill SIGKILLs the worker process through its agent, which reaps it.
func (m *distMember) kill() {
	_, _ = m.agent.call(m.dn.ctx, distCtrlReq{Op: "kill", Worker: m.worker})
}

// check implements host: beyond validity, the configuration must survive
// the process boundary.
func (dn *distNet) check(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	_, err := distConfigOf(cfg)
	return err
}

// spawn implements host: start one worker on its round-robin agent.
func (dn *distNet) spawn(idx int, cfg Config) (*distMember, error) {
	dc, err := distConfigOf(cfg)
	if err != nil {
		return nil, err
	}
	a := dn.agents[idx%len(dn.agents)]
	resp, err := a.call(dn.ctx, distCtrlReq{Op: "spawn", Spec: &DistWorkerSpec{
		Agent:         a.addr,
		Index:         idx,
		Monitor:       dn.mon.Addr(),
		Config:        dc,
		Workloads:     dn.sc.Workloads,
		BlobWorkloads: dn.sc.BlobWorkloads,
		Probes:        dn.sc.Probes,
	}})
	if err != nil {
		return nil, err
	}
	id, err := ParseNodeID(resp.Node)
	if err != nil {
		return nil, fmt.Errorf("agent %s: worker node id %q: %w", a.addr, resp.Node, err)
	}
	return &distMember{dn: dn, agent: a, worker: resp.Worker, addr: resp.Addr, id: id}, nil
}

// bringUp starts the monitor collector, dials the agents, spawns the
// initial workers, waits for their monitor connections and bootstraps them.
func (dn *distNet) bringUp(ctx context.Context, col *collector) error {
	dn.col = col
	rt := dn.rt
	if len(rt.Agents) == 0 {
		return fmt.Errorf("DistRuntime needs at least one agent address")
	}
	monAddr := rt.Monitor
	if monAddr == "" {
		monAddr = "127.0.0.1:0"
	}
	var err error
	if dn.mon, err = monitor.NewCollector(monAddr); err != nil {
		return err
	}
	dialTimeout := rt.DialTimeout
	if dialTimeout == 0 {
		dialTimeout = 5 * time.Second
	}
	for _, addr := range rt.Agents {
		a, err := dialAgent(addr, dialTimeout)
		if err != nil {
			return err
		}
		dn.agents = append(dn.agents, a)
	}
	if err := dn.spawnInitial(ctx); err != nil {
		return err
	}
	if err := dn.mon.WaitFor(ctx, dn.aliveIDs(), distFlushTimeout); err != nil {
		return err
	}
	return dn.connect(ctx)
}

// aliveIDs projects the alive members onto their node ids.
func (dn *distNet) aliveIDs() []NodeID {
	ms := dn.alive()
	out := make([]NodeID, len(ms))
	for i, m := range ms {
		out[i] = m.id
	}
	return out
}

// markStart takes the traffic baseline behind a flush barrier — every
// node's precise counters at dissemination start; bytes before it are the
// stabilization phase — and starts the clock.
func (dn *distNet) markStart(ctx context.Context) error {
	if dn.sc.probed(ProbeTraffic) {
		if err := dn.flushBarrier(ctx); err != nil {
			return fmt.Errorf("baseline: %w", err)
		}
		dn.mon.MarkTrafficBase(dn.aliveIDs())
	}
	dn.t0 = time.Now()
	return nil
}

// publish dispatches through the source's agent. The worker records the
// publish instant on its own clock and streams it to the collector.
func (dn *distNet) publish(wi, _ int) error {
	_, err := dn.slots[dn.sc.Workloads[wi].Source].m.cmd(distWorkerCmd{Op: "publish", WI: wi})
	return err
}

func (dn *distNet) publishBlob(wi, i int) error {
	_, err := dn.slots[dn.sc.BlobWorkloads[wi].Source].m.cmd(distWorkerCmd{Op: "publishblob", WI: wi, Index: i})
	return err
}

// flushBarrier runs one flush round: every alive worker drains its buffers
// and snapshots onto its monitor connection, then the collector is awaited
// until it has seen the token from all of them — after which it holds a
// consistent cut of every node's measurements.
func (dn *distNet) flushBarrier(ctx context.Context) error {
	dn.token++
	token := dn.token
	members := dn.alive()
	var wg sync.WaitGroup
	errs := make([]error, len(members))
	for i, m := range members {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = m.agent.workerCmd(ctx, m.worker, distWorkerCmd{Op: "flush", Token: token})
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("flush node %v: %w", members[i].id, err)
		}
	}
	return dn.mon.WaitFlush(ctx, token, dn.aliveIDs(), distFlushTimeout)
}

// metrics reads every alive node's protocol counters behind a flush
// barrier. As on the live runtime, counters of nodes that die afterwards
// are lost with their process.
func (dn *distNet) metrics(ctx context.Context) (map[NodeID]Metrics, error) {
	if err := dn.flushBarrier(ctx); err != nil {
		return nil, err
	}
	out := make(map[NodeID]Metrics)
	dn.mon.View(func(nodes map[ids.NodeID]*monitor.NodeState, _ map[int]map[uint32]int64, _ map[int]map[uint32]monitor.BlobPublished) {
		for _, m := range dn.alive() {
			if ns, ok := nodes[m.id]; ok {
				nm := ns.Metrics
				out[m.id] = Metrics{
					ParentsLost: nm.ParentsLost, Orphans: nm.Orphans,
					SoftRepairs: nm.SoftRepairs, HardRepairs: nm.HardRepairs,
				}
			}
		}
	})
	return out, nil
}

// snapshot passes the final flush barrier — after it the monitor holds every
// survivor's complete measurement stream and end-of-run state — and replays
// that stream into the driver's collector: publishes, then each survivor's
// deliveries through the same published/delivered path an in-process actor
// takes, so the folds cannot tell the runtimes apart.
func (dn *distNet) snapshot(ctx context.Context) (*worldSnapshot, error) {
	if err := dn.flushBarrier(ctx); err != nil {
		return nil, fmt.Errorf("final flush: %w", err)
	}
	sc, col := dn.sc, dn.col
	snap := &worldSnapshot{nodes: sc.Topology.Nodes}
	dn.mon.View(func(nodes map[ids.NodeID]*monitor.NodeState, pubs map[int]map[uint32]int64, blobs map[int]map[uint32]monitor.BlobPublished) {
		for wi := range sc.Workloads {
			for seq, at := range pubs[wi] { //brisa:orderinvariant keyed inserts and a count
				col.published(wi, seq, time.Unix(0, at))
			}
		}
		for wi := range sc.BlobWorkloads {
			for id, bp := range blobs[wi] { //brisa:orderinvariant keyed inserts and integer sums
				col.blobPublished(wi, id, int(bp.Size), bp.Hash)
			}
		}
		for _, m := range dn.alive() {
			ns := nodes[m.id]
			if ns == nil {
				continue
			}
			accs, baccs, hard := col.register(m.id)
			ms := memberSnapshot{
				id:      m.id,
				streams: make([]peerSnapshot, len(sc.Workloads)),
				blobs:   make([]BlobStats, len(sc.BlobWorkloads)),
			}
			for wi := range sc.Workloads {
				st := ns.Streams[wi]
				if st == nil {
					continue
				}
				for _, s := range st.Samples {
					col.delivered(wi, accs[wi], m.id, s.Seq, time.Unix(0, s.At))
				}
				accs[wi].dups = st.Dups
				if ss := st.Snap; ss != nil {
					ms.streams[wi] = peerSnapshot{
						delivered: ss.Delivered, orphan: ss.Orphan, parents: ss.Parents,
						depth: int(ss.Depth), depthOK: ss.DepthOK,
						construction: time.Duration(ss.ConstructNanos), constructOK: ss.ConstructOK,
					}
				}
			}
			for wi := range sc.BlobWorkloads {
				bst := ns.Blobs[wi]
				if bst == nil {
					continue
				}
				for id, done := range bst.Done { //brisa:orderinvariant keyed inserts
					baccs[wi].recs[id] = newBlobRec(done.Hash, int(done.Bytes), time.Duration(done.LatNanos))
				}
				if bs := bst.Snap; bs != nil {
					ms.blobs[wi] = BlobStats{
						Published: bs.Published, Delivered: bs.Delivered, Dropped: bs.Dropped,
						ChunksReceived: bs.ChunksReceived, ChunkDups: bs.ChunkDups, ChunksPulled: bs.ChunksPulled,
						ChunksServed: bs.ChunksServed, WantsSent: bs.WantsSent, ChunkBytesSent: bs.ChunkBytesSent,
					}
				}
			}
			if hard != nil {
				for _, d := range ns.HardNanos {
					hard.AddDuration(time.Duration(d))
				}
			}
			if ns.HasTraffic && sc.probed(ProbeTraffic) {
				delta := ns.Traffic.Sub(ns.TrafficBase)
				ms.traffic = &memberTraffic{stab: ns.TrafficBase.BytesOut, up: delta.BytesOut, down: delta.BytesIn}
			}
			snap.survivors = append(snap.survivors, ms)
		}
	})
	return snap, nil
}

// close drops the agent control connections — each agent then kills every
// worker that connection spawned — and stops the monitor collector.
func (dn *distNet) close() {
	for _, a := range dn.agents {
		a.conn.Close()
	}
	if dn.mon != nil {
		dn.mon.Close()
	}
}

// ---------------------------------------------------------------- agents

// distCtrlReq/distCtrlResp are the brisa-agent control protocol (JSON
// lines, pipelined by request id).
type distCtrlReq struct {
	ID     int64           `json:"id"`
	Op     string          `json:"op"`
	Spec   *DistWorkerSpec `json:"spec,omitempty"`
	Worker int             `json:"worker,omitempty"`
	Req    json.RawMessage `json:"req,omitempty"`
}

type distCtrlResp struct {
	ID     int64           `json:"id"`
	OK     bool            `json:"ok"`
	Err    string          `json:"err,omitempty"`
	Worker int             `json:"worker,omitempty"`
	Addr   string          `json:"addr,omitempty"`
	Node   string          `json:"node,omitempty"`
	Resp   json.RawMessage `json:"resp,omitempty"`
}

// agentConn is one control connection to a brisa-agent: requests carry
// correlation ids, a reader goroutine routes responses back to callers, so
// independent goroutines (publish pacing, churn, flush barriers) share it.
type agentConn struct {
	addr string
	conn net.Conn

	sendMu sync.Mutex
	mu     sync.Mutex
	next   int64
	pend   map[int64]chan distCtrlResp
	broken error
}

func dialAgent(addr string, timeout time.Duration) (*agentConn, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("agent %s: %w", addr, err)
	}
	a := &agentConn{addr: addr, conn: conn, pend: make(map[int64]chan distCtrlResp)}
	go a.readLoop()
	return a, nil
}

func (a *agentConn) readLoop() {
	in := bufio.NewScanner(a.conn)
	in.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for in.Scan() {
		var resp distCtrlResp
		if err := json.Unmarshal(in.Bytes(), &resp); err != nil {
			continue
		}
		a.mu.Lock()
		ch := a.pend[resp.ID]
		delete(a.pend, resp.ID)
		a.mu.Unlock()
		if ch != nil {
			ch <- resp
		}
	}
	err := in.Err()
	if err == nil {
		err = fmt.Errorf("agent %s: connection closed", a.addr)
	}
	a.mu.Lock()
	a.broken = err
	pend := a.pend
	a.pend = make(map[int64]chan distCtrlResp)
	a.mu.Unlock()
	for _, ch := range pend { //brisa:orderinvariant failing every pending call; order immaterial
		ch <- distCtrlResp{Err: err.Error()}
	}
}

// call sends one request and waits for its response; a response the agent
// marked failed comes back as an error.
func (a *agentConn) call(ctx context.Context, req distCtrlReq) (distCtrlResp, error) {
	ch := make(chan distCtrlResp, 1)
	a.mu.Lock()
	if a.broken != nil {
		err := a.broken
		a.mu.Unlock()
		return distCtrlResp{}, err
	}
	a.next++
	req.ID = a.next
	a.pend[req.ID] = ch
	a.mu.Unlock()

	raw, err := json.Marshal(req)
	if err != nil {
		return distCtrlResp{}, err
	}
	raw = append(raw, '\n')
	a.sendMu.Lock()
	_, err = a.conn.Write(raw)
	a.sendMu.Unlock()
	if err != nil {
		a.mu.Lock()
		delete(a.pend, req.ID)
		a.mu.Unlock()
		return distCtrlResp{}, fmt.Errorf("agent %s: %w", a.addr, err)
	}
	select {
	case resp := <-ch:
		if !resp.OK {
			return resp, fmt.Errorf("agent %s: %s", a.addr, resp.Err)
		}
		return resp, nil
	case <-ctx.Done():
		a.mu.Lock()
		delete(a.pend, req.ID)
		a.mu.Unlock()
		return distCtrlResp{}, ctx.Err()
	}
}

// workerCmd relays one command to a worker process through its agent and
// decodes the worker's response.
func (a *agentConn) workerCmd(ctx context.Context, worker int, cmd distWorkerCmd) (distWorkerResp, error) {
	raw, err := json.Marshal(cmd)
	if err != nil {
		return distWorkerResp{}, err
	}
	resp, err := a.call(ctx, distCtrlReq{Op: "cmd", Worker: worker, Req: raw})
	if err != nil {
		return distWorkerResp{}, err
	}
	var wr distWorkerResp
	if err := json.Unmarshal(resp.Resp, &wr); err != nil {
		return distWorkerResp{}, fmt.Errorf("agent %s: bad worker response: %w", a.addr, err)
	}
	if !wr.OK {
		return wr, fmt.Errorf("worker %d: %s", worker, wr.Err)
	}
	return wr, nil
}
