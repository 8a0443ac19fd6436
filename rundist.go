package brisa

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/stats"
)

// DistRuntime runs scenarios across machines: real peer processes spawned by
// pre-started brisa-agent daemons (one per host), measured through the same
// control channel that drives them — each flush barrier's answers are folded
// into the shared Report. The unchanged Scenario grammar applies — Topology
// places join-indexed peers round-robin across the agents (PeerConfig
// re-keying carries over), Workloads and BlobWorkloads are dispatched to the
// owning agent, and Churn scripts kill and restart real remote processes.
//
// Everything works with all agents on 127.0.0.1 (how CI exercises it) and
// across real hosts: workers never dial back, so the driver only needs to
// reach the agents. Latencies join each receiver's wall clock against the
// publisher's, so across hosts they inherit the hosts' clock
// synchronization. Like LiveRuntime, dist runs are wall-clock and not
// seed-reproducible.
type DistRuntime struct {
	// Agents are the control addresses of pre-started brisa-agent daemons
	// ("host:port"). Required; peers are placed round-robin across them in
	// join-index order.
	Agents []string
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

// distFlushTimeout bounds each flush barrier: a worker that has not answered
// every page by then fails the run (spawned workers answer in milliseconds;
// the headroom covers loaded CI machines).
const distFlushTimeout = 30 * time.Second

// Run executes the scenario across the runtime's agents: one worker process
// per topology slot (round-robin), workloads dispatched to the owning agents
// in wall time, the churn script replayed by killing and spawning real
// remote processes, and the workers' measurements — collected at flush
// barriers — folded into a Report of the same shape the other runtimes
// produce. Prefer the package-level Run, which applies defaults and stamps
// run metadata.
func (rt DistRuntime) Run(ctx context.Context, sc Scenario) (*Report, error) {
	sc = sc.withDefaults()
	dn := &distNet{rt: rt}
	dn.overlay = newOverlay[*distMember](sc, dn, distStabilize)
	return runScenario(ctx, dn, sc)
}

// distNet is the distributed runtime's world: an overlay of worker processes
// across the agents, measured at flush barriers.
type distNet struct {
	overlay[*distMember]
	rt     DistRuntime
	col    *collector
	agents []*agentConn
}

// distMember is one remote worker process, with the accumulators its flush
// answers are folded into.
type distMember struct {
	dn     *distNet
	agent  *agentConn
	worker int // agent-assigned worker handle
	addr   string
	id     NodeID

	accs  []*nodeAcc
	baccs []*blobAcc
	hard  *stats.Sample // nil unless ProbeRepairs
	state *distState    // as of the last barrier
	base  WireTraffic   // traffic at markStart (zero for churn joiners)
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

// delivered and blobsDelivered ask the worker (0 when it does not answer).
func (m *distMember) delivered(wi int) int {
	resp, _ := m.cmd(distWorkerCmd{Op: "count", WI: wi})
	return int(resp.Count)
}

func (m *distMember) blobsDelivered(wi int) int {
	resp, _ := m.cmd(distWorkerCmd{Op: "count", WI: wi, Blob: true})
	return int(resp.Count)
}

// kill SIGKILLs the worker process through its agent, which reaps it.
func (m *distMember) kill() {
	_, _ = m.agent.call(m.dn.ctx, distCtrlReq{Op: "kill", Worker: m.worker})
}

// flush pages through the cut the worker takes at the barrier's first
// request, folding each page.
func (m *distMember) flush(ctx context.Context) error {
	for first := true; ; first = false {
		resp, err := m.agent.workerCmd(ctx, m.worker, distWorkerCmd{Op: "flush"})
		if err != nil {
			return err
		}
		if first && resp.Page != nil && resp.Page.State == nil {
			return errors.New("first flush page carries no state")
		}
		if err := m.fold(resp.Page); err != nil {
			return err
		}
		if !resp.Page.More {
			return nil
		}
	}
}

// fold checks one flush page against the scenario and, only if all of it
// fits, adds it through the collector calls the in-process runtimes make.
func (m *distMember) fold(p *distPage) error {
	if err := p.check(m.dn.sc); err != nil {
		return err
	}
	col := m.dn.col
	for wi, samples := range p.Samples {
		for _, s := range samples {
			col.delivered(wi, m.accs[wi], m.id, s.Seq, time.Unix(0, s.At))
		}
	}
	for wi, n := range p.Dups {
		m.accs[wi].dups += n
	}
	if m.hard != nil {
		for _, d := range p.Hard {
			m.hard.AddDuration(d)
		}
	}
	for _, b := range p.Blobs {
		m.baccs[b.WI].recs[b.ID] = newBlobRec(b.Hash, b.Size, b.Lat)
	}
	if p.State != nil {
		m.state = p.State
	}
	return nil
}

// check refuses a page that does not fit the scenario, so a broken or
// hostile worker fails the run instead of indexing out of range or skewing
// a fold.
func (p *distPage) check(sc Scenario) error {
	if p == nil {
		return errors.New("flush answer carries no page")
	}
	nw, nb := len(sc.Workloads), len(sc.BlobWorkloads)
	if len(p.Samples) > nw || len(p.Dups) > nw {
		return fmt.Errorf("page covers %d workloads, the scenario has %d", max(len(p.Samples), len(p.Dups)), nw)
	}
	if n := p.samples(); n > distDeliveryBatch {
		return fmt.Errorf("page holds %d samples, max %d", n, distDeliveryBatch)
	}
	for _, d := range p.Hard {
		if d < 0 {
			return fmt.Errorf("negative hard-repair delay %v", d)
		}
	}
	for _, b := range p.Blobs {
		if b.WI < 0 || b.WI >= nb {
			return fmt.Errorf("completion for blob workload %d, the scenario has %d", b.WI, nb)
		}
		if b.Size < 0 || b.Lat < 0 {
			return fmt.Errorf("blob %d: size %d and latency %v must not be negative", b.ID, b.Size, b.Lat)
		}
	}
	if st := p.State; st != nil {
		if len(st.Streams) != nw || len(st.Blobs) != nb {
			return fmt.Errorf("state covers %d workloads and %d blob workloads, the scenario has %d and %d",
				len(st.Streams), len(st.Blobs), nw, nb)
		}
		for wi, s := range st.Streams {
			if s.Construction < 0 {
				return fmt.Errorf("workload %d: negative construction time %v", wi, s.Construction)
			}
		}
	}
	return nil
}

// snapshot is the member's end-of-run state as of the last barrier.
func (m *distMember) snapshot() memberSnapshot {
	ms := memberSnapshot{id: m.id, blobs: m.state.Blobs}
	for _, s := range m.state.Streams {
		ms.streams = append(ms.streams, s.peerSnapshot())
	}
	if m.dn.sc.probed(ProbeTraffic) {
		delta := m.state.Traffic.Sub(m.base)
		ms.traffic = &memberTraffic{stab: m.base.BytesOut, up: delta.BytesOut, down: delta.BytesIn}
	}
	return ms
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

// spawn implements host: start one worker on its round-robin agent and
// register its accumulators, so a member that dies mid-run keeps what its
// last barrier folded, as on the other runtimes.
func (dn *distNet) spawn(idx int, cfg Config) (*distMember, error) {
	dc, err := distConfigOf(cfg)
	if err != nil {
		return nil, err
	}
	a := dn.agents[idx%len(dn.agents)]
	resp, err := a.call(dn.ctx, distCtrlReq{Op: "spawn", Spec: &DistWorkerSpec{
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
	return dn.member(a, resp.Worker, resp.Addr, id), nil
}

func (dn *distNet) member(a *agentConn, worker int, addr string, id NodeID) *distMember {
	m := &distMember{dn: dn, agent: a, worker: worker, addr: addr, id: id}
	m.accs, m.baccs, m.hard = dn.col.register(id)
	return m
}

// bringUp dials the agents, spawns the initial workers and bootstraps them.
func (dn *distNet) bringUp(ctx context.Context, col *collector) error {
	dn.col = col
	rt := dn.rt
	if len(rt.Agents) == 0 {
		return fmt.Errorf("DistRuntime needs at least one agent address")
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
	return dn.connect(ctx)
}

// markStart takes the traffic baseline behind a flush barrier — every
// node's counters at dissemination start; bytes before it are the
// stabilization phase — and starts the clock.
func (dn *distNet) markStart(ctx context.Context) error {
	if dn.sc.probed(ProbeTraffic) {
		if err := dn.flushBarrier(ctx); err != nil {
			return fmt.Errorf("baseline: %w", err)
		}
		for _, m := range dn.alive() {
			m.base = m.state.Traffic
		}
	}
	dn.t0 = time.Now()
	return nil
}

// publish dispatches through the source's agent; the worker answers with
// the publish instant on its own clock.
func (dn *distNet) publish(wi, _ int) error {
	resp, err := dn.slots[dn.sc.Workloads[wi].Source].m.cmd(distWorkerCmd{Op: "publish", WI: wi})
	if err == nil {
		dn.col.published(wi, resp.Seq, time.Unix(0, resp.At))
	}
	return err
}

func (dn *distNet) publishBlob(wi, i int) error {
	m := dn.slots[dn.sc.BlobWorkloads[wi].Source].m
	resp, err := m.cmd(distWorkerCmd{Op: "publishblob", WI: wi, Index: i})
	if err == nil && resp.Size < 0 {
		err = fmt.Errorf("node %v: negative blob size %d", m.id, resp.Size)
	}
	if err == nil {
		// Recording after the call is safe: hash verification runs at fold time.
		dn.col.blobPublished(wi, resp.Seq, resp.Size, resp.Hash)
	}
	return err
}

// flushBarrier collects from every alive worker, in parallel, everything it
// measured up to the cut it takes at the barrier's first request, and folds
// it. A worker that does not answer within distFlushTimeout, or answers
// something that does not fit the scenario, fails the barrier by name.
func (dn *distNet) flushBarrier(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, distFlushTimeout)
	defer cancel()
	members := dn.alive()
	var wg sync.WaitGroup
	errs := make([]error, len(members))
	for i, m := range members {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = m.flush(ctx)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("flush node %v: %w", members[i].id, err)
		}
	}
	return nil
}

// metrics reads every alive node's protocol counters behind a flush
// barrier. As on the live runtime, counters of nodes that die afterwards
// are lost with their process.
func (dn *distNet) metrics(ctx context.Context) (map[NodeID]Metrics, error) {
	if err := dn.flushBarrier(ctx); err != nil {
		return nil, err
	}
	out := make(map[NodeID]Metrics)
	for _, m := range dn.alive() {
		out[m.id] = m.state.Metrics
	}
	return out, nil
}

// snapshot passes the final flush barrier, which folds every survivor's
// last measurements, and reads the survivors' end-of-run state.
func (dn *distNet) snapshot(ctx context.Context) (*worldSnapshot, error) {
	if err := dn.flushBarrier(ctx); err != nil {
		return nil, fmt.Errorf("final flush: %w", err)
	}
	snap := &worldSnapshot{nodes: dn.sc.Topology.Nodes}
	for _, m := range dn.alive() {
		snap.survivors = append(snap.survivors, m.snapshot())
	}
	return snap, nil
}

// close drops the agent control connections; each agent then kills every
// worker that connection spawned.
func (dn *distNet) close() {
	for _, a := range dn.agents {
		a.conn.Close()
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

// readLoop routes each answer line to its caller. A line that does not
// decode cannot be routed, so it ends the connection like EOF: every pending
// call fails with the decode error instead of waiting for the run's context.
func (a *agentConn) readLoop() {
	in := bufio.NewScanner(a.conn)
	in.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	var err error
	for in.Scan() {
		var resp distCtrlResp
		if err = json.Unmarshal(in.Bytes(), &resp); err != nil {
			err = fmt.Errorf("agent %s: undecodable answer: %w", a.addr, err)
			break
		}
		a.mu.Lock()
		ch := a.pend[resp.ID]
		delete(a.pend, resp.ID)
		a.mu.Unlock()
		if ch != nil {
			ch <- resp
		}
	}
	if err == nil {
		err = in.Err()
	}
	if err == nil {
		err = fmt.Errorf("agent %s: connection closed", a.addr)
	}
	a.conn.Close()
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
