package brisa

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/monitor"
)

// DistConfig is the JSON-serializable subset of Config a distributed worker
// process can be handed: Config carries function values (Strategy, callbacks,
// HyParView overrides) that cannot cross a process boundary, so DistRuntime
// lowers each peer's derived Config onto this shape and the worker lifts it
// back. Strategies travel by name.
type DistConfig struct {
	Mode                         Mode    `json:"mode"`
	Parents                      int     `json:"parents,omitempty"`
	Strategy                     string  `json:"strategy,omitempty"`
	ViewSize                     int     `json:"view_size,omitempty"`
	ExpansionFactor              float64 `json:"expansion_factor,omitempty"`
	DisablePiggyback             bool    `json:"disable_piggyback,omitempty"`
	DisableSymmetricDeactivation bool    `json:"disable_symmetric_deactivation,omitempty"`
}

// distStrategyNames maps the built-in parent-selection strategies to their
// wire names. An empty name means "default" (FirstCome).
func distStrategyName(s Strategy) (string, error) {
	switch s.(type) {
	case nil:
		return "", nil
	case FirstCome:
		return "first-come", nil
	case DelayAware:
		return "delay-aware", nil
	case Gerontocratic:
		return "gerontocratic", nil
	case LoadBalancing:
		return "load-balancing", nil
	default:
		return "", fmt.Errorf("brisa: dist: custom Strategy %T cannot cross a process boundary", s)
	}
}

func distStrategyOf(name string) (Strategy, error) {
	switch name {
	case "":
		return nil, nil
	case "first-come":
		return FirstCome{}, nil
	case "delay-aware":
		return DelayAware{}, nil
	case "gerontocratic":
		return Gerontocratic{}, nil
	case "load-balancing":
		return LoadBalancing{}, nil
	default:
		return nil, fmt.Errorf("brisa: dist: unknown strategy %q", name)
	}
}

// distConfigOf lowers a peer Config onto its serializable form, or reports
// why it cannot run remotely (function-valued fields have no wire form).
func distConfigOf(cfg Config) (DistConfig, error) {
	if cfg.HyParView != nil {
		return DistConfig{}, fmt.Errorf("brisa: dist: HyParView override cannot cross a process boundary")
	}
	if cfg.OnDeliver != nil || cfg.OnEvent != nil {
		return DistConfig{}, fmt.Errorf("brisa: dist: OnDeliver/OnEvent callbacks cannot cross a process boundary")
	}
	name, err := distStrategyName(cfg.Strategy)
	if err != nil {
		return DistConfig{}, err
	}
	return DistConfig{
		Mode:                         cfg.Mode,
		Parents:                      cfg.Parents,
		Strategy:                     name,
		ViewSize:                     cfg.ViewSize,
		ExpansionFactor:              cfg.ExpansionFactor,
		DisablePiggyback:             cfg.DisablePiggyback,
		DisableSymmetricDeactivation: cfg.DisableSymmetricDeactivation,
	}, nil
}

// toConfig lifts the serialized form back into a peer Config.
func (dc DistConfig) toConfig() (Config, error) {
	strat, err := distStrategyOf(dc.Strategy)
	if err != nil {
		return Config{}, err
	}
	return Config{
		Mode:                         dc.Mode,
		Parents:                      dc.Parents,
		Strategy:                     strat,
		ViewSize:                     dc.ViewSize,
		ExpansionFactor:              dc.ExpansionFactor,
		DisablePiggyback:             dc.DisablePiggyback,
		DisableSymmetricDeactivation: dc.DisableSymmetricDeactivation,
	}, nil
}

// DistWorkerSpec is everything one remote peer process needs: where to bind,
// where the driver's monitor collector listens, the peer's configuration,
// and the scenario's workload/probe tables (for instrumentation and
// source-side publishing). brisa-agent serializes it into the worker's
// environment.
type DistWorkerSpec struct {
	Agent         string         `json:"agent"` // agent label, e.g. its control address
	Index         int            `json:"index"` // join index in creation order
	Listen        string         `json:"listen"`
	Monitor       string         `json:"monitor"`
	Config        DistConfig     `json:"config"`
	Workloads     []Workload     `json:"workloads,omitempty"`
	BlobWorkloads []BlobWorkload `json:"blob_workloads,omitempty"`
	Probes        []Probe        `json:"probes,omitempty"`
}

func (spec DistWorkerSpec) probed(p Probe) bool { return Scenario{Probes: spec.Probes}.probed(p) }

// distFlushEvery paces the worker's periodic measurement flush: fresh enough
// for the driver's drain polls, coarse enough to batch deliveries.
const distFlushEvery = 100 * time.Millisecond

// distDeliveryBatch bounds delivery samples per Deliveries frame (well under
// the decoder's element bound and the frame size bound).
const distDeliveryBatch = 2048

// distWorker is one remote peer process: a live Node plus the measurement
// buffers its actor callbacks fill, streamed to the driver's collector.
type distWorker struct {
	spec DistWorkerSpec
	node *Node

	sendMu sync.Mutex // serializes monitor frames (flusher vs command loop)
	conn   net.Conn

	mu      sync.Mutex        // guards the measurement buffers
	samples [][]monitor.SeqAt // per workload, drained each flush
	dups    []uint64          // per workload, delta since last flush
	hard    []int64           // hard-repair delays, delta since last flush
}

// distWorkerCmd is one driver command, relayed by the agent as a JSON line
// on the worker's stdin.
type distWorkerCmd struct {
	Op       string   `json:"op"`
	Contacts []string `json:"contacts,omitempty"`
	Wait     bool     `json:"wait,omitempty"`
	WI       int      `json:"wi,omitempty"`
	Index    int      `json:"index,omitempty"`
	Token    uint64   `json:"token,omitempty"`
}

// distWorkerResp is the single JSON line answering each command (and the
// hello line at startup).
type distWorkerResp struct {
	OK        bool   `json:"ok"`
	Err       string `json:"err,omitempty"`
	Addr      string `json:"addr,omitempty"`
	Node      string `json:"node,omitempty"`
	Neighbors int    `json:"neighbors,omitempty"`
	Seq       uint32 `json:"seq,omitempty"`
}

// RunDistWorker is the body of a distributed peer process (brisa-agent
// re-executes itself in worker mode and calls this). It binds a live Node
// from the spec, streams measurements to the monitor collector, and serves
// driver commands as JSON lines on stdin/stdout until stdin closes or a
// close command arrives. Logs go to stderr; stdout carries exactly the
// hello line and one response line per command.
func RunDistWorker(spec DistWorkerSpec) error {
	cfg, err := spec.Config.toConfig()
	if err != nil {
		return err
	}
	addr := spec.Listen
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	n, err := Listen(addr, cfg)
	if err != nil {
		return err
	}
	defer n.Close()
	conn, err := net.Dial("tcp", spec.Monitor)
	if err != nil {
		return fmt.Errorf("brisa: dist worker: monitor %s: %w", spec.Monitor, err)
	}
	defer conn.Close()

	w := &distWorker{
		spec:    spec,
		node:    n,
		conn:    conn,
		samples: make([][]monitor.SeqAt, len(spec.Workloads)),
		dups:    make([]uint64, len(spec.Workloads)),
	}
	if err := w.send(monitor.Hello{Agent: spec.Agent, Index: uint32(spec.Index), Node: n.ID()}); err != nil {
		return err
	}
	w.instrument()

	// The hello line tells the agent (and through it the driver) the bound
	// address and derived node id.
	out := json.NewEncoder(os.Stdout)
	if err := out.Encode(distWorkerResp{OK: true, Addr: n.Addr(), Node: n.ID().String()}); err != nil {
		return err
	}

	done := make(chan struct{})
	defer close(done)
	go func() {
		t := time.NewTicker(distFlushEvery)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				w.flushBuffers()
				w.sendTraffic()
			}
		}
	}()

	in := bufio.NewScanner(os.Stdin)
	in.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for in.Scan() {
		line := in.Bytes()
		if len(line) == 0 {
			continue
		}
		var cmd distWorkerCmd
		if err := json.Unmarshal(line, &cmd); err != nil {
			out.Encode(distWorkerResp{Err: "bad command: " + err.Error()})
			continue
		}
		resp, quit := w.handle(cmd)
		out.Encode(resp)
		if quit {
			return nil
		}
	}
	return in.Err()
}

// handle executes one driver command; quit=true ends the process.
func (w *distWorker) handle(cmd distWorkerCmd) (resp distWorkerResp, quit bool) {
	switch cmd.Op {
	case "join":
		if len(cmd.Contacts) == 0 {
			return distWorkerResp{Err: "join: no contacts"}, false
		}
		if cmd.Wait {
			if err := w.node.Join(cmd.Contacts...); err != nil {
				return distWorkerResp{Err: err.Error()}, false
			}
			return distWorkerResp{OK: true}, false
		}
		// Churn joins must not stall the command loop; a failed bootstrap
		// leaves the node isolated but alive, like a real bootstrap loss.
		contacts := append([]string(nil), cmd.Contacts...)
		go func() { _ = w.node.Join(contacts...) }()
		return distWorkerResp{OK: true}, false
	case "ready":
		return distWorkerResp{OK: true, Neighbors: len(w.node.Neighbors())}, false
	case "publish":
		if cmd.WI < 0 || cmd.WI >= len(w.spec.Workloads) {
			return distWorkerResp{Err: fmt.Sprintf("publish: no workload %d", cmd.WI)}, false
		}
		wl := w.spec.Workloads[cmd.WI]
		// The injection instant is read before Publish, like the live
		// runtime; the collector joins it with deliveries at fold time.
		at := time.Now()
		seq := w.node.Publish(wl.Stream, make([]byte, wl.Payload))
		if err := w.send(monitor.Publish{WI: uint16(cmd.WI), Seq: seq, At: at.UnixNano()}); err != nil {
			return distWorkerResp{Err: err.Error()}, false
		}
		return distWorkerResp{OK: true, Seq: seq}, false
	case "publishblob":
		if cmd.WI < 0 || cmd.WI >= len(w.spec.BlobWorkloads) {
			return distWorkerResp{Err: fmt.Sprintf("publishblob: no blob workload %d", cmd.WI)}, false
		}
		wl := w.spec.BlobWorkloads[cmd.WI]
		data := blobPayload(wl.Stream, cmd.Index, wl.Size)
		prm := wl.params()
		var id uint32
		var err error
		w.node.Do(func(p *Peer) { id, err = p.brisa.PublishBlob(wl.Stream, data, prm) })
		if err != nil {
			return distWorkerResp{Err: err.Error()}, false
		}
		if err := w.send(monitor.BlobPublished{WI: uint16(cmd.WI), Blob: id, Size: uint64(len(data)), Hash: blobHash(data)}); err != nil {
			return distWorkerResp{Err: err.Error()}, false
		}
		return distWorkerResp{OK: true, Seq: id}, false
	case "flush":
		if err := w.flushBarrier(cmd.Token); err != nil {
			return distWorkerResp{Err: err.Error()}, false
		}
		return distWorkerResp{OK: true}, false
	case "close":
		w.flushBarrier(0)
		w.node.Close()
		return distWorkerResp{OK: true}, true
	default:
		return distWorkerResp{Err: fmt.Sprintf("unknown op %q", cmd.Op)}, false
	}
}

// instrument registers the actor-side listeners. Callbacks only append to
// the worker's buffers under its mutex; framing and I/O happen on the
// flusher goroutine. Deliveries are always recorded — the driver's drain
// poll needs the counts even without the latency probe.
func (w *distWorker) instrument() {
	wantDups := w.spec.probed(ProbeDuplicates)
	wantRepairs := w.spec.probed(ProbeRepairs)
	n := w.node
	for wi := range w.spec.Workloads {
		wi := wi
		stream := w.spec.Workloads[wi].Stream
		n.peer.brisa.SubscribeFn(stream, func(seq uint32, _ []byte) {
			at := time.Now().UnixNano()
			w.mu.Lock()
			w.samples[wi] = append(w.samples[wi], monitor.SeqAt{Seq: seq, At: at})
			w.mu.Unlock()
		})
	}
	for wi := range w.spec.BlobWorkloads {
		wi := wi
		stream := w.spec.BlobWorkloads[wi].Stream
		n.peer.brisa.SubscribeBlobFn(stream, func(d core.BlobDelivery) {
			lat := d.At.Sub(d.FirstChunkAt)
			done := monitor.BlobDone{
				WI:       uint16(wi),
				Blob:     d.ID,
				Hash:     blobHash(d.Data),
				Bytes:    uint64(len(d.Data)),
				LatNanos: int64(lat),
			}
			// Blob completions are rare; send inline rather than buffering.
			w.send(done)
		})
	}
	if !wantDups && !wantRepairs {
		return
	}
	n.peer.brisa.SubscribeEvents(func(ev Event) {
		switch {
		case wantDups && ev.Type == EvDuplicate:
			for wi := range w.spec.Workloads {
				if w.spec.Workloads[wi].Stream == ev.Stream {
					w.mu.Lock()
					w.dups[wi]++
					w.mu.Unlock()
				}
			}
		case wantRepairs && ev.Type == EvRepaired && ev.Hard:
			w.mu.Lock()
			w.hard = append(w.hard, int64(ev.Dur))
			w.mu.Unlock()
		}
	})
}

// send writes one monitor frame, serialized against concurrent senders.
func (w *distWorker) send(m monitor.Message) error {
	w.sendMu.Lock()
	defer w.sendMu.Unlock()
	return monitor.WriteFrame(w.conn, m)
}

// flushBuffers drains the measurement buffers into monitor frames.
func (w *distWorker) flushBuffers() {
	w.mu.Lock()
	samples := make([][]monitor.SeqAt, len(w.samples))
	for wi := range w.samples {
		if len(w.samples[wi]) > 0 {
			samples[wi] = w.samples[wi]
			w.samples[wi] = nil
		}
	}
	dups := make([]uint64, len(w.dups))
	copy(dups, w.dups)
	for wi := range w.dups {
		w.dups[wi] = 0
	}
	hard := w.hard
	w.hard = nil
	w.mu.Unlock()

	for wi := range samples {
		for len(samples[wi]) > 0 {
			batch := samples[wi]
			if len(batch) > distDeliveryBatch {
				batch = batch[:distDeliveryBatch]
			}
			samples[wi] = samples[wi][len(batch):]
			w.send(monitor.Deliveries{WI: uint16(wi), Samples: batch})
		}
		if dups[wi] > 0 {
			w.send(monitor.Duplicates{WI: uint16(wi), Count: dups[wi]})
		}
	}
	if len(hard) > 0 {
		w.send(monitor.Repairs{HardNanos: hard})
	}
}

// sendTraffic reports the node's cumulative wire counters.
func (w *distWorker) sendTraffic() {
	t := w.node.Traffic()
	w.send(monitor.Traffic{MsgsIn: t.MsgsIn, MsgsOut: t.MsgsOut, BytesIn: t.BytesIn, BytesOut: t.BytesOut})
}

// flushBarrier drains everything the node has measured — buffers, traffic,
// protocol counters, per-stream snapshots — then emits the Flush marker, so
// once the collector passes the token it holds a consistent cut of this
// node's state.
func (w *distWorker) flushBarrier(token uint64) error {
	w.flushBuffers()
	w.sendTraffic()
	m := w.node.Metrics()
	if err := w.send(monitor.NodeMetrics{
		ParentsLost: m.ParentsLost, Orphans: m.Orphans,
		SoftRepairs: m.SoftRepairs, HardRepairs: m.HardRepairs,
	}); err != nil {
		return err
	}
	for wi := range w.spec.Workloads {
		stream := w.spec.Workloads[wi].Stream
		var snap peerSnapshot
		w.node.Do(func(p *Peer) { snap = snapshotPeer(p, stream) })
		if err := w.send(monitor.StreamSnap{
			WI:             uint16(wi),
			Delivered:      snap.delivered,
			Orphan:         snap.orphan,
			Parents:        snap.parents,
			Depth:          int32(snap.depth),
			DepthOK:        snap.depthOK,
			ConstructNanos: int64(snap.construction),
			ConstructOK:    snap.constructOK,
		}); err != nil {
			return err
		}
	}
	for wi := range w.spec.BlobWorkloads {
		bs := w.node.BlobStats(w.spec.BlobWorkloads[wi].Stream)
		if err := w.send(monitor.BlobSnap{
			WI:             uint16(wi),
			Published:      bs.Published,
			Delivered:      bs.Delivered,
			Dropped:        bs.Dropped,
			ChunksReceived: bs.ChunksReceived,
			ChunkDups:      bs.ChunkDups,
			ChunksPulled:   bs.ChunksPulled,
			ChunksServed:   bs.ChunksServed,
			WantsSent:      bs.WantsSent,
			ChunkBytesSent: bs.ChunkBytesSent,
		}); err != nil {
			return err
		}
	}
	return w.send(monitor.Flush{Token: token})
}
