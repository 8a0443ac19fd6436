package brisa

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/core"
)

// DistConfig is the JSON-serializable subset of Config a distributed worker
// process can be handed: Config carries function values (Strategy and
// callbacks) that cannot cross a process boundary, so DistRuntime lowers each
// peer's derived Config onto this shape and the worker lifts it back.
// Strategies travel by name.
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
// the peer's configuration, and the scenario's workload/probe tables (for
// instrumentation and source-side publishing). brisa-agent serializes it into
// the worker's environment.
type DistWorkerSpec struct {
	Listen        string         `json:"listen"`
	Config        DistConfig     `json:"config"`
	Workloads     []Workload     `json:"workloads,omitempty"`
	BlobWorkloads []BlobWorkload `json:"blob_workloads,omitempty"`
	Probes        []Probe        `json:"probes,omitempty"`
}

func (spec DistWorkerSpec) probed(p Probe) bool { return Scenario{Probes: spec.Probes}.probed(p) }

// distDeliveryBatch bounds the samples — deliveries, hard-repair delays and
// blob completions — one flush answer carries: under 200 KB of JSON, far
// below the agent channel's 1 MiB line bound.
const distDeliveryBatch = 2048

// distWorker is one remote peer process: a live Node plus the measurements
// its actor callbacks buffer until a flush barrier collects them.
type distWorker struct {
	spec DistWorkerSpec
	node *Node

	mu  sync.Mutex // guards buf: the actor callbacks fill it, a barrier cuts it
	buf distPage   // measured since the last cut
	cut *distPage  // what the current barrier has yet to page out, nil between barriers
}

// distWorkerCmd is one driver command, relayed by the agent as a JSON line
// on the worker's stdin.
type distWorkerCmd struct {
	Op       string   `json:"op"`
	Contacts []string `json:"contacts,omitempty"`
	Wait     bool     `json:"wait,omitempty"`
	WI       int      `json:"wi,omitempty"`
	Index    int      `json:"index,omitempty"`
	Blob     bool     `json:"blob,omitempty"` // count: WI is a blob workload
}

// distWorkerResp is the single JSON line answering each command (and the
// hello line at startup).
type distWorkerResp struct {
	OK        bool      `json:"ok"`
	Err       string    `json:"err,omitempty"`
	Addr      string    `json:"addr,omitempty"`
	Node      string    `json:"node,omitempty"`
	Neighbors int       `json:"neighbors,omitempty"`
	Seq       uint32    `json:"seq,omitempty"`   // publish: sequence; publishblob: blob id
	At        int64     `json:"at,omitempty"`    // publish: unix ns on the publisher's clock
	Size      int       `json:"size,omitempty"`  // publishblob: payload bytes
	Hash      uint64    `json:"hash,omitempty"`  // publishblob: FNV-64a of the payload
	Count     uint64    `json:"count,omitempty"` // count
	Page      *distPage `json:"page,omitempty"`  // flush
}

// distSample is one delivery: sequence number and receiver-clock instant.
type distSample struct {
	Seq uint32 `json:"q"`
	At  int64  `json:"t"` // unix nanoseconds
}

// distBlobDone is one completed blob reconstruction.
type distBlobDone struct {
	WI   int           `json:"wi"`
	ID   uint32        `json:"id"`
	Hash uint64        `json:"hash"` // FNV-64a of the reassembled bytes
	Size int           `json:"size"`
	Lat  time.Duration `json:"lat"` // first chunk → reconstruction, on the node's clock
}

// distPage answers one flush command with part of the cut the worker took
// at the barrier's first request: per-workload deliveries, hard-repair
// delays and blob completions, at most distDeliveryBatch of them together.
// The first page carries the rest of the cut too.
type distPage struct {
	More    bool            `json:"more,omitempty"`    // the cut has further pages
	Samples [][]distSample  `json:"samples,omitempty"` // per workload
	Hard    []time.Duration `json:"hard,omitempty"`
	Dups    []uint64        `json:"dups,omitempty"` // per workload, since the last cut
	Blobs   []distBlobDone  `json:"blobs,omitempty"`
	State   *distState      `json:"state,omitempty"`
}

// samples counts the page's paged entries.
func (p *distPage) samples() int {
	n := len(p.Hard) + len(p.Blobs)
	for _, s := range p.Samples {
		n += len(s)
	}
	return n
}

// distState is the worker's cumulative state at a cut.
type distState struct {
	Traffic WireTraffic      `json:"traffic"`
	Metrics Metrics          `json:"metrics"`
	Streams []distStreamSnap `json:"streams,omitempty"` // per workload
	Blobs   []BlobStats      `json:"blobs,omitempty"`   // per blob workload
}

// distStreamSnap is a peerSnapshot on the wire.
type distStreamSnap struct {
	Delivered    uint64        `json:"delivered"`
	Orphan       bool          `json:"orphan,omitempty"`
	Parents      []NodeID      `json:"parents,omitempty"`
	Depth        int           `json:"depth,omitempty"`
	DepthOK      bool          `json:"depth_ok,omitempty"`
	Construction time.Duration `json:"construction,omitempty"`
	ConstructOK  bool          `json:"construct_ok,omitempty"`
}

func wireSnapshot(s peerSnapshot) distStreamSnap {
	return distStreamSnap{s.delivered, s.orphan, s.parents, s.depth, s.depthOK, s.construction, s.constructOK}
}

func (s distStreamSnap) peerSnapshot() peerSnapshot {
	return peerSnapshot{s.Delivered, s.Orphan, s.Parents, s.Depth, s.DepthOK, s.Construction, s.ConstructOK}
}

// RunDistWorker is the body of a distributed peer process (brisa-agent
// re-executes itself in worker mode and calls this). It binds a live Node
// from the spec and serves driver commands as JSON lines on stdin/stdout
// until stdin closes or a close command arrives; measurements leave only as
// answers to flush commands. Logs go to stderr; stdout carries exactly the
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
	w := newDistWorker(spec, n)

	// The hello line tells the agent (and through it the driver) the bound
	// address and derived node id.
	out := json.NewEncoder(os.Stdout)
	if err := out.Encode(distWorkerResp{OK: true, Addr: n.Addr(), Node: n.ID().String()}); err != nil {
		return err
	}

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

// newDistWorker wraps a node and registers the listeners that fill its
// buffers.
func newDistWorker(spec DistWorkerSpec, n *Node) *distWorker {
	w := &distWorker{spec: spec, node: n, buf: newDistBuf(len(spec.Workloads))}
	w.instrument()
	return w
}

func newDistBuf(workloads int) distPage {
	return distPage{Samples: make([][]distSample, workloads), Dups: make([]uint64, workloads)}
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
	case "count":
		n := len(w.spec.Workloads)
		if cmd.Blob {
			n = len(w.spec.BlobWorkloads)
		}
		if cmd.WI < 0 || cmd.WI >= n {
			return distWorkerResp{Err: fmt.Sprintf("count: no workload %d", cmd.WI)}, false
		}
		if cmd.Blob {
			return distWorkerResp{OK: true, Count: w.node.BlobsDelivered(w.spec.BlobWorkloads[cmd.WI].Stream)}, false
		}
		return distWorkerResp{OK: true, Count: w.node.DeliveredCount(w.spec.Workloads[cmd.WI].Stream)}, false
	case "publish":
		if cmd.WI < 0 || cmd.WI >= len(w.spec.Workloads) {
			return distWorkerResp{Err: fmt.Sprintf("publish: no workload %d", cmd.WI)}, false
		}
		wl := w.spec.Workloads[cmd.WI]
		// The injection instant is read before Publish, like the live
		// runtime; the driver joins it with deliveries at each barrier.
		at := time.Now()
		seq := w.node.Publish(wl.Stream, make([]byte, wl.Payload))
		return distWorkerResp{OK: true, Seq: seq, At: at.UnixNano()}, false
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
		return distWorkerResp{OK: true, Seq: id, Size: len(data), Hash: blobHash(data)}, false
	case "flush":
		return distWorkerResp{OK: true, Page: w.page()}, false
	case "close":
		w.node.Close()
		return distWorkerResp{OK: true}, true
	default:
		return distWorkerResp{Err: fmt.Sprintf("unknown op %q", cmd.Op)}, false
	}
}

// instrument registers the actor-side listeners; they only append to the
// worker's buffers under its mutex. As in the in-process collector, delivery
// samples are taken under ProbeLatency only, and blob completions always:
// blob reliability is verified against them.
func (w *distWorker) instrument() {
	wantDups := w.spec.probed(ProbeDuplicates)
	wantRepairs := w.spec.probed(ProbeRepairs)
	p := w.node.peer.brisa
	if w.spec.probed(ProbeLatency) {
		for wi, wl := range w.spec.Workloads {
			p.Deliveries().Add(func(d core.Delivery) {
				if d.Stream != wl.Stream {
					return
				}
				s := distSample{Seq: d.Seq, At: time.Now().UnixNano()}
				w.mu.Lock()
				w.buf.Samples[wi] = append(w.buf.Samples[wi], s)
				w.mu.Unlock()
			})
		}
	}
	for wi, wl := range w.spec.BlobWorkloads {
		p.Blobs().Add(func(d core.BlobDelivery) {
			if d.Stream != wl.Stream {
				return
			}
			done := distBlobDone{WI: wi, ID: d.ID, Hash: blobHash(d.Data), Size: len(d.Data), Lat: d.At.Sub(d.FirstChunkAt)}
			w.mu.Lock()
			w.buf.Blobs = append(w.buf.Blobs, done)
			w.mu.Unlock()
		})
	}
	if !wantDups && !wantRepairs {
		return
	}
	p.Events().Add(func(ev Event) {
		switch {
		case wantDups && ev.Type == EvDuplicate:
			for wi, wl := range w.spec.Workloads {
				if wl.Stream == ev.Stream {
					w.mu.Lock()
					w.buf.Dups[wi]++
					w.mu.Unlock()
				}
			}
		case wantRepairs && ev.Type == EvRepaired && ev.Hard:
			w.mu.Lock()
			w.buf.Hard = append(w.buf.Hard, ev.Dur)
			w.mu.Unlock()
		}
	})
}

// page answers one flush command. A barrier's first request cuts the buffers
// and reads the node's state; every request then pages out at most
// distDeliveryBatch samples of that cut, so a barrier ends however fast new
// deliveries arrive and each sample leaves exactly once.
func (w *distWorker) page() *distPage {
	if w.cut == nil {
		w.mu.Lock()
		cut := w.buf
		w.buf = newDistBuf(len(w.spec.Workloads))
		w.mu.Unlock()
		cut.State = w.state()
		w.cut = &cut
	}
	page := *w.cut
	rest := distPage{Samples: make([][]distSample, len(page.Samples))}
	page.Samples = make([][]distSample, len(rest.Samples))
	budget := distDeliveryBatch
	for wi, s := range w.cut.Samples {
		page.Samples[wi], rest.Samples[wi] = split(s, &budget)
	}
	page.Hard, rest.Hard = split(page.Hard, &budget)
	page.Blobs, rest.Blobs = split(page.Blobs, &budget)
	w.cut = nil
	if page.More = rest.samples() > 0; page.More {
		w.cut = &rest
	}
	return &page
}

// split cuts up to *budget elements off the front of s.
func split[T any](s []T, budget *int) (head, tail []T) {
	n := min(len(s), *budget)
	*budget -= n
	return s[:n], s[n:]
}

// state reads the node's cumulative state for a cut.
func (w *distWorker) state() *distState {
	st := &distState{Traffic: w.node.Traffic(), Metrics: w.node.Metrics()}
	w.node.Do(func(p *Peer) {
		for _, wl := range w.spec.Workloads {
			st.Streams = append(st.Streams, wireSnapshot(snapshotPeer(p, wl.Stream)))
		}
		for _, wl := range w.spec.BlobWorkloads {
			st.Blobs = append(st.Blobs, p.BlobStats(wl.Stream))
		}
	})
	return st
}
