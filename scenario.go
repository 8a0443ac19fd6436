package brisa

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/blob"
	"repro/internal/trace"
)

// DefaultInterval is the paper's injection rate: 5 messages per second.
const DefaultInterval = 200 * time.Millisecond

// Topology describes the network a scenario runs on: how many nodes, how
// they are configured, and what the wires between them look like. On the
// simulator every field applies; the live runner binds Nodes loopback TCP
// sockets and ignores the virtual-network fields (latency, bandwidth,
// processing delay), since real wires bring their own.
type Topology struct {
	// Nodes is the network size.
	Nodes int
	// Peer configures every peer.
	Peer Config
	// PeerConfig, when set, derives each peer's configuration from its
	// join index — 0-based creation order: cluster creation order on the
	// simulator, bind order on the live runtime, with churned-in nodes
	// continuing the count. Keying by index rather than NodeID keeps the
	// derivation identifier-independent, so the same heterogeneous
	// deployment comes up on both runtimes (overrides Peer).
	PeerConfig func(i int) Config
	// Latency is the simulated latency model (default ClusterLatency()).
	Latency LatencyModel
	// NodeBandwidth is each simulated node's shared egress throughput in
	// bytes/second (0 = infinite).
	NodeBandwidth int64
	// LinkBandwidth is the simulated per-link throughput in bytes/second
	// (0 = infinite).
	LinkBandwidth int64
	// ProcessingDelay adds per-message scheduling delay at simulated
	// receivers (see LogNormalDelay).
	ProcessingDelay func(r *rand.Rand) time.Duration
	// JoinInterval staggers the simulator's bootstrap joins (default
	// 50ms). The live runtime joins as fast as the overlay accepts each
	// node instead.
	JoinInterval time.Duration
	// StabilizeTime is how long the bootstrap runs after the last join
	// (default 15s of virtual time; the live runtime instead polls until
	// the overlay connects, bounded by this value, default 10s).
	StabilizeTime time.Duration
	// DetectDelay overrides the simulated failure-detection latency.
	DetectDelay time.Duration
}

// configFor derives the configuration of the peer with join index i — the
// id-independent derivation both runtimes share.
func (t Topology) configFor(i int) Config {
	if t.PeerConfig != nil {
		return t.PeerConfig(i)
	}
	return t.Peer
}

// clusterConfig lowers the topology onto the simulator's configuration.
func (t Topology) clusterConfig(seed int64) ClusterConfig {
	return ClusterConfig{
		Nodes:           t.Nodes,
		Peer:            t.Peer,
		PeerConfigAt:    t.PeerConfig,
		Seed:            seed,
		Latency:         t.Latency,
		JoinInterval:    t.JoinInterval,
		StabilizeTime:   t.StabilizeTime,
		DetectDelay:     t.DetectDelay,
		NodeBandwidth:   t.NodeBandwidth,
		LinkBandwidth:   t.LinkBandwidth,
		ProcessingDelay: t.ProcessingDelay,
	}
}

// Workload is one stream's injection plan: which node sources it, how many
// messages of what size, at what rate. A scenario carries one Workload per
// stream, so multi-stream and multi-source runs are plain data.
type Workload struct {
	// Stream names the stream; every workload of a scenario needs a
	// distinct one (a BRISA stream has a single source).
	Stream StreamID
	// Source is the index of the sourcing node in creation order
	// (Cluster.Peers() on the simulator, bind order on the live runner).
	Source int
	// Messages is how many messages the source publishes.
	Messages int
	// Payload is the payload size in bytes.
	Payload int
	// Interval spaces the publishes (default DefaultInterval, the paper's
	// 5 msg/s).
	Interval time.Duration
	// Start delays the first publish relative to the scenario's
	// dissemination start (default 0: all workloads start together).
	Start time.Duration
	// Warmup excludes the first Warmup sequence numbers from the latency
	// probe, for workloads that measure steady state only.
	Warmup int
}

// duration is the span from dissemination start to the workload's last
// publish.
func (w Workload) duration() time.Duration {
	if w.Messages <= 0 {
		return w.Start
	}
	return w.Start + time.Duration(w.Messages-1)*w.Interval
}

// DefaultBlobInterval spaces blob publishes: large payloads take longer to
// spread than the paper's 5 msg/s stream, so one blob per second.
const DefaultBlobInterval = time.Second

// BlobWorkload is one stream's large-payload injection plan: the source
// publishes Blobs payloads of Size bytes each, chunked and disseminated over
// the stream's emerged structure (see Peer.PublishBlob). Blob contents are
// deterministic functions of (stream, blob id), so receivers' reassembled
// bytes are verified against what the source published.
type BlobWorkload struct {
	// Stream names the stream; distinct from every other workload's (blob
	// or message) in the scenario.
	Stream StreamID
	// Source is the index of the sourcing node in creation order.
	Source int
	// Blobs is how many blobs the source publishes (default 1).
	Blobs int
	// Size is the bytes per blob. Required.
	Size int
	// ChunkSize is the bytes per data chunk (default 64 KiB).
	ChunkSize int
	// Total is the chunk count including parity: the blob splits into
	// K = ceil(Size/ChunkSize) data chunks, and any K of Total reconstruct
	// it (systematic Reed–Solomon over GF(256), so parity needs
	// Total ≤ 256). 0 means Total = K: no coding, every chunk required.
	Total int
	// Interval spaces the publishes (default DefaultBlobInterval).
	Interval time.Duration
	// Start delays the first publish relative to dissemination start.
	Start time.Duration
}

// duration is the span from dissemination start to the workload's last
// publish.
func (w BlobWorkload) duration() time.Duration {
	if w.Blobs <= 0 {
		return w.Start
	}
	return w.Start + time.Duration(w.Blobs-1)*w.Interval
}

// params lowers the workload onto the chunker's parameters.
func (w BlobWorkload) params() blob.Params {
	return blob.Params{ChunkSize: w.ChunkSize, Total: w.Total}
}

// Churn describes membership turbulence in the paper's Listing 1 trace
// syntax (Splay's churn language), e.g.
//
//	from 0s to 300s const churn 3% each 60s
//
// Workload sources are protected from failure, as in the paper. Both
// runtimes replay the same script grammar: the simulator crashes and joins
// virtual nodes in virtual time; the live runtime closes real nodes and
// listens fresh ones in wall time.
type Churn struct {
	// Script is the trace, with offsets relative to Start.
	Script string
	// Start delays the script relative to the scenario's dissemination
	// start (e.g. 10s lets the structure emerge first).
	Start time.Duration
}

// window returns the span covered by the script's directives.
func (ch Churn) window() (time.Duration, error) {
	_, end, err := ch.parse()
	return end, err
}

// parse returns the parsed script and the span its directives cover.
func (ch Churn) parse() (*trace.Script, time.Duration, error) {
	parsed, err := trace.Parse(ch.Script)
	if err != nil {
		return nil, 0, err
	}
	var end time.Duration
	for _, d := range parsed.Directives {
		if d.To > end {
			end = d.To
		}
		if d.At > end {
			end = d.At
		}
	}
	return parsed, end, nil
}

// Probe selects a measurement the runner collects into the Report. Cheap
// always-on results (reliability, per-stream delivery counts) are reported
// regardless; probes gate the collection that costs memory or post-run
// passes.
type Probe string

const (
	// ProbeLatency records every publish→delivery delay: Delays, NodeDelays
	// and Spread on each StreamReport.
	ProbeLatency Probe = "latency"
	// ProbeDuplicates counts per-node duplicate receptions per stream:
	// Duplicates on each StreamReport.
	ProbeDuplicates Probe = "duplicates"
	// ProbeStructure captures the emerged structure after the run: Parents,
	// Depths and Degrees on each StreamReport.
	ProbeStructure Probe = "structure"
	// ProbeConstruction collects per-node structure construction times
	// (the paper's Figure 13 metric): Construction on each StreamReport.
	ProbeConstruction Probe = "construction"
	// ProbeTraffic reads the per-node byte counters — the simulated
	// network's accounting on SimRuntime, the livenet per-connection wire
	// tap on LiveRuntime — into the Report's Traffic field.
	ProbeTraffic Probe = "traffic"
	// ProbeRepairs measures repair behaviour over the churn window
	// (parents lost, orphans, soft/hard split, hard-repair recovery
	// delays): the Report's Churn field.
	ProbeRepairs Probe = "repairs"
)

// Scenario is a complete experiment as a value: a topology, one or more
// workloads, optional churn, and the probes to collect. The same scenario
// runs on any Runtime — Run(ctx, SimRuntime{}, sc) on the simulator,
// Run(ctx, LiveRuntime{}, sc) on live loopback TCP nodes — yielding a
// Report of identical shape.
type Scenario struct {
	// Name labels the report.
	Name string
	// Seed drives all simulation randomness (default 1). Live nodes keep
	// their own wall-clock seeds; real networks are not replayable.
	Seed int64
	// Topology is the network.
	Topology Topology
	// Workloads are the streams; at least one workload (message or blob),
	// each on a distinct stream.
	Workloads []Workload
	// BlobWorkloads are the large-payload streams (see BlobWorkload); they
	// may run alongside message Workloads, on distinct streams. They
	// require a blob-capable runtime (all built-in runtimes are).
	BlobWorkloads []BlobWorkload
	// Churn, when set, runs a churn trace during dissemination.
	Churn *Churn
	// Faults, when set, injects deterministic network faults — message
	// loss/duplication/reorder, partitions, bounded inbound buffers —
	// during dissemination (bootstrap runs clean). Partition windows are
	// offsets from dissemination start, like workload Start times.
	// Simulator only: the live and distributed runtimes reject faulty
	// scenarios (real wires bring their own faults). See FaultModel.
	Faults *FaultModel
	// Probes selects measurements (default: latency and duplicates).
	Probes []Probe
	// Drain is how long the run continues after the last publish and the
	// churn window close, letting deliveries and repairs finish (default
	// 10s).
	Drain time.Duration
}

// withDefaults fills the documented defaults on a copy.
func (sc Scenario) withDefaults() Scenario {
	if sc.Seed == 0 {
		sc.Seed = 1
	}
	if sc.Drain == 0 {
		sc.Drain = 10 * time.Second
	}
	if len(sc.Probes) == 0 {
		sc.Probes = []Probe{ProbeLatency, ProbeDuplicates}
	}
	ws := make([]Workload, len(sc.Workloads))
	copy(ws, sc.Workloads)
	for i := range ws {
		if ws[i].Interval == 0 {
			ws[i].Interval = DefaultInterval
		}
	}
	sc.Workloads = ws
	bs := make([]BlobWorkload, len(sc.BlobWorkloads))
	copy(bs, sc.BlobWorkloads)
	for i := range bs {
		if bs[i].Blobs == 0 {
			bs[i].Blobs = 1
		}
		if bs[i].ChunkSize == 0 {
			bs[i].ChunkSize = blob.DefaultChunkSize
		}
		if bs[i].Interval == 0 {
			bs[i].Interval = DefaultBlobInterval
		}
	}
	sc.BlobWorkloads = bs
	return sc
}

// Validate checks the scenario. Zero values mean "use the documented
// default"; contradictory values are errors.
func (sc Scenario) Validate() error {
	if err := sc.Topology.clusterConfig(1).Validate(); err != nil {
		return err
	}
	if len(sc.Workloads) == 0 && len(sc.BlobWorkloads) == 0 {
		return fmt.Errorf("brisa: Scenario %q has no workloads", sc.Name)
	}
	seen := make(map[StreamID]bool, len(sc.Workloads)+len(sc.BlobWorkloads))
	for i, w := range sc.Workloads {
		if seen[w.Stream] {
			return fmt.Errorf("brisa: Scenario %q: duplicate workload for stream %d (a stream has one source)", sc.Name, w.Stream)
		}
		seen[w.Stream] = true
		if w.Source < 0 || w.Source >= sc.Topology.Nodes {
			return fmt.Errorf("brisa: Scenario %q: workload %d sources from node index %d, topology has %d nodes",
				sc.Name, i, w.Source, sc.Topology.Nodes)
		}
		if w.Messages < 0 {
			return fmt.Errorf("brisa: Scenario %q: workload %d has negative Messages", sc.Name, i)
		}
		if w.Payload < 0 {
			return fmt.Errorf("brisa: Scenario %q: workload %d has negative Payload", sc.Name, i)
		}
		if w.Interval < 0 || w.Start < 0 {
			return fmt.Errorf("brisa: Scenario %q: workload %d has negative timing", sc.Name, i)
		}
	}
	for i, w := range sc.BlobWorkloads {
		if seen[w.Stream] {
			return fmt.Errorf("brisa: Scenario %q: duplicate workload for stream %d (a stream has one source)", sc.Name, w.Stream)
		}
		seen[w.Stream] = true
		if w.Source < 0 || w.Source >= sc.Topology.Nodes {
			return fmt.Errorf("brisa: Scenario %q: blob workload %d sources from node index %d, topology has %d nodes",
				sc.Name, i, w.Source, sc.Topology.Nodes)
		}
		if w.Blobs < 0 {
			return fmt.Errorf("brisa: Scenario %q: blob workload %d has negative Blobs", sc.Name, i)
		}
		if w.Size <= 0 {
			return fmt.Errorf("brisa: Scenario %q: blob workload %d needs a positive Size, got %d", sc.Name, i, w.Size)
		}
		if w.Interval < 0 || w.Start < 0 {
			return fmt.Errorf("brisa: Scenario %q: blob workload %d has negative timing", sc.Name, i)
		}
		// Delegate the chunking geometry (chunk size bounds, K vs Total,
		// the GF(256) parity limit) to the chunker's own validation.
		if _, _, err := w.params().Plan(w.Size); err != nil {
			return fmt.Errorf("brisa: Scenario %q: blob workload %d: %w", sc.Name, i, err)
		}
	}
	if mode := sc.Topology.configFor(0).Mode; baseline(mode) {
		if len(sc.BlobWorkloads) > 0 {
			return fmt.Errorf("brisa: Scenario %q: Mode %v disseminates no blobs, got %d blob workloads", sc.Name, mode, len(sc.BlobWorkloads))
		}
		for i, w := range sc.Workloads {
			if rooted(mode) && w.Source != 0 {
				return fmt.Errorf("brisa: Scenario %q: workload %d sources from node index %d, Mode %v publishes at its root, node index 0", sc.Name, i, w.Source, mode)
			}
		}
	}
	if sc.Drain < 0 {
		return fmt.Errorf("brisa: Scenario %q has negative Drain", sc.Name)
	}
	if sc.Churn != nil {
		if _, err := sc.Churn.window(); err != nil {
			return err
		}
	}
	if sc.Faults != nil {
		if err := sc.Faults.Validate(); err != nil {
			return fmt.Errorf("brisa: Scenario %q: %w", sc.Name, err)
		}
		// Like the churn window, partition windows must fit the scenario:
		// a partition must close before the drain starts, so repairs get
		// the drain to finish.
		for i, p := range sc.Faults.Partitions {
			if p.End > sc.end() {
				return fmt.Errorf("brisa: Scenario %q: faults: partition %d window ends at %v, past the scenario end %v",
					sc.Name, i, p.End, sc.end())
			}
		}
	}
	return nil
}

// probed reports whether the scenario collects p.
func (sc Scenario) probed(p Probe) bool {
	for _, q := range sc.Probes {
		if q == p {
			return true
		}
	}
	return false
}

// end returns the offset from dissemination start at which the scenario's
// scheduled activity (publishes and churn) is over.
func (sc Scenario) end() time.Duration {
	var end time.Duration
	for _, w := range sc.Workloads {
		if d := w.duration(); d > end {
			end = d
		}
	}
	for _, w := range sc.BlobWorkloads {
		if d := w.duration(); d > end {
			end = d
		}
	}
	if sc.Churn != nil {
		if w, err := sc.Churn.window(); err == nil && sc.Churn.Start+w > end {
			end = sc.Churn.Start + w
		}
	}
	return end
}

// NewCluster builds a simulated cluster from the scenario's topology and
// seed, not yet bootstrapped — the hook for callers that want to inspect or
// perturb the cluster before running the scenario against it with
// Run(ctx, SimRuntime{Cluster: c}, sc).
func (sc Scenario) NewCluster() (*Cluster, error) { return SimRuntime{}.NewCluster(sc) }
