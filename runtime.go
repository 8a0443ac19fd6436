package brisa

import (
	"context"
	"fmt"
	goruntime "runtime"
	"sort"
	"strings"
)

// Runtime executes Scenarios. The three built-in implementations are
// SimRuntime (the deterministic discrete-event simulator), LiveRuntime
// (loopback TCP nodes) and DistRuntime (peer processes across hosts); all
// run any valid Scenario — churn scripts, traffic probes, and per-peer
// configurations included — through one shared driver into a Report of
// identical shape, so results compare directly across runtimes.
//
// Call the package-level Run rather than the interface method: Run applies
// the scenario's documented defaults, threads the context, and stamps the
// Report's run metadata.
type Runtime interface {
	// Name labels Reports ("sim", "live", "dist") and keys the registry.
	Name() string
	// Run executes the scenario. Implementations validate the scenario
	// (after any runtime-specific normalization, e.g. adopting an existing
	// cluster's dimensions) and honor context cancellation in publishes,
	// churn directives, and the drain.
	Run(ctx context.Context, sc Scenario) (*Report, error)
}

// Run is the single entrypoint for executing a Scenario on any Runtime:
//
//	rep, err := brisa.Run(ctx, brisa.LiveRuntime{}, sc)
//
// It applies the scenario's defaults, executes it on rt, and stamps the
// Report with run metadata (runtime name, Go version). Cancelling ctx
// aborts the run — publishes, churn directives, and the drain all observe
// it — and Run returns the context's error.
func Run(ctx context.Context, rt Runtime, sc Scenario) (*Report, error) {
	if rt == nil {
		return nil, fmt.Errorf("brisa: Run needs a Runtime (try SimRuntime{} or LiveRuntime{})")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if len(sc.BlobWorkloads) > 0 {
		bc, ok := rt.(BlobCapable)
		if !ok || !bc.SupportsBlobs() {
			return nil, fmt.Errorf("brisa: Scenario %q has blob workloads, but runtime %q does not support blobs", sc.Name, rt.Name())
		}
	}
	if sc.Faults != nil {
		fc, ok := rt.(FaultCapable)
		if !ok || !fc.SupportsFaults() {
			return nil, fmt.Errorf("brisa: Scenario %q has fault injection, but runtime %q does not support it (faults are simulated; real wires bring their own)", sc.Name, rt.Name())
		}
	}
	if mode := sc.Topology.configFor(0).Mode; baseline(mode) {
		if _, sim := rt.(SimRuntime); !sim {
			return nil, fmt.Errorf("brisa: Scenario %q runs Mode %v, but runtime %q cannot: the baselines are rooted at the simulator's first node identifier", sc.Name, mode, rt.Name())
		}
	}
	rep, err := rt.Run(ctx, sc.withDefaults())
	if err != nil {
		return nil, err
	}
	rep.Runtime = rt.Name()
	rep.GoVersion = goruntime.Version()
	return rep, nil
}

// BlobCapable marks runtimes that execute BlobWorkloads. Run refuses a
// scenario with blob workloads on a runtime that does not implement it (or
// that reports false) — all three built-in runtimes support blobs.
type BlobCapable interface {
	// SupportsBlobs reports whether the runtime executes BlobWorkloads.
	SupportsBlobs() bool
}

// FaultCapable marks runtimes that execute Scenario.Faults. Run refuses a
// faulty scenario on a runtime that does not implement it (or that reports
// false) — only the simulator does: fault injection lives in the simulated
// send/receive paths, and real wires bring their own faults.
type FaultCapable interface {
	// SupportsFaults reports whether the runtime injects Scenario.Faults.
	SupportsFaults() bool
}

// SimRuntime runs scenarios on the deterministic discrete-event simulator:
// virtual time, seed-reproducible, thousands of nodes in one process.
type SimRuntime struct {
	// Cluster, when non-nil, runs scenarios against this existing cluster
	// (bootstrapping it first if needed) instead of building a fresh one
	// per run — the hook for callers that inspect or perturb the cluster
	// between runs. A scenario with a zero Topology adopts the cluster's
	// dimensions. Workers is ignored then: the cluster was built with its
	// own setting.
	Cluster *Cluster

	// Workers is the number of scheduler shards the simulator partitions
	// node actors across. Zero (the default) picks one shard per CPU,
	// capped at the scheduler's shard limit, so multi-core hosts get
	// parallelism without configuration; 1 forces the sequential engine.
	// With more than one shard independent node actors execute on worker
	// goroutines under a conservative safe-time scheduler; the Report is
	// byte-identical for every worker count (the equivalence harness in
	// the test suite pins this). See ClusterConfig.Workers for the
	// callback-safety requirements.
	Workers int
}

// Name implements Runtime.
func (SimRuntime) Name() string { return "sim" }

// SupportsBlobs implements BlobCapable.
func (SimRuntime) SupportsBlobs() bool { return true }

// SupportsFaults implements FaultCapable.
func (SimRuntime) SupportsFaults() bool { return true }

// NewCluster builds the simulated cluster this runtime's Run would build
// for the scenario — topology, seed and Workers applied, not yet
// bootstrapped. Use it when the cluster must outlive the run (reading
// Net.EventsFired, perturbing state between runs):
//
//	c, err := brisa.SimRuntime{Workers: 8}.NewCluster(sc)
//	defer c.Close()
//	rep, err := brisa.Run(ctx, brisa.SimRuntime{Cluster: c}, sc)
func (rt SimRuntime) NewCluster(sc Scenario) (*Cluster, error) {
	sc = sc.withDefaults()
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	cfg := sc.Topology.clusterConfig(sc.Seed)
	cfg.Faults = sc.Faults
	cfg.Workers = rt.Workers
	return NewCluster(cfg)
}

// LiveRuntime runs scenarios on real TCP nodes bound to loopback: one actor
// goroutine per node, wall-clock time, real wire bytes. Churn scripts kill
// (close) and restart (re-listen + join) nodes; ProbeTraffic reads the
// livenet per-connection tap.
type LiveRuntime struct {
	// Addr is the address nodes bind, normally with port 0 so every node
	// gets its own (default "127.0.0.1:0"). Future transports (TLS,
	// non-loopback interfaces) hang off this struct.
	Addr string
}

// Name implements Runtime.
func (LiveRuntime) Name() string { return "live" }

// SupportsBlobs implements BlobCapable.
func (LiveRuntime) SupportsBlobs() bool { return true }

// Runtimes returns the built-in runtimes keyed by Name — the registry
// commands resolve "-runtime" flags against. The dist entry is a template:
// it needs Agents set before it can run (brisa-sim -agents fills it in).
func Runtimes() map[string]Runtime {
	return map[string]Runtime{
		SimRuntime{}.Name():  SimRuntime{},
		LiveRuntime{}.Name(): LiveRuntime{},
		DistRuntime{}.Name(): DistRuntime{},
	}
}

// LookupRuntime resolves a runtime by name, or reports the known names.
func LookupRuntime(name string) (Runtime, error) {
	reg := Runtimes()
	if rt, ok := reg[name]; ok {
		return rt, nil
	}
	names := make([]string, 0, len(reg))
	for n := range reg {
		names = append(names, n)
	}
	sort.Strings(names)
	return nil, fmt.Errorf("brisa: unknown runtime %q (have %s)", name, strings.Join(names, ", "))
}
