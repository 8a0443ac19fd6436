// Command brisa-sim runs a one-off BRISA deployment described as a
// declarative brisa.Scenario: configurable structure, one or more
// concurrent streams from distinct sources, an optional churn script in the
// paper's trace language (Listing 1), and a choice of runtime — the
// deterministic simulator or live loopback TCP nodes — so the same workload
// compares across both.
//
// Examples:
//
//	brisa-sim -nodes 512 -mode tree -view 4 -messages 500 -payload 1024
//	brisa-sim -nodes 128 -mode dag -parents 2 -churn "from 0s to 300s const churn 3% each 60s"
//	brisa-sim -nodes 64 -streams 4 -messages 100            # 4 streams, 4 sources
//	brisa-sim -nodes 16 -streams 2 -messages 50 -runtime live
//	brisa-sim -nodes 16 -messages 200 -runtime live -churn "from 0s to 10s const churn 10% each 2s"
//	brisa-sim -nodes 10000 -messages 20 -cpuprofile cpu.out   # engine-scale run, profiled
//	brisa-sim -nodes 256 -messages 0 -blob 1048576 -parity 16 # one 1 MiB erasure-coded blob
//	brisa-sim -nodes 8 -messages 0 -blob 262144 -runtime live # blob over real sockets
//	brisa-sim -nodes 256 -loss 0.05 -reorder 0.1              # lossy links (sim only)
//	brisa-sim -nodes 64 -partition 5s-15s:0.3:asym -buffer 32 # one-way split + bounded buffers
//	brisa-sim -nodes 64 -mode tag -messages 50                # a §III-D baseline under the same harness
//
// The -runtime flag resolves against brisa.Runtimes(); every scenario —
// churn scripts and traffic probes included — runs on either runtime.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	goruntime "runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	brisa "repro"
)

// parsePartition parses the -partition spec: start-end:fraction[:asym],
// window offsets from dissemination start.
func parsePartition(s string) (brisa.Partition, error) {
	var p brisa.Partition
	parts := strings.Split(s, ":")
	if len(parts) < 2 || len(parts) > 3 {
		return p, fmt.Errorf("bad -partition %q (want start-end:fraction[:asym])", s)
	}
	window := strings.SplitN(parts[0], "-", 2)
	if len(window) != 2 {
		return p, fmt.Errorf("bad -partition window %q (want start-end, e.g. 5s-15s)", parts[0])
	}
	start, err := time.ParseDuration(window[0])
	if err != nil {
		return p, fmt.Errorf("bad -partition start: %v", err)
	}
	end, err := time.ParseDuration(window[1])
	if err != nil {
		return p, fmt.Errorf("bad -partition end: %v", err)
	}
	frac, err := strconv.ParseFloat(parts[1], 64)
	if err != nil {
		return p, fmt.Errorf("bad -partition fraction: %v", err)
	}
	p = brisa.Partition{Start: start, End: end, Fraction: frac}
	if len(parts) == 3 {
		if parts[2] != "asym" {
			return p, fmt.Errorf("bad -partition modifier %q (only asym)", parts[2])
		}
		p.Asymmetric = true
	}
	return p, nil
}

// exitOn prints err, if any, and exits the way a bad invocation does.
func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
}

func main() {
	var (
		nodes    = flag.Int("nodes", 128, "network size")
		mode     = flag.String("mode", "tree", "system: flood | tree | dag (BRISA structures), or a comparison baseline: simpletree | simplegossip | tag (sim runtime only; -view is TAG's child capacity)")
		parents  = flag.Int("parents", 2, "DAG parent target")
		view     = flag.Int("view", 4, "HyParView active view size")
		strategy = flag.String("strategy", "first-come", "parent selection: first-come | delay-aware | gerontocratic | load-balancing")
		streams  = flag.Int("streams", 1, "concurrent streams, each from a distinct source node")
		messages = flag.Int("messages", 100, "messages to publish per stream")
		payload  = flag.Int("payload", 1024, "payload bytes per message")
		rate     = flag.Float64("rate", 5, "messages per second per stream")
		blobSize = flag.Int("blob", 0, "publish a chunked large payload of this many bytes (0 = off); runs on either runtime")
		blobs    = flag.Int("blobs", 1, "how many blobs to publish")
		chunk    = flag.Int("chunk", 0, "blob chunk bytes (default 64 KiB)")
		parity   = flag.Int("parity", 0, "extra erasure-coded chunks per blob: any K of K+parity reconstruct (0 = no coding)")
		seed     = flag.Int64("seed", 1, "simulation seed")
		loss     = flag.Float64("loss", 0, "per-message loss probability in [0,1) (sim runtime only)")
		dup      = flag.Float64("dup", 0, "per-message duplication probability in [0,1) (sim runtime only)")
		reorder  = flag.Float64("reorder", 0, "per-message reorder probability in [0,1) (sim runtime only)")
		part     = flag.String("partition", "", "partition window as start-end:fraction[:asym], offsets from dissemination start, e.g. 5s-15s:0.3:asym (sim runtime only)")
		buffer   = flag.Int("buffer", 0, "bound each node's inbound buffer to this many messages, 0 = unbounded (sim runtime only)")
		bufDrop  = flag.String("buffer-policy", "oldest", "full-buffer victim policy: oldest | newest | rand")
		planet   = flag.Bool("planetlab", false, "use PlanetLab latencies instead of cluster")
		churn    = flag.String("churn", "", "churn script (paper Listing 1 syntax), applied 10s into dissemination")
		runtime  = flag.String("runtime", "sim", "runtime: sim | live (loopback TCP) | dist (remote agents; see -agents)")
		workers  = flag.Int("workers", 0, "simulator scheduler shards (sim runtime only); 0 picks one per CPU, 1 forces the sequential engine, results are identical for every value")
		agents   = flag.String("agents", "", "comma-separated brisa-agent control addresses (dist runtime only)")
		asJSON   = flag.Bool("json", false, "print the report as JSON instead of text")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (inspect with go tool pprof)")
		memProf  = flag.String("memprofile", "", "write a heap profile taken right after the run to this file")
	)
	flag.Parse()

	// Mode values are contiguous and their names are the flag's vocabulary.
	m := brisa.ModeFlood
	for m.String() != *mode {
		if m++; m > brisa.ModeTAG {
			fmt.Fprintf(os.Stderr, "unknown mode %q\n", *mode)
			os.Exit(2)
		}
	}
	var strat brisa.Strategy
	switch *strategy {
	case "first-come":
		strat = brisa.FirstCome{}
	case "delay-aware":
		strat = brisa.DelayAware{}
	case "gerontocratic":
		strat = brisa.Gerontocratic{}
	case "load-balancing":
		strat = brisa.LoadBalancing{}
	default:
		fmt.Fprintf(os.Stderr, "unknown strategy %q\n", *strategy)
		os.Exit(2)
	}

	var latency brisa.LatencyModel
	if *planet {
		latency = brisa.PlanetLab()
	}
	peerCfg := brisa.Config{Mode: m, ViewSize: *view}
	if m <= brisa.ModeDAG { // the baselines select no parents
		peerCfg.Strategy = strat
	}
	if m == brisa.ModeDAG {
		peerCfg.Parents = *parents
	}

	sc := brisa.Scenario{
		Name: fmt.Sprintf("brisa-sim %s view=%d", m, *view),
		Seed: *seed,
		Topology: brisa.Topology{
			Nodes:   *nodes,
			Latency: latency,
			Peer:    peerCfg,
		},
		Probes: []brisa.Probe{
			brisa.ProbeLatency, brisa.ProbeDuplicates, brisa.ProbeRepairs,
		},
		Drain: 30 * time.Second,
	}
	interval := time.Duration(float64(time.Second) / *rate)
	if *messages > 0 || *blobSize == 0 {
		for s := 0; s < *streams; s++ {
			sc.Workloads = append(sc.Workloads, brisa.Workload{
				Stream:   brisa.StreamID(s + 1),
				Source:   s % *nodes,
				Messages: *messages,
				Payload:  *payload,
				Interval: interval,
			})
		}
	}
	if *blobSize > 0 {
		cs := *chunk
		if cs <= 0 {
			cs = 64 << 10
		}
		total := 0
		if *parity > 0 {
			total = (*blobSize+cs-1)/cs + *parity
		}
		sc.BlobWorkloads = append(sc.BlobWorkloads, brisa.BlobWorkload{
			Stream:    brisa.StreamID(*streams + 1),
			Source:    0,
			Blobs:     *blobs,
			Size:      *blobSize,
			ChunkSize: cs,
			Total:     total,
		})
	}
	if *churn != "" {
		sc.Churn = &brisa.Churn{Script: *churn, Start: 10 * time.Second}
	}
	if *loss > 0 || *dup > 0 || *reorder > 0 || *part != "" || *buffer > 0 {
		f := &brisa.FaultModel{Loss: *loss, Duplicate: *dup, Reorder: *reorder}
		if *part != "" {
			p, err := parsePartition(*part)
			exitOn(err)
			f.Partitions = []brisa.Partition{p}
		}
		if *buffer > 0 {
			policy, err := brisa.ParseDropPolicy(*bufDrop)
			exitOn(err)
			f.Buffer = &brisa.BufferModel{Capacity: *buffer, Policy: policy}
		}
		sc.Faults = f
	}

	rt, err := brisa.LookupRuntime(*runtime)
	exitOn(err)
	if sim, ok := rt.(brisa.SimRuntime); ok {
		sim.Workers = *workers
		// The cluster is built here, not inside Run, so that it is still
		// reachable when the heap profile is taken.
		c, err := sim.NewCluster(sc)
		exitOn(err)
		defer c.Close()
		sim.Cluster = c
		rt = sim
	} else if *workers != 0 {
		fmt.Fprintf(os.Stderr, "-workers applies to the sim runtime only, ignored for %q\n", rt.Name())
	}
	if d, ok := rt.(brisa.DistRuntime); ok {
		if *agents == "" {
			fmt.Fprintln(os.Stderr, "the dist runtime needs -agents (comma-separated brisa-agent addresses)")
			os.Exit(2)
		}
		d.Agents = strings.Split(*agents, ",")
		rt = d
	} else if *agents != "" {
		fmt.Fprintf(os.Stderr, "-agents applies to the dist runtime only, ignored for %q\n", rt.Name())
	}
	// Ctrl-C aborts the run: the context unwinds workload generators,
	// churn loops and probe drains on either runtime.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// CPU profiling brackets exactly the scenario run — the profile is
	// written as soon as Run returns — so the engine's hot paths (event
	// scheduler, bandwidth accounting) stay observable as node counts grow.
	stopProfile := func() {}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		exitOn(err)
		exitOn(pprof.StartCPUProfile(f))
		stopProfile = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
	}

	fmt.Fprintf(os.Stderr, "running %d nodes, %d stream(s) on the %q runtime...\n", *nodes, *streams, rt.Name())
	rep, err := brisa.Run(ctx, rt, sc)
	stopProfile()
	exitOn(err)
	// The heap profile is taken while rt still holds the simulated cluster,
	// so inuse_space is the nodes' state. On the live and dist runtimes the
	// nodes are gone (or elsewhere) by now and only the report is left.
	if *memProf != "" {
		f, err := os.Create(*memProf)
		exitOn(err)
		goruntime.GC()
		exitOn(pprof.WriteHeapProfile(f))
		exitOn(f.Close())
		var ms goruntime.MemStats
		goruntime.ReadMemStats(&ms)
		fmt.Fprintf(os.Stderr, "heap bytes/node: %d (%d nodes, %d B live)\n", ms.HeapAlloc/uint64(*nodes), *nodes, ms.HeapAlloc)
		goruntime.KeepAlive(rt)
	}

	if *asJSON {
		raw, err := rep.MarshalJSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println(string(raw))
		return
	}
	fmt.Print(rep.String())
	for _, s := range rep.Streams {
		if s.Duplicates != nil && s.Duplicates.Len() > 0 {
			fmt.Printf("stream %d duplicates/msg: p50=%.3f p90=%.3f\n",
				s.Stream, s.Duplicates.Median(), s.Duplicates.Percentile(90))
		}
	}
}
