// Command bench is the repository's benchmark: five workloads over the
// simulator and a live loopback overlay, end-to-end metrics from untraced
// reps and per-layer metrics from traced ones. BENCHMARK.json at the root
// registers it; README.md in this directory defines every metric.
//
//	go run ./bench                         every workload, passes interleaved
//	go run ./bench -workload sim-dissem    one run of one workload (what the driver calls)
//	go run ./bench -compare a.json b.json  two result files against the bounds
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"
)

const (
	payloadSize = 256
	// liveSetups is how many times a live run sets its overlay up: setup_s
	// is their median.
	liveSetups = 3
	// awaitBound is how long a rep waits for its last delivery before the
	// run fails; repDeadline is the watchdog's per-rep limit, about ten
	// times a rep.
	awaitBound  = 20 * time.Second
	repDeadline = 30 * time.Second
	// watchdogExit is the exit status of a run the watchdog ended.
	watchdogExit = 3
	// microTimings is the number of timed loops runMicro makes.
	microTimings = 18
)

// workload is one registered workload at its full size and at the toy size
// the smoke test uses.
type workload struct {
	name string
	why  string
	spec any // simSpec or liveSpec
	toy  any
}

var workloads = []workload{
	{
		name: "sim-dissem",
		why:  "sequential simulator, 2000-node tree, 250 msgs: the data path (core relay, simnet heap and send) does the work",
		spec: simSpec{workers: 1, nodes: 2000, msgs: 250},
		toy:  simSpec{workers: 1, nodes: 64, msgs: 100},
	},
	{
		name: "sim-par",
		why:  "sim-dissem's scenario and seed on 2 scheduler shards: only cross-shard post, safe-time scan and spin-wait are added",
		spec: simSpec{workers: 2, nodes: 2000, msgs: 250},
		toy:  simSpec{workers: 2, nodes: 64, msgs: 100, inline: true},
	},
	{
		name: "sim-churn",
		why:  "800-node 2-parent DAG at the paper's 5 msg/s under 3%/4s churn: membership, piggyback, timers and repair do the work",
		spec: simSpec{workers: 1, nodes: 800, msgs: 100, churn: true},
		toy:  simSpec{workers: 1, nodes: 64, msgs: 100, churn: true},
	},
	{
		name: "live-tput",
		why:  "16 TCP nodes on loopback, closed loop with 1024 msgs in flight: saturates livenet write/read loops, wire framing, mailboxes",
		spec: liveSpec{nodes: 16, warmup: 20, msgs: 30000, inflight: 1024},
		toy:  liveSpec{nodes: 6, warmup: 10, msgs: 2000, inflight: 256},
	},
	{
		name: "live-rate",
		why:  "same overlay, open loop at 5000 msg/s (a fifth of saturation), latency from each message's due time: low occupancy",
		spec: liveSpec{nodes: 16, warmup: 20, rate: 5000, span: 2 * time.Second},
		toy:  liveSpec{nodes: 6, warmup: 10, rate: 1000, span: 500 * time.Millisecond},
	},
}

// runOpts are one run's settings.
type runOpts struct {
	seed    int64
	seconds float64       // how long the run measures, set-up included
	traced  bool          // per-layer run: traced reps beside untraced ones, plus the micro timings
	minReps int           // reps made even when seconds are used up
	micro   time.Duration // length of each micro timing; 0 skips them
	outDir  string        // where traced runs write their spans
	logf    func(format string, args ...any)
}

func (o runOpts) microBudget() time.Duration { return microTimings * o.micro }

func (o runOpts) spansFile(name string) string {
	return filepath.Join(o.outDir, "spans-"+name+".jsonl")
}

// run makes one run of the workload, at toy size for the smoke test.
func (w workload) run(toy bool, opt runOpts) (*runResult, error) {
	spec := w.spec
	if toy {
		spec = w.toy
	}
	var res *runResult
	var err error
	switch sp := spec.(type) {
	case simSpec:
		if sp.workers > runtime.NumCPU() {
			opt.logf("host has %d CPU: %s measures only the sharded scheduler's overhead here", runtime.NumCPU(), w.name)
		}
		res, err = runSim(w.name, sp, opt)
	case liveSpec:
		res, err = runLive(w.name, sp, opt)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if opt.traced && opt.micro > 0 {
		micro, err := runMicro(opt.micro)
		if err != nil {
			return nil, fmt.Errorf("micro timings: %w", err)
		}
		for name, vs := range micro {
			res.Samples[name] = vs
		}
	}
	return res, nil
}

// fits reports whether one more rep is expected to end within budget seconds
// of start, going by the mean of the done reps so far.
func fits(start time.Time, done int, budget float64) bool {
	elapsed := time.Since(start).Seconds()
	return done > 0 && elapsed+elapsed/float64(done) <= budget
}

// watchdog makes a hung rep a one-screen diagnosis: past the deadline it
// dumps every goroutine's stack and exits non-zero. The scheduler's quiesce
// race and livenet's write/mailbox cyclic wait both end here.
func watchdog(what string, d time.Duration) (stop func()) {
	t := time.AfterFunc(d, func() {
		fmt.Fprintf(os.Stderr, "bench: watchdog: %s still running after %v; goroutines:\n", what, d)
		pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
		os.Exit(watchdogExit)
	})
	return func() { t.Stop() }
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// gcStats is a snapshot of the runtime's cumulative GC accounting.
type gcStats struct {
	gcCPU, totalCPU float64
	allocBytes      uint64
}

func readGCStats() gcStats {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	return gcStats{gcCPU: s[0].Value.Float64(), totalCPU: s[1].Value.Float64(), allocBytes: s[2].Value.Uint64()}
}

// gcShareSince is the share of available CPU time the collector used since base.
func (g gcStats) gcShareSince(base gcStats) float64 {
	if g.totalCPU <= base.totalCPU {
		return 0
	}
	return (g.gcCPU - base.gcCPU) / (g.totalCPU - base.totalCPU)
}

// stamp records where and on what a result was measured.
type stamp struct {
	HostCPUs   int    `json:"host_cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func newStamp() stamp {
	st := stamp{HostCPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: "unknown"}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		st.Commit = strings.TrimSpace(string(out))
	}
	return st
}

// metricValue is one metric in the driver's result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverLine is the last line of a single-workload run's standard output.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// line reduces a run to the driver's result: the median of each metric of
// defs. A per-layer metric the workload does not have reads 0.
func (r *runResult) line(defs []metricDef) driverLine {
	l := driverLine{Correct: true, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		l.Metrics[d.Name] = metricValue{Value: median(r.Samples[d.Name]), Unit: d.Unit}
	}
	return l
}

// supervise makes the single-workload run in a child process and makes it
// once more if the watchdog ended it. The sharded scheduler's quiesce race
// hangs a sim-par rep now and then (ROADMAP, fix-first 1), and a hung
// goroutine cannot be abandoned from inside its process. Both attempts'
// output, the stack dump included, goes to this process's; a second hang is
// the run's result. It returns the exit status to pass on.
func supervise() int {
	for attempt := 1; ; attempt++ {
		cmd := exec.Command(os.Args[0], os.Args[1:]...)
		cmd.Env = append(os.Environ(), childEnv+"=1")
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		err := cmd.Run()
		if err == nil {
			return 0
		}
		code := 1
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			code = ee.ExitCode()
		} else {
			fmt.Fprintln(os.Stderr, "bench:", err)
		}
		if code != watchdogExit || attempt == 2 {
			return code
		}
		fmt.Fprintln(os.Stderr, "bench: the watchdog ended the run; making it once more")
	}
}

// childEnv marks the process that measures, as opposed to the one that
// supervises it.
const childEnv = "BRISA_BENCH_CHILD"

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

func main() {
	var (
		name    = flag.String("workload", "", "run this one workload and print the driver's result line (default: all of them)")
		seed    = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 8, "how long one run measures")
		traced  = flag.Int("trace", 0, "1: traced run, per-layer metrics; 0: untraced run, end-to-end metrics")
		runs    = flag.Int("runs", 5, "all-workload mode: passes over the workloads, interleaved round-robin")
		out     = flag.String("out", "", "all-workload mode: write the results here, for -compare")
		outDir  = flag.String("trace-dir", ".bench_out", "where traced runs write their spans (JSON lines)")
		compare = flag.Bool("compare", false, "compare two result files: bench -compare a.json b.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files"))
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	if *name != "" && os.Getenv(childEnv) == "" {
		os.Exit(supervise())
	}

	st := newStamp()
	fmt.Printf("host_cpus=%d GOMAXPROCS=%d go=%s commit=%s seed=%d\n", st.HostCPUs, st.GOMAXPROCS, st.GoVersion, st.Commit, *seed)
	opt := runOpts{seed: *seed, seconds: *seconds, minReps: 3, micro: 150 * time.Millisecond, outDir: *outDir,
		logf: func(format string, args ...any) { fmt.Printf("  "+format+"\n", args...) }}

	if *name != "" {
		opt.traced = *traced == 1
		if opt.traced {
			opt.minReps = 1
		}
		for _, w := range workloads {
			if w.name != *name {
				continue
			}
			res, err := w.run(false, opt)
			if err != nil {
				fatal(err)
			}
			defs := endToEnd
			if opt.traced {
				defs = perLayer
			}
			if err := res.check(defs, !opt.traced); err != nil {
				fatal(fmt.Errorf("%s: %w", w.name, err))
			}
			printMetrics(os.Stdout, w.name, res, defs)
			line, _ := json.Marshal(res.line(defs))
			fmt.Println(string(line))
			return
		}
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	if err := runAll(opt, *runs, *out, st); err != nil {
		fatal(err)
	}
}
