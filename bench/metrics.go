package main

import (
	"fmt"
	"math"
	"regexp"
)

// metricDef is one registered metric: BENCHMARK.json carries the same
// entries (bench_test.go checks the two agree).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: allowed worsening, as a share of the parent's median
}

// endToEnd are the bounded metrics. Every workload reports every one of them,
// none reads 0, and each has a regression bound. They are counts and sizes:
// what a deployment pays per delivery in allocations, memory, wire bytes,
// wire messages and duplicate receptions. They repeat from run to run; the
// time-based figures did not on the development host (README, "Why no time
// is bounded") and are reported per layer, unbounded, for paired comparison.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"allocs_per_delivery", "count", "lower", 0.03},
	{"heap_mb", "MB", "lower", 0.05},
	{"wire_bytes_per_delivery", "B", "lower", 0.10},
	{"wire_msgs_per_delivery", "count", "lower", 0.10},
	{"copies_per_delivery", "count", "lower", 0.02},
}

// perLayer are the unbounded metrics: the time-based end-to-end figures,
// the single-layer numbers of a traced run, and the micro timings of
// exported functions. A metric that does not apply to a workload (livenet.*
// on sim-*, simnet.* on live-*) reads 0 there.
var perLayer = []metricDef{
	// End to end, in time. lat_* are virtual time on sim-* (the modelled
	// protocol's own result, identical for a seed on every host) and wall
	// time on live-*.
	{Name: "run_s", Unit: "s", Better: "lower"},
	{Name: "msgs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "cpu_us_per_delivery", Unit: "us", Better: "lower"},
	{Name: "lat_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "lat_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "lat_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "lat_max_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.late_max_ms", Unit: "ms", Better: "lower"},
	{Name: "fail_share", Unit: "share", Better: "lower"},
	{Name: "dup_per_msg", Unit: "count", Better: "lower"},

	{Name: "core.recv_self_s", Unit: "s", Better: "lower"},
	{Name: "core.recv_calls", Unit: "count", Better: "lower"},
	{Name: "core.recv_ns_per_call", Unit: "ns", Better: "lower"},
	{Name: "hyparview.recv_self_s", Unit: "s", Better: "lower"},
	{Name: "hyparview.recv_calls", Unit: "count", Better: "lower"},
	{Name: "proto.timer_self_s", Unit: "s", Better: "lower"},
	{Name: "proto.timer_calls", Unit: "count", Better: "lower"},

	{Name: "simnet.send_self_s", Unit: "s", Better: "lower"},
	{Name: "simnet.send_calls", Unit: "count", Better: "lower"},
	{Name: "simnet.sched_self_s", Unit: "s", Better: "lower"},
	{Name: "simnet.events", Unit: "count", Better: "lower"},
	{Name: "simnet.setup_events", Unit: "count", Better: "lower"},
	{Name: "simnet.ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "simnet.events_per_delivery", Unit: "count", Better: "lower"},
	{Name: "simnet.shard_busy_share", Unit: "share", Better: "higher"},

	{Name: "livenet.send_self_s", Unit: "s", Better: "lower"},
	{Name: "livenet.send_calls", Unit: "count", Better: "lower"},
	{Name: "livenet.send_ns_per_call", Unit: "ns", Better: "lower"},
	{Name: "livenet.hop_p50_us", Unit: "us", Better: "lower"},
	{Name: "livenet.hop_p99_us", Unit: "us", Better: "lower"},
	{Name: "livenet.wire_bytes_per_msg", Unit: "B", Better: "lower"},
	{Name: "brisa.publish_p50_us", Unit: "us", Better: "lower"},

	{Name: "runtime.gc_cpu_share", Unit: "share", Better: "lower"},
	{Name: "runtime.alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "share", Better: "lower"},
	{Name: "trace.spans", Unit: "count", Better: "higher"},

	{Name: "wire.frame_data256_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.frame_data256_allocs", Unit: "count", Better: "lower"},
	{Name: "wire.unmarshal_data256_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.unmarshal_data256_allocs", Unit: "count", Better: "lower"},
	{Name: "wire.frame_keepalive_pb_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.unmarshal_keepalive_pb_ns", Unit: "ns", Better: "lower"},
	{Name: "core.relay4_ns", Unit: "ns", Better: "lower"},
	{Name: "core.relay4_allocs", Unit: "count", Better: "lower"},
	{Name: "core.dup_ns", Unit: "ns", Better: "lower"},
	{Name: "core.piggyback_roundtrip_ns", Unit: "ns", Better: "lower"},
	{Name: "hyparview.keepalive_recv_ns", Unit: "ns", Better: "lower"},
	{Name: "hyparview.shuffle_ns", Unit: "ns", Better: "lower"},
	{Name: "simnet.timer_ns", Unit: "ns", Better: "lower"},
	{Name: "simnet.timer_allocs", Unit: "count", Better: "lower"},
	{Name: "simnet.send_deliver_ns", Unit: "ns", Better: "lower"},
	{Name: "simnet.send_deliver_allocs", Unit: "count", Better: "lower"},
	{Name: "simnet.xshard_send_deliver_ns", Unit: "ns", Better: "lower"},
	{Name: "stats.loghist_add_ns", Unit: "ns", Better: "lower"},
	{Name: "stats.loghist_fold_us", Unit: "us", Better: "lower"},
	{Name: "livenet.pair_msgs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "livenet.pair_rtt_p50_us", Unit: "us", Better: "lower"},
	{Name: "blob.encode_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "blob.reconstruct_mbps", Unit: "MB/s", Better: "higher"},
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// samples are one run's measurements: one value per rep for each metric.
// A run reports the median of a metric's values.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

// runResult is what one run of one workload produced.
type runResult struct {
	Attempted int64   `json:"attempted"` // deliveries the workload's inputs call for
	Failed    int64   `json:"failed"`    // of those, not made
	Reps      int     `json:"reps"`
	Samples   samples `json:"samples"`
}

// check reports the first metric of defs that is missing where required, or
// not a finite number.
func (r *runResult) check(defs []metricDef, required bool) error {
	for _, d := range defs {
		vs, ok := r.Samples[d.Name]
		if !ok && required {
			return fmt.Errorf("metric %s: not measured", d.Name)
		}
		for _, v := range vs {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("metric %s: value %v is not finite", d.Name, v)
			}
			if required && v == 0 {
				return fmt.Errorf("metric %s: reads 0", d.Name)
			}
		}
	}
	return nil
}
