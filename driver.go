package brisa

import (
	"context"
	"fmt"
	"time"

	"repro/internal/stats"
	"repro/internal/trace"
)

// world is what the scenario driver needs from a runtime: a population it
// can bring up, publish through, churn, advance and read. SimRuntime,
// LiveRuntime and DistRuntime each build one and hand it to runScenario;
// everything that does not depend on the runtime — what is scheduled when,
// the churn bracket, every fold into the Report — lives in the driver.
//
// Scheduled callbacks, trace.Target calls and every other method run on the
// goroutine that called runScenario (the simulator's driver events fire
// inside run; the wall-clock worlds execute their timeline there), so a
// world needs no locking against the driver.
type world interface {
	// bringUp makes the scenario's initial members exist, instrumented by
	// col, joined and ready to disseminate.
	bringUp(ctx context.Context, col *collector) error
	// protect resolves the initial member at join index idx — a workload
	// source — and exempts it from churn kills.
	protect(idx int) NodeID
	// markStart opens the dissemination phase: the origin of At offsets and
	// of Elapsed, and the baseline of dissemination traffic.
	markStart(ctx context.Context) error
	// publish injects message i of workload wi (publishBlob: blob i of blob
	// workload wi) and records the injection with the collector.
	publish(wi, i int) error
	publishBlob(wi, i int) error

	// At schedules fn at an offset from markStart, in virtual time on the
	// simulator and wall time elsewhere; callable from within a callback.
	trace.Scheduler
	// Join and Fail are the churn primitives.
	trace.Target
	// run executes everything scheduled, then the drain: to end+drain on the
	// simulator, elsewhere until the waited-on members hold every workload
	// in full or the drain budget runs out. It returns the time since
	// markStart, or the context's error once ctx is done.
	run(ctx context.Context, end, drain time.Duration) (time.Duration, error)

	// metrics reads the protocol counters of every member it can reach.
	metrics(ctx context.Context) (map[NodeID]Metrics, error)
	// snapshot reads the end-of-run state; on runtimes whose measurements
	// arrive out of process it also fills col.
	snapshot(ctx context.Context) (*worldSnapshot, error)
	// close releases everything bringUp created.
	close()
}

// worldSnapshot is the end-of-run state of a world.
type worldSnapshot struct {
	// nodes is the initial population (Report.Nodes).
	nodes int
	// survivors are the members alive at the end, in the world's fold order.
	survivors []memberSnapshot
	// faults is the fault-injection accounting (simulator only).
	faults *FaultsReport
}

// memberSnapshot is one surviving member's end-of-run state.
type memberSnapshot struct {
	id      NodeID
	streams []peerSnapshot // per workload, relative to the run's start
	blobs   []BlobStats    // per blob workload
	// traffic is the member's sent and received bytes (nil when the world
	// has none for it, or ProbeTraffic is off).
	traffic *memberTraffic
}

// memberTraffic is one member's wire bytes: sent before markStart, and sent
// and received since. A member born mid-run counts from zero.
type memberTraffic struct {
	stab, up, down uint64
}

// offsetScheduler shifts a trace.Scheduler's origin: churn scripts count
// from the churn start, the world from markStart.
type offsetScheduler struct {
	sched trace.Scheduler
	base  time.Duration
}

func (s offsetScheduler) At(offset time.Duration, fn func()) { s.sched.At(s.base+offset, fn) }

// runScenario executes a scenario on a world: bring-up, workload and churn
// scheduling, the run to the end of the drain, and the fold of the world's
// snapshot into a Report. It is the one validation point and the only
// driver: the runtimes' Run methods construct their world and call it.
func runScenario(ctx context.Context, w world, sc Scenario) (*Report, error) {
	defer w.close()
	if ctx == nil {
		ctx = context.Background()
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	wallStart := time.Now()
	aborted := func(err error) error {
		return fmt.Errorf("brisa: Scenario %q aborted: %w", sc.Name, err)
	}

	col := newCollector(sc)
	defer col.detach()
	if err := w.bringUp(ctx, col); err != nil {
		return nil, aborted(err)
	}
	sources := make(map[NodeID]bool, len(sc.Workloads)+len(sc.BlobWorkloads))
	for wi, wl := range sc.Workloads {
		id := w.protect(wl.Source)
		col.setSource(wi, id)
		sources[id] = true
	}
	for wi, wl := range sc.BlobWorkloads {
		id := w.protect(wl.Source)
		col.setBlobSource(wi, id)
		sources[id] = true
	}
	if err := w.markStart(ctx); err != nil {
		return nil, aborted(err)
	}

	// The first error raised inside a scheduled callback cancels the run.
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	check := func(err error, what string, wi, i int) {
		if err != nil {
			cancel(fmt.Errorf("%s %d publish %d: %w", what, wi, i+1, err))
		}
	}

	// The scheduling order (workloads, blobs, churn start, churn end) is part
	// of the simulator's determinism contract: same-instant events fire in
	// the order they were scheduled.
	for wi, wl := range sc.Workloads {
		for i := 0; i < wl.Messages; i++ {
			w.At(wl.Start+time.Duration(i)*wl.Interval, func() { check(w.publish(wi, i), "workload", wi, i) })
		}
	}
	for wi, wl := range sc.BlobWorkloads {
		for i := 0; i < wl.Blobs; i++ {
			w.At(wl.Start+time.Duration(i)*wl.Interval, func() { check(w.publishBlob(wi, i), "blob workload", wi, i) })
		}
	}

	// Churn, with metric snapshots bracketing the script's window.
	var churnWindow time.Duration
	var before, after map[NodeID]Metrics
	if sc.Churn != nil {
		script, window, err := sc.Churn.parse()
		if err != nil {
			return nil, aborted(err)
		}
		churnWindow = window
		bracket := func() map[NodeID]Metrics {
			m, err := w.metrics(ctx)
			if err != nil {
				cancel(fmt.Errorf("churn bracket: %w", err))
			}
			return m
		}
		w.At(sc.Churn.Start, func() {
			before = bracket()
			script.Replay(offsetScheduler{w, sc.Churn.Start}, w)
		})
		w.At(sc.Churn.Start+churnWindow, func() { after = bracket() })
	}

	elapsed, err := w.run(ctx, sc.end(), sc.Drain)
	if cause := context.Cause(ctx); cause != nil {
		return nil, aborted(cause)
	}
	if err != nil {
		return nil, aborted(err)
	}

	// Detach before reading: the accumulators are written lock-free on each
	// node's actor, so no listener may fire once folding begins. The
	// snapshot's per-actor reads order every callback that already ran
	// before the fold that reads its accumulator.
	col.detach()
	snap, err := w.snapshot(ctx)
	if err != nil {
		return nil, aborted(err)
	}

	rep := &Report{
		Name:    sc.Name,
		Nodes:   snap.nodes,
		Alive:   len(snap.survivors),
		Elapsed: elapsed,
		Faults:  snap.faults,
	}
	for wi := range sc.Workloads {
		rep.Streams = append(rep.Streams, col.streamReport(wi, snap.survivors))
	}
	for wi := range sc.BlobWorkloads {
		rep.Blobs = append(rep.Blobs, col.blobStreamReport(wi, snap.survivors))
	}
	if sc.probed(ProbeTraffic) {
		rep.Traffic = trafficReport(snap.survivors, sources, elapsed)
	}
	if sc.Churn != nil && sc.probed(ProbeRepairs) {
		rep.Churn = churnReport(churnWindow, elapsed, before, after, col.hardRepairDelays())
	}
	rep.Wall = time.Since(wallStart)
	return rep, nil
}

// trafficReport folds the survivors' wire bytes into per-node rates over the
// dissemination window and per-node averages split into the stabilization
// and dissemination phases. Workload sources are excluded: the paper
// measures the receivers.
func trafficReport(survivors []memberSnapshot, sources map[NodeID]bool, elapsed time.Duration) *TrafficReport {
	tr := &TrafficReport{
		DownRate: &stats.Sample{},
		UpRate:   &stats.Sample{},
		Elapsed:  elapsed,
	}
	secs := elapsed.Seconds()
	var stab, diss uint64
	counted := 0
	for _, m := range survivors {
		if sources[m.id] || m.traffic == nil {
			continue
		}
		counted++
		stab += m.traffic.stab
		diss += m.traffic.up
		if secs > 0 {
			tr.DownRate.Add(float64(m.traffic.down) / 1024 / secs)
			tr.UpRate.Add(float64(m.traffic.up) / 1024 / secs)
		}
	}
	if counted > 0 {
		tr.StabMB = float64(stab) / float64(counted) / (1 << 20)
		tr.DissMB = float64(diss) / float64(counted) / (1 << 20)
	}
	return tr
}

// churnReport folds the metric snapshots bracketing the churn window into
// per-minute rates and the soft/hard repair split. Deltas are per member: a
// member first seen in after counts from zero, one that died inside the
// window (and whose world lost its counters with it) drops out.
func churnReport(window, elapsed time.Duration, before, after map[NodeID]Metrics, hardDelays *stats.Sample) *ChurnReport {
	minutes := window.Minutes()
	if minutes <= 0 {
		minutes = elapsed.Minutes()
	}
	cr := &ChurnReport{Window: window, HardDelays: hardDelays}
	var lost, orphans, soft, hard uint64
	for id, a := range after { //brisa:orderinvariant integer sums commute
		b := before[id]
		lost += a.ParentsLost - b.ParentsLost
		orphans += a.Orphans - b.Orphans
		soft += a.SoftRepairs - b.SoftRepairs
		hard += a.HardRepairs - b.HardRepairs
	}
	if minutes > 0 {
		cr.ParentsLostPerMin = float64(lost) / minutes
		cr.OrphansPerMin = float64(orphans) / minutes
	}
	if repairs := float64(soft + hard); repairs > 0 {
		cr.SoftPct = 100 * float64(soft) / repairs
		cr.HardPct = 100 * float64(hard) / repairs
	}
	return cr
}
