package brisa

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"time"
)

// member is one wall-clock node as the overlay drives it: a loopback Node on
// the live runtime, a remote worker process on the distributed one.
type member interface {
	nodeID() NodeID
	address() string
	// join bootstraps the member through the contacts. With wait it blocks
	// until the overlay accepted the member; without, the (bounded)
	// bootstrap runs in the background so a churn schedule keeps pace.
	join(contacts []string, wait bool) error
	// neighbors is the size of the member's active view (0 when unknown).
	neighbors() int
	// delivered and blobsDelivered count what the member holds of workload
	// (blob workload) wi, for the drain's completeness poll.
	delivered(wi int) int
	blobsDelivered(wi int) int
	// kill crashes the member mid-connection.
	kill()
}

// host is the runtime-specific half of an overlay: it says whether a peer
// configuration can run on this runtime and brings one member up with it.
type host[M member] interface {
	check(cfg Config) error
	spawn(idx int, cfg Config) (M, error)
}

// slot is one member's place in the table: members keep their slot (and
// join index) after death, like the simulator's crashed peers.
type slot[M member] struct {
	m     M
	alive bool
	born  time.Time
}

// overlay is the half of a world the wall-clock runtimes share: the member
// table (join indices, liveness, protected sources, seeded victim and contact
// choice), bring-up with its readiness poll, the churn primitives, and a
// wall-clock timeline with the drain's completeness poll. liveNet and
// distNet embed it and add what differs: how a member comes up, how a
// message gets published, how measurements are read.
//
// Everything runs on the driver's goroutine, so nothing here is locked.
type overlay[M member] struct {
	sc     Scenario
	host   host[M]
	settle time.Duration   // readiness bound when the topology sets none
	ctx    context.Context // the run's: churn primitives and members act under it
	rng    *rand.Rand

	slots  []*slot[M]
	spared map[NodeID]bool // workload sources: never churn victims

	t0      time.Time   // markStart
	pending []timedCall // sorted by at, insertion order among equals
}

type timedCall struct {
	at time.Duration
	fn func()
}

func newOverlay[M member](sc Scenario, h host[M], settle time.Duration) overlay[M] {
	return overlay[M]{
		sc:     sc,
		host:   h,
		settle: settle,
		rng:    rand.New(rand.NewSource(sc.Seed)),
		spared: make(map[NodeID]bool),
	}
}

// livePoll paces the wall-clock state polls (readiness, drain).
const livePoll = 20 * time.Millisecond

// spawn brings one fresh member up at the next join index. The per-peer
// configuration is derived exactly once per member, as on the simulator.
func (o *overlay[M]) spawn(cfg Config) (M, error) {
	m, err := o.host.spawn(len(o.slots), cfg)
	if err == nil {
		o.slots = append(o.slots, &slot[M]{m: m, alive: true, born: time.Now()})
	}
	return m, err
}

// alive returns the currently alive members in creation order.
func (o *overlay[M]) alive() []M {
	out := make([]M, 0, len(o.slots))
	for _, s := range o.slots {
		if s.alive {
			out = append(out, s.m)
		}
	}
	return out
}

// spawnInitial brings one member up per topology slot, each instrumented
// before any join so no delivery can be missed.
func (o *overlay[M]) spawnInitial(ctx context.Context) error {
	o.ctx = ctx
	for i := 0; i < o.sc.Topology.Nodes; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		cfg := o.sc.Topology.configFor(i)
		err := o.host.check(cfg)
		if err == nil {
			_, err = o.spawn(cfg)
		}
		if err != nil {
			return fmt.Errorf("node %d: %w", i, err)
		}
	}
	return nil
}

// connect bootstraps the initial members — each joins through the first
// member plus its predecessor, two contacts, exercising the multi-contact
// retry path — and then polls until every member holds an active neighbor,
// bounded by the topology's StabilizeTime. Join blocks until the overlay
// accepts the member, so no fixed inter-join sleep is needed.
func (o *overlay[M]) connect(ctx context.Context) error {
	for i := 1; i < len(o.slots); i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		contacts := []string{o.slots[0].m.address()}
		if i > 1 {
			contacts = append(contacts, o.slots[i-1].m.address())
		}
		if err := o.slots[i].m.join(contacts, true); err != nil {
			return fmt.Errorf("node %d join: %w", i, err)
		}
	}
	if len(o.slots) < 2 {
		return nil
	}
	bound := o.sc.Topology.StabilizeTime
	if bound == 0 {
		bound = o.settle
	}
	deadline := time.Now().Add(bound)
	for !o.ready() {
		if time.Now().After(deadline) {
			return fmt.Errorf("overlay not connected within %v", bound)
		}
		if !sleepFor(ctx, livePoll) {
			return ctx.Err()
		}
	}
	return nil
}

// ready reports whether every alive member holds an active neighbor.
func (o *overlay[M]) ready() bool {
	for _, m := range o.alive() {
		if m.neighbors() == 0 {
			return false
		}
	}
	return true
}

// protect implements world.
func (o *overlay[M]) protect(idx int) NodeID {
	id := o.slots[idx].m.nodeID()
	o.spared[id] = true
	return id
}

// complete reports whether every alive member spawned before a workload's
// first publish holds that workload in full — the drain's early exit. A
// member spawned later missed the earlier sequences and can never catch up,
// so waiting on it would always burn the whole drain budget; one spawned
// before (a churn joiner of a window that closed before the workload
// started, say) holds the stream in full once its bootstrap finishes.
func (o *overlay[M]) complete() bool {
	for _, s := range o.slots {
		if !s.alive {
			continue
		}
		for wi, w := range o.sc.Workloads {
			if s.born.Before(o.t0.Add(w.Start)) && s.m.delivered(wi) < w.Messages {
				return false
			}
		}
		for wi, w := range o.sc.BlobWorkloads {
			if s.born.Before(o.t0.Add(w.Start)) && s.m.blobsDelivered(wi) < w.Blobs {
				return false
			}
		}
	}
	return true
}

// Fail implements trace.Target: crash one random unprotected alive member.
func (o *overlay[M]) Fail() {
	var cands []*slot[M]
	for _, s := range o.slots {
		if s.alive && !o.spared[s.m.nodeID()] {
			cands = append(cands, s)
		}
	}
	if len(cands) == 0 {
		return
	}
	victim := cands[o.rng.Intn(len(cands))]
	victim.alive = false
	victim.m.kill()
}

// Join implements trace.Target: bring a fresh member up at the next join
// index and bootstrap it, in the background, through up to two random alive
// members. A failed bootstrap leaves the member isolated but alive, like a
// real bootstrap loss; the report's Connected metric surfaces it.
func (o *overlay[M]) Join() {
	cfg := o.sc.Topology.configFor(len(o.slots))
	if err := o.host.check(cfg); err != nil {
		// A replay-time invalid PeerConfig is a bug in the caller's
		// derivation, as on the simulator: silently skipping the join would
		// shrink the population the script specifies.
		panic("brisa: churn join: " + err.Error())
	}
	var contacts []string
	for _, i := range o.rng.Perm(len(o.slots)) {
		if s := o.slots[i]; s.alive && len(contacts) < 2 {
			contacts = append(contacts, s.m.address())
		}
	}
	m, err := o.spawn(cfg)
	if err != nil || len(contacts) == 0 {
		// Spawning can fail under load (fds, processes); like a node that
		// dies during bootstrap, the join is lost.
		return
	}
	_ = m.join(contacts, false)
}

// Size implements trace.Target.
func (o *overlay[M]) Size() int { return len(o.alive()) }

// Stop implements trace.Target.
func (o *overlay[M]) Stop() {}

// At implements trace.Scheduler in wall time: fn runs on the run loop once
// offset has passed since markStart.
func (o *overlay[M]) At(offset time.Duration, fn func()) {
	i := sort.Search(len(o.pending), func(i int) bool { return o.pending[i].at > offset })
	o.pending = slices.Insert(o.pending, i, timedCall{at: offset, fn: fn})
}

// run implements world: execute the timeline in wall time, then poll until
// the overlay is complete, bounded by the drain budget. Under churn the
// budget often runs out instead — repairs need the time anyway.
func (o *overlay[M]) run(ctx context.Context, _, drain time.Duration) (time.Duration, error) {
	for len(o.pending) > 0 {
		next := o.pending[0]
		o.pending = o.pending[1:]
		if !sleepFor(ctx, time.Until(o.t0.Add(next.at))) {
			return 0, ctx.Err()
		}
		next.fn()
	}
	deadline := time.Now().Add(drain)
	for time.Now().Before(deadline) && !o.complete() {
		if !sleepFor(ctx, livePoll) {
			return 0, ctx.Err()
		}
	}
	return time.Since(o.t0), ctx.Err()
}

// sleepFor waits d, returning false early when the context is cancelled.
func sleepFor(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
