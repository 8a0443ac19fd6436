package simnet

// Deterministic fault injection: per-message loss, duplication and reorder,
// asymmetric partitions, and bounded per-node inbound buffers with pluggable
// drop policies.
//
// Every fault decision is a pure hash of (seed, directed pair, per-node draw
// counter) — the same splitmix64 construction as the latency streams in
// sched.go — so fault outcomes are independent of shard count and execution
// interleaving: a lossy run is byte-identical at 1, 2 or 8 workers and rides
// the existing equivalence harness unchanged. Faults never shorten a delay
// (loss removes an event, duplication and reorder only add delay on top of
// the sampled latency), so the conservative lookahead (LatencyModel.MinDelay)
// stays valid.
//
// The pack activates when the accounting phase first switches to
// PhaseDissemination: bootstrap runs clean, so the stabilization phase of a
// faulty run is byte-identical to the fault-free run under the same seed, and
// the measured dissemination is what degrades under adversity.

import (
	"fmt"
	"time"

	"repro/internal/ids"
	"repro/internal/node"
)

// DropPolicy selects which message a full inbound buffer sacrifices.
type DropPolicy int

// Drop policies for FaultModel.Buffer.
const (
	// DropOldest evicts the longest-queued message (tail-keep: the buffer
	// always holds the newest Capacity messages).
	DropOldest DropPolicy = iota
	// DropNewest rejects the arriving message (head-keep).
	DropNewest
	// DropRand sacrifices a hashed pick among the queued messages and the
	// arriving one, uniformly.
	DropRand
)

// String names the policy.
func (p DropPolicy) String() string {
	switch p {
	case DropOldest:
		return "oldest"
	case DropNewest:
		return "newest"
	case DropRand:
		return "rand"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ParseDropPolicy maps a policy name (as printed by String) back to the
// policy; CLI flags use it.
func ParseDropPolicy(s string) (DropPolicy, error) {
	switch s {
	case "oldest":
		return DropOldest, nil
	case "newest":
		return DropNewest, nil
	case "rand":
		return DropRand, nil
	}
	return 0, fmt.Errorf("unknown drop policy %q (want oldest, newest or rand)", s)
}

// Partition is one temporary network split. Node sides are assigned by
// hashing each node id against Fraction (so roughly Fraction of the nodes
// land on the minority side), and messages crossing the cut during
// [Start, End) are silently blackholed at send time — connections stay
// nominally up, exactly like a routing-level partition under TCP keepalive
// timescales shorter than the detector's.
type Partition struct {
	// Start and End bound the window, as offsets from fault activation
	// (the switch to PhaseDissemination).
	Start, End time.Duration
	// Fraction of nodes hashed onto the minority side, in (0, 1).
	Fraction float64
	// Asymmetric cuts only traffic INTO the minority side: minority nodes
	// can still send out (the classic one-way link failure). Symmetric
	// partitions cut both crossing directions.
	Asymmetric bool
}

// BufferModel bounds each node's inbound service queue. Messages are
// serviced by the receiver's CPU one at a time; when more than Capacity
// messages are waiting, the Policy picks a victim. Without an explicit
// Options.ProcessingDelay, Service is charged per message so a queue exists
// to bound (the paper's testbeds always have nonzero per-message cost).
type BufferModel struct {
	// Capacity is the maximum number of queued (arrived, not yet serviced)
	// inbound messages per node. Must be >= 1.
	Capacity int
	// Policy picks the victim when a message arrives at a full buffer.
	Policy DropPolicy
	// Service is the fixed per-message CPU service time used when
	// Options.ProcessingDelay is nil. Defaults to 100µs. Ignored when a
	// ProcessingDelay sampler is configured.
	Service time.Duration
}

// FaultModel configures deterministic fault injection. Zero probabilities
// and empty Partitions/Buffer disable the respective fault. All decisions
// are pure hashes of (Options.Seed, directed pair, per-node counter):
// worker-count-invariant by construction.
type FaultModel struct {
	// Loss is the per-message probability, in [0, 1), that a sent message
	// vanishes in transit. The sender's upload is still charged (the bytes
	// left the NIC); the receiver never sees them.
	Loss float64
	// Duplicate is the per-message probability, in [0, 1), that the network
	// delivers a second copy, ExtraDelay-jittered after the first. The copy
	// charges the receiver's download but not the sender's upload (the
	// network, not the node, created it).
	Duplicate float64
	// Reorder is the per-message probability, in [0, 1), that a message is
	// held back by a hashed fraction of ExtraDelay, allowing later traffic
	// on the same connection to overtake it.
	Reorder float64
	// ExtraDelay caps the additional delay of reordered messages and
	// duplicate copies. Defaults to 20ms.
	ExtraDelay time.Duration
	// Partitions are temporary splits, each with its own window and sides.
	Partitions []Partition
	// Buffer, when set, bounds each node's inbound service queue.
	Buffer *BufferModel
	// OnDrop, when set, observes every buffer drop at the named node — once
	// per dropped message, whether the victim was the arriving message or an
	// evicted queued one — with the virtual time of the drop. With
	// Options.Workers > 1 it runs on shard goroutines and must be safe for
	// concurrent use.
	OnDrop func(node ids.NodeID, at time.Time)
}

// Validate checks ranges. Window-vs-scenario-end checks live with the
// Scenario, which knows the run length.
func (f *FaultModel) Validate() error {
	check := func(name string, p float64) error {
		if p < 0 || p >= 1 {
			return fmt.Errorf("faults: %s probability %v out of range [0, 1)", name, p)
		}
		return nil
	}
	if err := check("loss", f.Loss); err != nil {
		return err
	}
	if err := check("duplicate", f.Duplicate); err != nil {
		return err
	}
	if err := check("reorder", f.Reorder); err != nil {
		return err
	}
	if f.ExtraDelay < 0 {
		return fmt.Errorf("faults: negative extra delay %v", f.ExtraDelay)
	}
	for i, p := range f.Partitions {
		if p.Start < 0 || p.End <= p.Start {
			return fmt.Errorf("faults: partition %d window [%v, %v) is empty or negative", i, p.Start, p.End)
		}
		if p.Fraction <= 0 || p.Fraction >= 1 {
			return fmt.Errorf("faults: partition %d fraction %v out of range (0, 1)", i, p.Fraction)
		}
	}
	if b := f.Buffer; b != nil {
		if b.Capacity < 1 {
			return fmt.Errorf("faults: buffer capacity %d < 1", b.Capacity)
		}
		if b.Service < 0 {
			return fmt.Errorf("faults: negative buffer service time %v", b.Service)
		}
		switch b.Policy {
		case DropOldest, DropNewest, DropRand:
		default:
			return fmt.Errorf("faults: unknown drop policy %d", int(b.Policy))
		}
	}
	return nil
}

// Enabled reports whether any fault is configured.
func (f *FaultModel) Enabled() bool {
	return f != nil && (f.Loss > 0 || f.Duplicate > 0 || f.Reorder > 0 ||
		len(f.Partitions) > 0 || f.Buffer != nil)
}

// sanitized returns a defaulted copy for the Network to own.
func (f FaultModel) sanitized() FaultModel {
	if f.ExtraDelay == 0 {
		f.ExtraDelay = 20 * time.Millisecond
	}
	if f.Buffer != nil {
		b := *f.Buffer
		if b.Service == 0 {
			b.Service = 100 * time.Microsecond
		}
		f.Buffer = &b
	}
	return f
}

// FaultStats counts injected faults. Loss, duplication, reorder and
// partition drops are counted at the sending node; buffer drops at the
// receiving node. Dropped messages charge the sender's upload (the bytes
// were transmitted) but never the receiver's download (they were never
// processed).
type FaultStats struct {
	Lost             uint64 // messages removed in transit by Loss
	Duplicated       uint64 // extra copies injected by Duplicate
	Reordered        uint64 // messages held back by Reorder
	PartitionDropped uint64 // messages blackholed by an active Partition
	BufferDropped    uint64 // messages sacrificed by a full inbound buffer
}

func (s *FaultStats) add(o FaultStats) {
	s.Lost += o.Lost
	s.Duplicated += o.Duplicated
	s.Reordered += o.Reordered
	s.PartitionDropped += o.PartitionDropped
	s.BufferDropped += o.BufferDropped
}

// Delta returns s - base: the faults injected since base was captured
// (reports stay correct when a cluster is reused across runs).
func (s FaultStats) Delta(base FaultStats) FaultStats {
	return FaultStats{
		Lost:             s.Lost - base.Lost,
		Duplicated:       s.Duplicated - base.Duplicated,
		Reordered:        s.Reordered - base.Reordered,
		PartitionDropped: s.PartitionDropped - base.PartitionDropped,
		BufferDropped:    s.BufferDropped - base.BufferDropped,
	}
}

// Total returns the number of injected fault decisions of any kind.
func (s FaultStats) Total() uint64 {
	return s.Lost + s.Duplicated + s.Reordered + s.PartitionDropped + s.BufferDropped
}

// FaultStats sums per-node fault counters. Driver context only.
func (n *Network) FaultStats() FaultStats {
	var t FaultStats
	for _, id := range n.order {
		t.add(n.nodes[id].fstats)
	}
	return t
}

// NodeFaultStats returns one node's fault counters (loss/dup/reorder/
// partition as sender, buffer drops as receiver). Driver context only.
func (n *Network) NodeFaultStats(id ids.NodeID) FaultStats {
	if sn, ok := n.nodes[id]; ok {
		return sn.fstats
	}
	return FaultStats{}
}

// Hash-stream salts. Distinct from the engine's own (sched.go) and
// the planetLab salts (latency.go), so fault draws never correlate with
// delay draws.
const (
	fStreamSalt  = 0xb5297a4d3c5c2b61 // per-message sender-side decision stream
	fDropSalt    = 0x27d4eb2f165667c5 // receiver-side DropRand victim stream
	fPartSalt    = 0x94d049bb133111eb // partition side assignment
	fLossDraw    = 0x01
	fDupDraw     = 0x02
	fReorderDraw = 0x03
	fRDelayDraw  = 0x04
	fDupDelay    = 0x05
)

// partSide reports whether id hashes onto partition p's minority side.
func (n *Network) partSide(i int, id ids.NodeID) bool {
	return unit(node.Mix64(n.partSalts[i]^uint64(id))) < n.faults.Partitions[i].Fraction
}

// partitioned reports whether a message from -> to sent at nowNS crosses an
// active partition cut. Pure function of (ids, time): no draw consumed.
func (n *Network) partitioned(from, to ids.NodeID, nowNS int64) bool {
	rel := nowNS - n.faultT0
	for i := range n.faults.Partitions {
		p := &n.faults.Partitions[i]
		if rel < int64(p.Start) || rel >= int64(p.End) {
			continue
		}
		fromMin, toMin := n.partSide(i, from), n.partSide(i, to)
		if fromMin == toMin {
			continue // same side: unaffected
		}
		if p.Asymmetric && !toMin {
			continue // only traffic into the minority is cut
		}
		return true
	}
	return false
}

// bufVictim decides what a full buffer sacrifices when a message arrives:
// the position in the queue to evict (front = 0), or -1 with admit=false to
// reject the arriving message. occ is the current occupancy (== capacity), h
// the hashed draw for DropRand. Pure function, property-tested against a
// naive model in faults_test.go.
func bufVictim(p DropPolicy, occ int, h uint64) (evict int, admit bool) {
	switch p {
	case DropOldest:
		return 0, true
	case DropNewest:
		return -1, false
	case DropRand:
		// Uniform over the occ queued messages plus the arriving one.
		j := int(h % uint64(occ+1))
		if j == occ {
			return -1, false
		}
		return j, true
	}
	return -1, false
}

// bufAdmit enforces the buffer bound for a message arriving at to: it
// evicts a queued event or rejects the arrival per the policy, counting the
// drop exactly once. Returns whether the arriving message may proceed.
// Runs on the receiver's shard.
func (n *Network) bufAdmit(s *shard, to *simNode) bool {
	b := n.faults.Buffer
	if len(to.inq) < b.Capacity {
		return true
	}
	var h uint64
	if b.Policy == DropRand {
		h = mixNode(n.opts.Seed, fDropSalt, to.id, to.dropSeq)
		to.dropSeq++
	}
	evict, admit := bufVictim(b.Policy, len(to.inq), h)
	if evict >= 0 {
		victim := to.inq[evict]
		to.inq = append(to.inq[:evict], to.inq[evict+1:]...)
		vev := &s.events[victim]
		// The victim's CPU slot is not reclaimed (the service schedule of
		// later queued messages is already fixed); only the dispatch is
		// cancelled. A real kernel behaves the same way once the DMA slot
		// is committed.
		s.heapRemove(int(vev.heapIdx))
		s.release(victim)
	}
	to.fstats.BufferDropped++
	if n.faults.OnDrop != nil {
		n.faults.OnDrop(to.id, epoch.Add(time.Duration(s.nowNS)))
	}
	return admit
}

// inqForget removes a fired or cancelled event from the receiver's queue
// tracking. Equal service times make the heap fire evMsgReady events in
// (src, seq) order rather than strict append order, so the fired event is
// near — but not always at — the front.
func inqForget(q []int32, idx int32) []int32 {
	for i, v := range q {
		if v == idx {
			return append(q[:i], q[i+1:]...)
		}
	}
	return q
}

// applyFaults runs the sender-side fault pipeline for a message whose
// fault-free delivery is at arriveNS. It returns the (possibly delayed)
// delivery time and whether the message survives; it may schedule one extra
// duplicate delivery. Must be called after FIFO-floor and egress accounting
// so a dropped message still evolves connection state exactly like a
// delivered one. Runs on the sender's shard.
func (n *Network) applyFaults(self *simNode, peer *simNode, arriveNS int64, ev event) (int64, bool) {
	f := n.faults
	if n.partitioned(self.id, peer.id, self.shard.nowNS) {
		self.fstats.PartitionDropped++
		return 0, false
	}
	if f.Loss == 0 && f.Duplicate == 0 && f.Reorder == 0 {
		return arriveNS, true
	}
	h := mixPair(n.opts.Seed, fStreamSalt, self.id, peer.id, self.faultSeq)
	self.faultSeq++
	if f.Loss > 0 && unit(node.Mix64(h^fLossDraw)) < f.Loss {
		self.fstats.Lost++
		return 0, false
	}
	if f.Reorder > 0 && unit(node.Mix64(h^fReorderDraw)) < f.Reorder {
		// Held back beyond the FIFO floor: later sends on this connection
		// may genuinely overtake it.
		arriveNS += int64(unit(node.Mix64(h^fRDelayDraw)) * float64(f.ExtraDelay))
		self.fstats.Reordered++
	}
	if f.Duplicate > 0 && unit(node.Mix64(h^fDupDraw)) < f.Duplicate {
		self.fstats.Duplicated++
		ev.at = arriveNS + int64(unit(node.Mix64(h^fDupDelay))*float64(f.ExtraDelay))
		n.scheduleNode(self, peer.shard, ev)
	}
	return arriveNS, true
}
