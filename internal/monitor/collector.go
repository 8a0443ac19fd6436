package monitor

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/ids"
)

// StreamState accumulates one node's measurements for one workload.
type StreamState struct {
	Samples []SeqAt // deliveries, in arrival order
	Dups    uint64  // summed Duplicates deltas
	Snap    *StreamSnap
}

// BlobState accumulates one node's measurements for one blob workload.
type BlobState struct {
	Done map[uint32]BlobDone // by blob id
	Snap *BlobSnap
}

// NodeState is everything one remote node has reported.
type NodeState struct {
	Agent       string
	Index       int
	Streams     map[int]*StreamState // by workload index
	Blobs       map[int]*BlobState   // by blob workload index
	HardNanos   []int64
	Traffic     Traffic
	TrafficBase Traffic
	Metrics     NodeMetrics
	HasTraffic  bool
}

func (n *NodeState) stream(wi int) *StreamState {
	st, ok := n.Streams[wi]
	if !ok {
		st = &StreamState{}
		n.Streams[wi] = st
	}
	return st
}

func (n *NodeState) blob(wi int) *BlobState {
	st, ok := n.Blobs[wi]
	if !ok {
		st = &BlobState{Done: make(map[uint32]BlobDone)}
		n.Blobs[wi] = st
	}
	return st
}

// Collector listens for monitor connections from remote workers and
// accumulates their measurements. All state lives behind one mutex; the
// driver reads it through View (and the typed helpers) and folds it into the
// Report after the final flush barrier.
type Collector struct {
	ln     net.Listener
	mu     sync.Mutex
	nodes  map[ids.NodeID]*NodeState
	pubs   map[int]map[uint32]int64         // workload → seq → publish unixnano
	blobs  map[int]map[uint32]BlobPublished // blob workload → blob id → injection
	tokens map[uint64]map[ids.NodeID]bool   // flush token → nodes that passed it
	conns  map[net.Conn]bool
	wg     sync.WaitGroup
	closed bool
}

// NewCollector starts a collector listening on addr ("host:0" picks a port).
// For multi-host runs addr must be reachable from every agent host.
func NewCollector(addr string) (*Collector, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("monitor: listen %s: %w", addr, err)
	}
	c := &Collector{
		ln:     ln,
		nodes:  make(map[ids.NodeID]*NodeState),
		pubs:   make(map[int]map[uint32]int64),
		blobs:  make(map[int]map[uint32]BlobPublished),
		tokens: make(map[uint64]map[ids.NodeID]bool),
		conns:  make(map[net.Conn]bool),
	}
	c.wg.Add(1)
	go c.acceptLoop()
	return c, nil
}

// Addr returns the address workers should dial.
func (c *Collector) Addr() string { return c.ln.Addr().String() }

func (c *Collector) acceptLoop() {
	defer c.wg.Done()
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return // listener closed
		}
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			conn.Close()
			return
		}
		c.conns[conn] = true
		c.mu.Unlock()
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			c.serve(conn)
			conn.Close()
			c.mu.Lock()
			delete(c.conns, conn)
			c.mu.Unlock()
		}()
	}
}

// serve drains one worker connection. The first frame must be a Hello; every
// later frame is attributed to that node. Decode errors drop the connection —
// the final flush barrier surfaces missing nodes as a timeout.
func (c *Collector) serve(conn net.Conn) {
	r := bufio.NewReader(conn)
	first, err := ReadFrame(r)
	if err != nil {
		return
	}
	hello, ok := first.(Hello)
	if !ok {
		return
	}
	c.mu.Lock()
	ns, exists := c.nodes[hello.Node]
	if !exists {
		ns = &NodeState{
			Streams: make(map[int]*StreamState),
			Blobs:   make(map[int]*BlobState),
		}
		c.nodes[hello.Node] = ns
	}
	ns.Agent = hello.Agent
	ns.Index = int(hello.Index)
	c.mu.Unlock()

	for {
		m, err := ReadFrame(r)
		if err != nil {
			return
		}
		c.mu.Lock()
		switch m := m.(type) {
		case Flush:
			set, ok := c.tokens[m.Token]
			if !ok {
				set = make(map[ids.NodeID]bool)
				c.tokens[m.Token] = set
			}
			set[hello.Node] = true
		case Publish:
			seqs, ok := c.pubs[int(m.WI)]
			if !ok {
				seqs = make(map[uint32]int64)
				c.pubs[int(m.WI)] = seqs
			}
			seqs[m.Seq] = m.At
		case Deliveries:
			st := ns.stream(int(m.WI))
			st.Samples = append(st.Samples, m.Samples...)
		case Duplicates:
			ns.stream(int(m.WI)).Dups += m.Count
		case Repairs:
			ns.HardNanos = append(ns.HardNanos, m.HardNanos...)
		case Traffic:
			ns.Traffic = m
			ns.HasTraffic = true
		case NodeMetrics:
			ns.Metrics = m
		case BlobPublished:
			blobs, ok := c.blobs[int(m.WI)]
			if !ok {
				blobs = make(map[uint32]BlobPublished)
				c.blobs[int(m.WI)] = blobs
			}
			blobs[m.Blob] = m
		case BlobDone:
			ns.blob(int(m.WI)).Done[m.Blob] = m
		case StreamSnap:
			snap := m
			ns.stream(int(m.WI)).Snap = &snap
		case BlobSnap:
			snap := m
			ns.blob(int(m.WI)).Snap = &snap
		}
		c.mu.Unlock()
	}
}

// waitPoll is the collector's condition-poll interval.
const waitPoll = 20 * time.Millisecond

// await polls until have holds for every listed node, and names the nodes
// still missing when the timeout expires first.
func (c *Collector) await(ctx context.Context, timeout time.Duration, what string, nodes []ids.NodeID, have func(ids.NodeID) bool) error {
	deadline := time.Now().Add(timeout)
	for {
		var missing []ids.NodeID
		c.mu.Lock()
		for _, id := range nodes {
			if !have(id) {
				missing = append(missing, id)
			}
		}
		c.mu.Unlock()
		if len(missing) == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("monitor: timed out after %v waiting for %s from %d of %d nodes: %v",
				timeout, what, len(missing), len(nodes), missing)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(waitPoll):
		}
	}
}

// WaitFor blocks until every listed node has sent its Hello.
func (c *Collector) WaitFor(ctx context.Context, nodes []ids.NodeID, timeout time.Duration) error {
	return c.await(ctx, timeout, "a hello", nodes, func(id ids.NodeID) bool {
		_, ok := c.nodes[id]
		return ok
	})
}

// WaitFlush blocks until every listed node has passed the flush token —
// i.e. everything those nodes measured before the flush command has been
// folded into the collector's state.
func (c *Collector) WaitFlush(ctx context.Context, token uint64, nodes []ids.NodeID, timeout time.Duration) error {
	return c.await(ctx, timeout, fmt.Sprintf("flush token %d", token), nodes, func(id ids.NodeID) bool {
		return c.tokens[token][id]
	})
}

// DeliveredCount returns how many distinct deliveries a node has reported
// for a workload so far (drain polling; cheap upper-bound check against the
// buffered sample stream, with the snapshot as authority once flushed).
func (c *Collector) DeliveredCount(id ids.NodeID, wi int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	ns, ok := c.nodes[id]
	if !ok {
		return 0
	}
	st, ok := ns.Streams[wi]
	if !ok {
		return 0
	}
	return len(st.Samples)
}

// BlobDoneCount returns how many blob completions a node has reported for a
// blob workload so far.
func (c *Collector) BlobDoneCount(id ids.NodeID, wi int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	ns, ok := c.nodes[id]
	if !ok {
		return 0
	}
	st, ok := ns.Blobs[wi]
	if !ok {
		return 0
	}
	return len(st.Done)
}

// MarkTrafficBase snapshots each listed node's current traffic counters as
// its dissemination baseline (call behind a flush barrier, before the
// workloads start).
func (c *Collector) MarkTrafficBase(nodes []ids.NodeID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, id := range nodes {
		if ns, ok := c.nodes[id]; ok {
			ns.TrafficBase = ns.Traffic
		}
	}
}

// View runs fn with the collector's state under the lock. fn must not
// retain the maps after returning; the fold copies what it needs.
func (c *Collector) View(fn func(nodes map[ids.NodeID]*NodeState, pubs map[int]map[uint32]int64, blobs map[int]map[uint32]BlobPublished)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	fn(c.nodes, c.pubs, c.blobs)
}

// Close stops the listener, drops every open worker connection, and waits
// for the handlers to drain.
func (c *Collector) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	for conn := range c.conns { //brisa:orderinvariant closing every open connection; order immaterial
		conn.Close()
	}
	c.mu.Unlock()
	err := c.ln.Close()
	c.wg.Wait()
	if err != nil && !errors.Is(err, io.EOF) {
		return err
	}
	return nil
}
