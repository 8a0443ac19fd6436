// Package livenet runs the same protocol handlers that the simulator drives
// — node.Handler actors — on real TCP connections with one goroutine per
// node. It is the deployment path: cmd/brisa-node hosts one peer per
// process, and the integration tests spin multi-peer networks on loopback.
//
// Identifiers are the paper's 48-bit ip:port pairs, so a NodeID *is* a
// dialable address (ids.NodeID.String() → "a.b.c.d:port") and no external
// address book is needed.
//
// Concurrency model: all Handler callbacks and timer functions run on the
// node's single actor goroutine, exactly like on the simulator; network
// reads/writes happen on per-connection goroutines that only communicate
// with the actor through its mailbox.
package livenet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ids"
	nodepkg "repro/internal/node"
	"repro/internal/wire"
)

// maxFrame bounds a single wire frame (1 MiB covers the largest payloads
// the experiments use, with headroom).
const maxFrame = 1 << 20

// inboxDepth is how many decoded messages a connection's reader may run ahead
// of the actor: about what one 4 KiB socket read holds at 256 B a message, so
// a reader still batches, while an idle connection costs a few hundred bytes.
const inboxDepth = 16

// ErrStopped is reported on sends after the node shut down.
var ErrStopped = errors.New("livenet: node stopped")

// Traffic counts framed protocol messages and wire bytes (frame header
// included, the 6-byte connection hello excluded) over one node or one
// connection — the live runtime's traffic tap, the wire-level analog of the
// simulator's byte counters. Flushes counts the writes that reached the socket
// (one per actor turn and connection sent on, one more whenever the write
// buffer fills), so MsgsOut / Flushes is the messages per write.
type Traffic struct {
	MsgsIn, MsgsOut   uint64
	BytesIn, BytesOut uint64
	Flushes           uint64
}

// Add returns the element-wise sum.
func (t Traffic) Add(o Traffic) Traffic {
	return Traffic{
		MsgsIn:   t.MsgsIn + o.MsgsIn,
		MsgsOut:  t.MsgsOut + o.MsgsOut,
		BytesIn:  t.BytesIn + o.BytesIn,
		BytesOut: t.BytesOut + o.BytesOut,
		Flushes:  t.Flushes + o.Flushes,
	}
}

// Sub returns the element-wise difference — deltas against a baseline
// snapshot taken earlier on the same node.
func (t Traffic) Sub(o Traffic) Traffic {
	return Traffic{
		MsgsIn:   t.MsgsIn - o.MsgsIn,
		MsgsOut:  t.MsgsOut - o.MsgsOut,
		BytesIn:  t.BytesIn - o.BytesIn,
		BytesOut: t.BytesOut - o.BytesOut,
		Flushes:  t.Flushes - o.Flushes,
	}
}

// Config configures a live node.
type Config struct {
	// Listen is the TCP listen address, e.g. "127.0.0.1:0". The node's
	// identifier is derived from the bound address.
	Listen string
	// Handler is the protocol stack (e.g. a brisa.Peer's Handler). Required
	// by Start; ignored by Listen, whose callers pass the handler to Run
	// once the bound identifier is known.
	Handler nodepkg.Handler
	// Seed seeds the node's RNG, an 8-byte node.SplitMix; 0 uses the current time.
	Seed int64
	// Logf, when set, receives debug output.
	Logf func(format string, args ...any)
}

// Node is one live protocol instance.
type Node struct {
	id       ids.NodeID
	handler  nodepkg.Handler
	listener net.Listener
	mailbox  chan func()
	rng      *rand.Rand
	logf     func(string, ...any)

	mu    sync.Mutex
	conns map[ids.NodeID]*liveConn
	// dialing tracks in-flight outbound dials so Connect is idempotent.
	dialing map[ids.NodeID]bool
	// retired accumulates the counters of closed connections so Traffic
	// stays monotonic across connection churn.
	retired Traffic
	running bool
	stopped bool

	// written lists the connections holding frames Send buffered during the
	// current actor turn; the actor flushes them when the turn ends. Owned by
	// the actor goroutine, like every Env call.
	written []*liveConn

	done chan struct{}
	wg   sync.WaitGroup
}

type liveConn struct {
	peer ids.NodeID
	c    net.Conn
	wmu  sync.Mutex
	w    *bufio.Writer
	// unflushed: w holds frames and the connection is in Node.written.
	// Guarded by wmu.
	unflushed bool

	// Reader → actor hand-off without a closure per message and with one
	// mailbox post per burst: the reader queues the decoded message here and
	// posts deliver — allocated once per connection — unless one is already
	// posted (scheduled). deliver clears scheduled first and then hands the
	// handler every message queued by then, so a message queued behind a
	// posted deliver is either taken by it or posts the next one. inbox
	// bounds how far the reader runs ahead, the mailbox orders the bursts.
	inbox     chan wire.Message
	scheduled atomic.Bool
	deliver   func()
	// Owned by the reader goroutine: frames that fit r's buffer are decoded
	// there, larger ones in scratch (at most maxFrame, kept for reuse), and
	// dec interns the embedded path the peer's messages repeat and carves
	// their payloads from a slab.
	r       *bufio.Reader
	scratch []byte
	dec     wire.ConnDecoder

	// Per-connection tap: bumped on the reader goroutine and under wmu on
	// the writer side, read from any goroutine.
	msgsIn, msgsOut, bytesIn, bytesOut, flushes atomic.Uint64
}

// traffic snapshots this connection's counters.
func (lc *liveConn) traffic() Traffic {
	return Traffic{
		MsgsIn:   lc.msgsIn.Load(),
		MsgsOut:  lc.msgsOut.Load(),
		BytesIn:  lc.bytesIn.Load(),
		BytesOut: lc.bytesOut.Load(),
		Flushes:  lc.flushes.Load(),
	}
}

// Listen binds the TCP listener and derives the node's identifier from the
// bound address, without starting the runtime. This is the first half of the
// two-phase assembly that lets a caller build a protocol stack which needs
// the identifier (a brisa.Peer) before any callback can fire: Listen → read
// ID() → assemble the stack → Run. A node that never Runs only holds the
// listener; Stop releases it.
func Listen(cfg Config) (*Node, error) {
	ln, err := net.Listen("tcp4", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("livenet: listen: %w", err)
	}
	addr := ln.Addr().(*net.TCPAddr)
	ip4 := addr.IP.To4()
	if ip4 == nil {
		ln.Close()
		return nil, fmt.Errorf("livenet: need an IPv4 listen address, got %v", addr)
	}
	id := ids.FromHostPort(binary.BigEndian.Uint32(ip4), uint16(addr.Port))
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	return &Node{
		id:       id,
		listener: ln,
		mailbox:  make(chan func(), 4096),
		rng:      nodepkg.NewRand(uint64(seed)),
		logf:     cfg.Logf,
		conns:    make(map[ids.NodeID]*liveConn),
		dialing:  make(map[ids.NodeID]bool),
		done:     make(chan struct{}),
	}, nil
}

// Run installs the protocol handler and launches the actor and accept loops.
// It may be called once, after Listen; the returned node is then running
// until Stop.
func (n *Node) Run(h nodepkg.Handler) error {
	if h == nil {
		return errors.New("livenet: Run requires a handler")
	}
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return ErrStopped
	}
	if n.running {
		n.mu.Unlock()
		return errors.New("livenet: node already running")
	}
	n.running = true
	n.handler = h
	n.mu.Unlock()
	n.wg.Add(2)
	go n.actorLoop()
	go n.acceptLoop()
	n.enqueue(func() { n.handler.Start(n) })
	return nil
}

// Start binds the listener and launches the actor loop in one step, for
// handlers that do not need the bound identifier up front. The returned node
// is running; call Stop to shut it down.
func Start(cfg Config) (*Node, error) {
	if cfg.Handler == nil {
		return nil, errors.New("livenet: Config.Handler is required")
	}
	n, err := Listen(cfg)
	if err != nil {
		return nil, err
	}
	if err := n.Run(cfg.Handler); err != nil {
		n.Stop()
		return nil, err
	}
	return n, nil
}

// ID returns the node's identifier (its ip:port).
func (n *Node) ID() ids.NodeID { return n.id }

// Addr returns the bound listen address.
func (n *Node) Addr() string { return n.id.String() }

// Stop shuts the node down: Handler.Stop runs on the actor, then all
// connections and the listener close. Stopping a node that never Ran just
// releases its listener. Stop is idempotent.
func (n *Node) Stop() {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return
	}
	n.stopped = true
	running := n.running
	conns := make([]*liveConn, 0, len(n.conns))
	for _, c := range n.conns {
		conns = append(conns, c)
	}
	n.mu.Unlock()

	if running {
		stopDone := make(chan struct{})
		n.enqueue(func() {
			n.handler.Stop()
			n.flushWritten() // before the connections close under it
			close(stopDone)
		})
		select {
		case <-stopDone:
		case <-time.After(2 * time.Second):
		}
	}
	close(n.done)
	n.listener.Close()
	for _, c := range conns {
		c.c.Close()
	}
	n.wg.Wait()
}

// Stopped reports whether the node has shut down.
func (n *Node) Stopped() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stopped
}

// Call runs fn on the actor goroutine and waits for it — callers use this to
// inspect protocol state without racing the actor. After Stop, Call returns
// without guaranteeing fn ran — but never while fn is still running: a
// shutdown racing an in-flight call either abandons fn before it starts or
// waits for it to finish, so the caller can safely read state fn wrote.
func (n *Node) Call(fn func()) {
	c := callPool.Get().(*call)
	c.fn = fn
	n.enqueue(c.run)
	select {
	case <-c.done:
		c.fn = nil
		callPool.Put(c)
	case <-n.done:
		// Claim the call: if the actor already entered fn, this blocks
		// until it finished (establishing the happens-before the caller
		// needs); otherwise fn will never run. The mailbox may still hold
		// c.run, so an abandoned call is never recycled.
		c.mu.Lock()
		c.abandoned = true
		c.mu.Unlock()
	}
}

// call is the state of one Node.Call, recycled once the actor is through
// with it so a caller at full rate (Publish) allocates nothing per call.
type call struct {
	mu        sync.Mutex
	fn        func()
	abandoned bool
	done      chan struct{} // buffered: the actor never waits for the caller
	run       func()        // c.exec, bound once
}

var callPool = sync.Pool{New: func() any {
	c := &call{done: make(chan struct{}, 1)}
	c.run = c.exec
	return c
}}

// exec runs on the actor. The send on done is its last access to c: the
// caller that receives it owns c again.
func (c *call) exec() {
	c.mu.Lock()
	if c.abandoned {
		c.mu.Unlock()
		return
	}
	c.fn()
	c.mu.Unlock()
	c.done <- struct{}{}
}

// ---------------------------------------------------------------- actor env

// enqueue posts work to the actor loop; drops silently after shutdown.
func (n *Node) enqueue(fn func()) {
	select {
	case n.mailbox <- fn:
	case <-n.done:
	}
}

func (n *Node) actorLoop() {
	defer n.wg.Done()
	for {
		select {
		case fn := <-n.mailbox:
			fn()
			n.flushWritten()
		case <-n.done:
			return
		}
	}
}

// Now implements node.Env.
func (n *Node) Now() time.Time { return time.Now() }

// Rand implements node.Env.
func (n *Node) Rand() *rand.Rand { return n.rng }

// Log implements node.Env.
func (n *Node) Log(format string, args ...any) {
	if n.logf != nil {
		n.logf("[%v] "+format, append([]any{n.id}, args...)...)
	}
}

type liveTimer struct{ t *time.Timer }

func (t liveTimer) Stop() bool { return t.t.Stop() }

// After implements node.Env: the callback is marshalled onto the actor.
func (n *Node) After(d time.Duration, fn func()) nodepkg.Timer {
	return liveTimer{t: time.AfterFunc(d, func() { n.enqueue(fn) })}
}

// Connected implements node.Env.
func (n *Node) Connected(to ids.NodeID) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	_, ok := n.conns[to]
	return ok
}

// Connect implements node.Env: dials the peer's ip:port asynchronously.
func (n *Node) Connect(to ids.NodeID) {
	n.mu.Lock()
	if n.stopped || n.dialing[to] {
		n.mu.Unlock()
		return
	}
	if _, ok := n.conns[to]; ok {
		n.mu.Unlock()
		return
	}
	n.dialing[to] = true
	n.mu.Unlock()

	go func() {
		conn, err := net.DialTimeout("tcp4", to.String(), 3*time.Second)
		n.mu.Lock()
		delete(n.dialing, to)
		stopped := n.stopped
		n.mu.Unlock()
		if stopped {
			if err == nil {
				conn.Close()
			}
			return
		}
		if err != nil {
			n.enqueue(func() { n.handler.ConnDown(to, err) })
			return
		}
		// Identify ourselves: the hello frame carries our NodeID so the
		// acceptor knows who dialed.
		if err := writeHello(conn, n.id); err != nil {
			conn.Close()
			n.enqueue(func() { n.handler.ConnDown(to, err) })
			return
		}
		n.registerConn(to, conn)
	}()
}

// Close implements node.Env.
func (n *Node) Close(to ids.NodeID) {
	n.mu.Lock()
	c, ok := n.conns[to]
	if ok {
		delete(n.conns, to)
		n.retired = n.retired.Add(c.traffic())
	}
	n.mu.Unlock()
	if ok {
		c.flush()   // what this turn sent before closing still goes out
		c.c.Close() // the reader goroutine exits; no local ConnDown
	}
}

// Send implements node.Env: frames the message into the connection's write
// buffer, which goes to the socket when the actor turn ends (one write for
// everything the turn sent to that peer) or when it fills; write errors
// surface as ConnDown.
func (n *Node) Send(to ids.NodeID, m wire.Message) {
	n.mu.Lock()
	c, ok := n.conns[to]
	n.mu.Unlock()
	if !ok {
		return // no established connection: dropped, like a broken stream
	}
	size := m.WireSize()
	if size > maxFrame {
		// Every receiver would refuse the frame and drop the connection.
		n.Log("dropping %v to %v: frame is %d bytes, max %d", m.Kind(), to, size, maxFrame)
		return
	}
	// Frame into a pooled buffer — length header and body in one write —
	// so a node sending at full rate allocates nothing per message.
	bufp := wire.GetBuffer()
	if cap(*bufp) < 4+size {
		*bufp = make([]byte, 0, 4+size) // one exact allocation, not a doubling chain
	}
	buf := append(*bufp, 0, 0, 0, 0)
	buf = wire.AppendFrame(buf, m)
	binary.BigEndian.PutUint32(buf[:4], uint32(len(buf)-4))
	c.wmu.Lock()
	_, err := c.w.Write(buf)
	if err == nil {
		c.msgsOut.Add(1)
		c.bytesOut.Add(uint64(len(buf)))
		if !c.unflushed {
			c.unflushed = true
			n.written = append(n.written, c)
		}
	}
	c.wmu.Unlock()
	*bufp = buf[:0]
	wire.PutBuffer(bufp)
	if err != nil {
		n.dropConn(to, c, err)
	}
}

// flush hands the buffered frames to the socket.
func (lc *liveConn) flush() error {
	lc.wmu.Lock()
	defer lc.wmu.Unlock()
	lc.unflushed = false
	return lc.w.Flush()
}

// flushWritten ends an actor turn: every connection the turn sent on is
// flushed once.
func (n *Node) flushWritten() {
	for i, c := range n.written {
		n.written[i] = nil
		if err := c.flush(); err != nil {
			n.dropConn(c.peer, c, err)
		}
	}
	n.written = n.written[:0]
}

// countedWriter counts the writes that reach the socket.
type countedWriter struct {
	w io.Writer
	n *atomic.Uint64
}

func (cw countedWriter) Write(p []byte) (int, error) {
	cw.n.Add(1)
	return cw.w.Write(p)
}

// Traffic returns the node's cumulative wire counters: the sum over all
// connections ever held, closed ones included.
func (n *Node) Traffic() Traffic {
	n.mu.Lock()
	defer n.mu.Unlock()
	t := n.retired
	for _, c := range n.conns {
		t = t.Add(c.traffic())
	}
	return t
}

// ConnTraffic returns the per-connection counters of the currently open
// connections, keyed by remote node.
func (n *Node) ConnTraffic() map[ids.NodeID]Traffic {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make(map[ids.NodeID]Traffic, len(n.conns))
	for peer, c := range n.conns {
		out[peer] = c.traffic()
	}
	return out
}

// ---------------------------------------------------------------- plumbing

func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.listener.Accept()
		if err != nil {
			return // listener closed
		}
		go func() {
			peer, err := readHello(conn)
			if err != nil || !peer.Valid() {
				conn.Close()
				return
			}
			n.registerConn(peer, conn)
		}()
	}
}

// registerConn installs a connection and starts its reader. If a connection
// to the peer already exists, the new one is dropped (first wins; the
// protocols tolerate a failed dial).
func (n *Node) registerConn(peer ids.NodeID, conn net.Conn) {
	lc := &liveConn{peer: peer, c: conn, inbox: make(chan wire.Message, inboxDepth)}
	lc.w = bufio.NewWriter(countedWriter{conn, &lc.flushes})
	lc.deliver = func() {
		lc.scheduled.Store(false)
		for k := len(lc.inbox); k > 0; k-- {
			n.handler.Receive(lc.peer, <-lc.inbox)
		}
	}
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		conn.Close()
		return
	}
	if _, dup := n.conns[peer]; dup {
		n.mu.Unlock()
		conn.Close()
		return
	}
	n.conns[peer] = lc
	n.wg.Add(1) // readLoop's, while mu still shows the node running: Stop's Wait comes after
	n.mu.Unlock()
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	n.enqueue(func() { n.handler.ConnUp(peer) })
	go n.readLoop(lc)
}

func (n *Node) readLoop(lc *liveConn) {
	defer n.wg.Done()
	lc.r = bufio.NewReader(lc.c)
	for {
		msg, err := lc.readFrame()
		if err != nil {
			n.dropConn(lc.peer, lc, err)
			return
		}
		select {
		case lc.inbox <- msg:
			if lc.scheduled.CompareAndSwap(false, true) {
				n.enqueue(lc.deliver)
			}
		case <-n.done:
			return
		}
	}
}

// readFrame reads and decodes one length-prefixed frame. The decoder copies
// whatever the message keeps, so the frame is decoded where it was read and
// that storage is reused for the next frame; what successive messages may
// share is lc.dec's doing: an unchanged Path handed out again, and the backing
// array of their Data payloads.
func (lc *liveConn) readFrame() (wire.Message, error) {
	r := lc.r
	hdr, err := peekFull(r, 4)
	if err != nil {
		return nil, err
	}
	size := int(binary.BigEndian.Uint32(hdr))
	if size == 0 || size > maxFrame {
		return nil, fmt.Errorf("livenet: bad frame size %d", size)
	}
	var frame []byte
	inPlace := 4+size <= r.Size()
	if inPlace {
		if frame, err = peekFull(r, 4+size); err != nil {
			return nil, err
		}
		frame = frame[4:]
	} else {
		r.Discard(4)
		if cap(lc.scratch) < size {
			lc.scratch = make([]byte, size)
		}
		frame = lc.scratch[:size]
		if _, err := io.ReadFull(r, frame); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	lc.msgsIn.Add(1)
	lc.bytesIn.Add(4 + uint64(size))
	msg, err := lc.dec.Unmarshal(frame)
	if inPlace {
		r.Discard(4 + size) // only now: Discard gives the viewed bytes back to r
	}
	return msg, err
}

// peekFull is r.Peek(n) with io.ReadFull's error convention: a stream that
// ends inside the n bytes is io.ErrUnexpectedEOF, one that ends before them
// io.EOF.
func peekFull(r *bufio.Reader, n int) ([]byte, error) {
	b, err := r.Peek(n)
	if err == io.EOF && len(b) > 0 {
		err = io.ErrUnexpectedEOF
	}
	return b, err
}

// dropConn removes a broken connection and reports ConnDown once.
func (n *Node) dropConn(peer ids.NodeID, lc *liveConn, err error) {
	n.mu.Lock()
	cur, ok := n.conns[peer]
	if ok && cur == lc {
		delete(n.conns, peer)
		n.retired = n.retired.Add(lc.traffic())
	} else {
		ok = false
	}
	stopped := n.stopped
	n.mu.Unlock()
	lc.c.Close()
	if ok && !stopped {
		n.enqueue(func() { n.handler.ConnDown(peer, err) })
	}
}

// writeHello sends the 6-byte dialer identifier.
func writeHello(c net.Conn, id ids.NodeID) error {
	e := wire.Encoder{}
	e.NodeID(id)
	c.SetWriteDeadline(time.Now().Add(3 * time.Second))
	defer c.SetWriteDeadline(time.Time{})
	_, err := c.Write(e.B)
	return err
}

// readHello reads the dialer identifier.
func readHello(c net.Conn) (ids.NodeID, error) {
	buf := make([]byte, ids.WireSize)
	c.SetReadDeadline(time.Now().Add(3 * time.Second))
	defer c.SetReadDeadline(time.Time{})
	if _, err := io.ReadFull(c, buf); err != nil {
		return ids.Nil, err
	}
	d := wire.Decoder{B: buf}
	return d.NodeID(), d.Finish()
}

var _ nodepkg.Env = (*Node)(nil)
