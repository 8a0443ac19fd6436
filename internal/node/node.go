// Package node defines the actor contract protocol implementations are
// written against. The same Handler code runs unchanged on the deterministic
// discrete-event simulator (internal/simnet) and on the live goroutine/TCP
// runtime (internal/livenet).
//
// Concurrency model: every node is a single-threaded actor. All Handler
// methods and all timer callbacks for one node are invoked serially by the
// runtime, so protocol state needs no locking. Handlers must not block.
// The one exception is Listeners, the registry through which a node's
// deliveries and events leave the actor: other goroutines attach to it.
package node

import (
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ids"
	"repro/internal/wire"
)

// Timer is a cancellable pending callback.
type Timer interface {
	// Stop cancels the timer and reports whether it was still pending.
	Stop() bool
}

// Env is the runtime a node lives in: identity, time, timers, and
// connection-oriented messaging with failure detection (the paper's "opened
// TCP connection ... with fault detection", §II-A).
type Env interface {
	// ID returns this node's identifier.
	ID() ids.NodeID

	// Now returns the current (virtual or wall) time.
	Now() time.Time

	// Rand returns this node's deterministic random source. Only valid to
	// use from the node's own callbacks.
	Rand() *rand.Rand

	// After schedules fn to run on this node's actor loop after d. The
	// returned Timer can cancel it.
	After(d time.Duration, fn func()) Timer

	// Connect opens a connection to the peer. Completion is reported via
	// Handler.ConnUp (or ConnDown with an error if the dial fails). Opening
	// an already-open or in-progress connection is a no-op.
	Connect(to ids.NodeID)

	// Close tears down the connection to the peer, if any. The remote side
	// observes ConnDown; the local side gets no callback.
	Close(to ids.NodeID)

	// Send transmits a message on an established connection. Messages on a
	// connection that is not (yet or anymore) established are dropped, as
	// they would be on a broken TCP stream; the failure eventually surfaces
	// as ConnDown.
	//
	// Ownership: from Send on, m and every slice it carries (path, payload,
	// piggyback) are shared and read-only. The simulator delivers the very
	// same value — possibly on another scheduler shard, possibly much later
	// — and senders hand one message to many peers, so a sender that wants
	// different contents builds a new slice; it never writes into a sent one.
	// A message may be sent as a pointer (the heartbeat round sends each
	// neighbour a pointer into one slab); the pointee is then read-only too,
	// and the receiver gets the pointer, not a copy.
	Send(to ids.NodeID, m wire.Message)

	// Connected reports whether a connection to the peer is established.
	Connected(to ids.NodeID) bool

	// Log writes a debug line tagged with the node and current time.
	Log(format string, args ...any)
}

// Handler is the protocol side of a node.
type Handler interface {
	// Start runs once when the node boots, before any other callback.
	Start(env Env)

	// Receive delivers one message from an established connection. m is
	// shared with the sender and with the other receivers of the same Send
	// (see Env.Send). On the live transport successive messages of one
	// connection may also share storage (wire.ConnDecoder): an unchanged
	// Path is the same slice, and successive Data payloads may sit in one
	// backing array, each capped at its length so that an append copies; a
	// payload that is kept pins at most 2 KiB of it. The handler may keep m
	// and its slices for as long as it only reads them, and copies whatever
	// it wants to change.
	Receive(from ids.NodeID, m wire.Message)

	// ConnUp reports that a connection (initiated by either side) is
	// established.
	ConnUp(peer ids.NodeID)

	// ConnDown reports that the connection to peer was lost: the peer
	// closed it, crashed (detected by the transport's failure detector), or
	// an outgoing dial failed.
	ConnDown(peer ids.NodeID, err error)

	// Stop runs when the node is shut down cleanly. Crash-killed nodes do
	// not get a Stop.
	Stop()
}

// Proto is a sub-protocol that a Mux dispatches to. It mirrors Handler but
// receives only its own kinds.
type Proto interface {
	Start(env Env)
	Receive(from ids.NodeID, m wire.Message)
	ConnUp(peer ids.NodeID)
	ConnDown(peer ids.NodeID, err error)
	Stop()
}

// BaseProto provides no-op implementations of the Proto callbacks so small
// protocols only implement what they need.
type BaseProto struct{}

// Start implements Proto.
func (BaseProto) Start(Env) {}

// Receive implements Proto.
func (BaseProto) Receive(ids.NodeID, wire.Message) {}

// ConnUp implements Proto.
func (BaseProto) ConnUp(ids.NodeID) {}

// ConnDown implements Proto.
func (BaseProto) ConnDown(ids.NodeID, error) {}

// Stop implements Proto.
func (BaseProto) Stop() {}

// Mux is a Handler that routes messages to sub-protocols by wire kind and
// fans connection events out to all of them. Registration order fixes the
// order of Start/ConnUp/ConnDown/Stop fan-out (lower layers first).
type Mux struct {
	protos []Proto
	// byKind[k] is one more than the index in protos of kind k's owner, 0
	// for an unowned kind; it ends at the highest registered kind.
	byKind []uint8
}

// NewMux returns an empty Mux.
func NewMux() *Mux { return &Mux{} }

// Register adds a sub-protocol and the kinds it owns.
func (m *Mux) Register(p Proto, kinds ...wire.Kind) {
	m.protos = append(m.protos, p)
	for _, k := range kinds {
		if grow := int(k) + 1 - len(m.byKind); grow > 0 {
			m.byKind = append(m.byKind, make([]uint8, grow)...)
		}
		if m.byKind[k] != 0 {
			panic("node: kind registered twice: " + k.String())
		}
		m.byKind[k] = uint8(len(m.protos))
	}
}

// Start implements Handler.
func (m *Mux) Start(env Env) {
	for _, p := range m.protos {
		p.Start(env)
	}
}

// Receive implements Handler.
func (m *Mux) Receive(from ids.NodeID, msg wire.Message) {
	if k := int(msg.Kind()); k < len(m.byKind) && m.byKind[k] != 0 {
		m.protos[m.byKind[k]-1].Receive(from, msg)
	}
}

// ConnUp implements Handler.
func (m *Mux) ConnUp(peer ids.NodeID) {
	for _, p := range m.protos {
		p.ConnUp(peer)
	}
}

// ConnDown implements Handler.
func (m *Mux) ConnDown(peer ids.NodeID, err error) {
	for _, p := range m.protos {
		p.ConnDown(peer, err)
	}
}

// Stop implements Handler.
func (m *Mux) Stop() {
	for i := len(m.protos) - 1; i >= 0; i-- {
		m.protos[i].Stop()
	}
}

// Listeners is a registry of callbacks of one kind, the one every layer
// hands deliveries and events through. Add and cancel take a mutex and are
// safe from any goroutine; Emit takes no lock: it reads one atomic snapshot
// and calls every listener in registration order. The snapshot is replaced,
// never edited, so a cancel from inside a callback does not disturb the
// fan-out it runs in. The zero value is an empty registry.
type Listeners[T any] struct {
	mu   sync.Mutex
	snap atomic.Pointer[[]*func(T)] // nil while empty
}

// Add registers fn behind every listener already present and returns its
// cancel function, which is idempotent.
func (l *Listeners[T]) Add(fn func(T)) (cancel func()) {
	e := &fn
	l.mu.Lock()
	next := append(l.load(), e)
	l.snap.Store(&next)
	l.mu.Unlock()
	return func() {
		l.mu.Lock()
		defer l.mu.Unlock()
		cur := l.load()
		i := slices.Index(cur, e)
		if i < 0 {
			return
		}
		if len(cur) == 1 {
			l.snap.Store(nil)
			return
		}
		next := slices.Delete(slices.Clone(cur), i, i+1)
		l.snap.Store(&next)
	}
}

// load returns the current snapshot, clipped so that an append copies it.
func (l *Listeners[T]) load() []*func(T) {
	if s := l.snap.Load(); s != nil {
		return slices.Clip(*s)
	}
	return nil
}

// Empty reports whether no listener is registered: one atomic load, so an
// emitter can skip building what nobody reads.
func (l *Listeners[T]) Empty() bool { return l.snap.Load() == nil }

// Emit calls every listener with v, in registration order.
func (l *Listeners[T]) Emit(v T) {
	if s := l.snap.Load(); s != nil {
		for _, fn := range *s {
			(*fn)(v)
		}
	}
}
