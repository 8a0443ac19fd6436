package brisa

import (
	"sync"

	"repro/internal/core"
)

// Message is one delivered payload of a stream, as seen by a Subscription.
type Message struct {
	// Stream names the dissemination stream the payload belongs to.
	Stream StreamID
	// Seq is the source-assigned sequence number (starting at 1).
	Seq uint32
	// Payload is the message body.
	Payload []byte
}

// OverflowPolicy selects what a bounded subscription does when its queue is
// full (see SubOptions).
type OverflowPolicy int

const (
	// DropOldest discards the oldest queued delivery to admit the new one;
	// Dropped counts the losses. The default policy: a slow consumer lags
	// but never stalls the protocol.
	DropOldest OverflowPolicy = iota
	// Block makes the delivering side wait until the consumer drains. This
	// is real back-pressure: on a live node it stalls the node's actor (the
	// peer stops processing protocol messages), and on the simulator it
	// pauses virtual time. Use it only when the consumer is guaranteed to
	// keep reading.
	Block
)

// SubOptions bounds a subscription's delivery queue.
type SubOptions struct {
	// Limit caps the queued, not-yet-consumed deliveries. 0 means
	// unbounded (the Subscribe default).
	Limit int
	// OnFull picks the policy when Limit is reached.
	OnFull OverflowPolicy
}

// Subscription delivers one stream's messages over a channel. It works
// identically on both runtimes: the protocol side enqueues deliveries
// (without blocking, unless a Block-policy bound says otherwise) and a pump
// goroutine feeds them to C in delivery order.
//
// Cancel when done; C is closed afterwards. Closing the live Node that owns
// the peer cancels its subscriptions too.
type Subscription struct {
	stream StreamID
	out    chan Message

	mu      sync.Mutex
	queue   []Message
	limit   int
	policy  OverflowPolicy
	dropped uint64
	space   *sync.Cond // non-nil for Block policy: queue below limit

	wake  chan struct{} // 1-buffered doorbell: queue went non-empty
	done  chan struct{}
	once  sync.Once
	unsub func()
}

// Subscribe registers a subscription for every future delivery of the
// stream, local publishes included. Multiple subscriptions per stream are
// independent; each receives every message once, in delivery order. Safe to
// call from any goroutine on either runtime. The queue is unbounded; use
// SubscribeOpts to bound it.
func (p *Peer) Subscribe(stream StreamID) *Subscription {
	return p.SubscribeOpts(stream, SubOptions{})
}

// SubscribeOpts is Subscribe with a bounded delivery queue, for consumers
// that may fall behind heavy traffic: at most Limit deliveries wait
// unconsumed, and OnFull picks whether overflow drops the oldest (counted
// by Dropped) or blocks the deliverer.
func (p *Peer) SubscribeOpts(stream StreamID, opts SubOptions) *Subscription {
	s := &Subscription{
		stream: stream,
		out:    make(chan Message, 16),
		limit:  opts.Limit,
		policy: opts.OnFull,
		wake:   make(chan struct{}, 1),
		done:   make(chan struct{}),
	}
	if s.limit > 0 && s.policy == Block {
		s.space = sync.NewCond(&s.mu)
	}
	cancelCore := p.sys.SubscribeFn(stream, func(seq uint32, payload []byte) {
		s.push(Message{Stream: stream, Seq: seq, Payload: payload})
	})
	p.subs.add(s)
	s.unsub = func() {
		cancelCore()
		p.subs.remove(s)
	}
	go s.pump()
	return s
}

// C returns the delivery channel. It is closed after Cancel.
func (s *Subscription) C() <-chan Message { return s.out }

// Stream returns the stream this subscription follows.
func (s *Subscription) Stream() StreamID { return s.stream }

// Cancel stops delivery, unregisters the subscription, and closes C. It is
// idempotent and safe to call from any goroutine. A deliverer blocked by a
// Block-policy bound is released.
func (s *Subscription) Cancel() {
	s.once.Do(func() {
		s.unsub()
		close(s.done)
		if s.space != nil {
			s.mu.Lock()
			s.space.Broadcast()
			s.mu.Unlock()
		}
	})
}

// Dropped returns how many deliveries a DropOldest bound discarded.
func (s *Subscription) Dropped() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// push appends a delivery; called from the protocol side. It never blocks
// unless the subscription is bounded with the Block policy.
func (s *Subscription) push(m Message) {
	s.mu.Lock()
	for {
		select {
		case <-s.done:
			s.mu.Unlock()
			return
		default:
		}
		if s.limit <= 0 || len(s.queue) < s.limit {
			break
		}
		if s.policy == DropOldest {
			s.queue = s.queue[1:]
			s.dropped++
			break
		}
		s.space.Wait() // Block: woken by the pump or by Cancel
	}
	s.queue = append(s.queue, m)
	s.mu.Unlock()
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// pump moves queued deliveries to the out channel until cancelled.
func (s *Subscription) pump() {
	defer close(s.out)
	for {
		s.mu.Lock()
		var m Message
		ok := len(s.queue) > 0
		if ok {
			m = s.queue[0]
			s.queue = s.queue[1:]
			if len(s.queue) == 0 {
				s.queue = nil // release the drained backing array
			}
			if s.space != nil {
				s.space.Signal()
			}
		}
		s.mu.Unlock()
		if !ok {
			select {
			case <-s.wake:
				continue
			case <-s.done:
				return
			}
		}
		select {
		case s.out <- m:
		case <-s.done:
			return
		}
	}
}

// subscriptionSet tracks a peer's live subscriptions (message and blob) so
// the owning runtime can cancel them all on shutdown.
type subscriptionSet struct {
	mu   sync.Mutex
	subs map[canceler]struct{}
}

// canceler is anything cancelAll can shut down.
type canceler interface{ Cancel() }

func (set *subscriptionSet) add(s canceler) {
	set.mu.Lock()
	if set.subs == nil {
		set.subs = make(map[canceler]struct{})
	}
	set.subs[s] = struct{}{}
	set.mu.Unlock()
}

func (set *subscriptionSet) remove(s canceler) {
	set.mu.Lock()
	delete(set.subs, s)
	set.mu.Unlock()
}

// cancelAll cancels every live subscription of the set.
func (set *subscriptionSet) cancelAll() {
	set.mu.Lock()
	subs := make([]canceler, 0, len(set.subs))
	for s := range set.subs {
		subs = append(subs, s)
	}
	set.mu.Unlock()
	for _, s := range subs {
		s.Cancel()
	}
}

// ---------------------------------------------------------------- blobs

// Blob is one reassembled large payload, as seen by a BlobSubscription.
type Blob struct {
	// Stream names the dissemination stream the blob belongs to.
	Stream StreamID
	// ID is the source-assigned per-stream blob id (starting at 1).
	ID uint32
	// Data is the reconstructed payload, byte-identical to what the source
	// published. Consumers must not modify it.
	Data []byte
}

// BlobSubscription delivers one stream's reassembled blobs over a channel,
// in completion order. The queue is unbounded: blobs are few and large, so
// back-pressure belongs to the consumer. Cancel when done; C is closed
// afterwards.
type BlobSubscription struct {
	stream StreamID
	out    chan Blob

	mu    sync.Mutex
	queue []Blob

	wake  chan struct{}
	done  chan struct{}
	once  sync.Once
	unsub func()
}

// SubscribeBlobs registers a subscription for every blob the peer completes
// on the stream — local PublishBlob calls included. Multiple subscriptions
// are independent; each receives every blob once. Safe to call from any
// goroutine on either runtime.
func (p *Peer) SubscribeBlobs(stream StreamID) *BlobSubscription {
	s := &BlobSubscription{
		stream: stream,
		out:    make(chan Blob, 1),
		wake:   make(chan struct{}, 1),
		done:   make(chan struct{}),
	}
	cancelCore := func() {}
	if p.brisa != nil { // a baseline peer completes no blobs
		cancelCore = p.brisa.SubscribeBlobFn(stream, func(d core.BlobDelivery) {
			s.push(Blob{Stream: stream, ID: d.ID, Data: d.Data})
		})
	}
	p.subs.add(s)
	s.unsub = func() {
		cancelCore()
		p.subs.remove(s)
	}
	go s.pump()
	return s
}

// C returns the delivery channel. It is closed after Cancel.
func (s *BlobSubscription) C() <-chan Blob { return s.out }

// Stream returns the stream this subscription follows.
func (s *BlobSubscription) Stream() StreamID { return s.stream }

// Cancel stops delivery, unregisters the subscription, and closes C. It is
// idempotent and safe to call from any goroutine.
func (s *BlobSubscription) Cancel() {
	s.once.Do(func() {
		s.unsub()
		close(s.done)
	})
}

// push appends a completed blob; called from the protocol side, never
// blocking.
func (s *BlobSubscription) push(b Blob) {
	s.mu.Lock()
	select {
	case <-s.done:
		s.mu.Unlock()
		return
	default:
	}
	s.queue = append(s.queue, b)
	s.mu.Unlock()
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// pump moves queued blobs to the out channel until cancelled.
func (s *BlobSubscription) pump() {
	defer close(s.out)
	for {
		s.mu.Lock()
		var b Blob
		ok := len(s.queue) > 0
		if ok {
			b = s.queue[0]
			s.queue = s.queue[1:]
			if len(s.queue) == 0 {
				s.queue = nil
			}
		}
		s.mu.Unlock()
		if !ok {
			select {
			case <-s.wake:
				continue
			case <-s.done:
				return
			}
		}
		select {
		case s.out <- b:
		case <-s.done:
			return
		}
	}
}
