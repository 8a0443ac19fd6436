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
	f      *feed[Message]
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
	// 16 lets the pump run ahead of a consumer that reads in bursts.
	f := newFeed(p, 16, opts, func(push func(Message)) (cancel func()) {
		return p.sys.Deliveries().Add(func(d core.Delivery) {
			if d.Stream == stream {
				push(Message{Stream: stream, Seq: d.Seq, Payload: d.Payload})
			}
		})
	})
	return &Subscription{stream: stream, f: f}
}

// C returns the delivery channel. It is closed after Cancel.
func (s *Subscription) C() <-chan Message { return s.f.out }

// Stream returns the stream this subscription follows.
func (s *Subscription) Stream() StreamID { return s.stream }

// Cancel stops delivery, unregisters the subscription, and closes C. It is
// idempotent and safe to call from any goroutine. A deliverer blocked by a
// Block-policy bound is released.
func (s *Subscription) Cancel() { s.f.cancel() }

// Dropped returns how many deliveries a DropOldest bound discarded.
func (s *Subscription) Dropped() uint64 {
	s.f.mu.Lock()
	defer s.f.mu.Unlock()
	return s.f.dropped
}

// feed is the queue and pump behind Subscription and BlobSubscription.
type feed[T any] struct {
	out chan T

	mu      sync.Mutex
	queue   []T
	limit   int
	policy  OverflowPolicy
	dropped uint64
	space   *sync.Cond // non-nil for Block policy: queue below limit

	wake  chan struct{} // 1-buffered doorbell: queue went non-empty
	done  chan struct{}
	once  sync.Once
	unsub func()
}

// newFeed starts a feed with an out buffer of buf items, bounded by opts.
// attach registers the protocol-side listener that calls push and returns
// its cancel; the peer's closers cancel the feed with its runtime.
func newFeed[T any](p *Peer, buf int, opts SubOptions, attach func(push func(T)) (cancel func())) *feed[T] {
	f := &feed[T]{
		out:    make(chan T, buf),
		limit:  opts.Limit,
		policy: opts.OnFull,
		wake:   make(chan struct{}, 1),
		done:   make(chan struct{}),
	}
	if f.limit > 0 && f.policy == Block {
		f.space = sync.NewCond(&f.mu)
	}
	detach := attach(f.push)
	untrack := p.closers.Add(func(struct{}) { f.cancel() })
	f.unsub = func() {
		detach()
		untrack()
	}
	go f.pump()
	return f
}

func (f *feed[T]) cancel() {
	f.once.Do(func() {
		f.unsub()
		close(f.done)
		if f.space != nil {
			f.mu.Lock()
			f.space.Broadcast()
			f.mu.Unlock()
		}
	})
}

// push appends an item; called from the protocol side. It never blocks
// unless the feed is bounded with the Block policy.
func (f *feed[T]) push(v T) {
	f.mu.Lock()
	for {
		select {
		case <-f.done:
			f.mu.Unlock()
			return
		default:
		}
		if f.limit <= 0 || len(f.queue) < f.limit {
			break
		}
		if f.policy == DropOldest {
			f.queue = f.queue[1:]
			f.dropped++
			break
		}
		f.space.Wait() // Block: woken by the pump or by cancel
	}
	f.queue = append(f.queue, v)
	f.mu.Unlock()
	select {
	case f.wake <- struct{}{}:
	default:
	}
}

// pump moves queued items to the out channel until cancelled.
func (f *feed[T]) pump() {
	defer close(f.out)
	for {
		f.mu.Lock()
		var v T
		ok := len(f.queue) > 0
		if ok {
			v = f.queue[0]
			f.queue = f.queue[1:]
			if len(f.queue) == 0 {
				f.queue = nil // release the drained backing array
			}
			if f.space != nil {
				f.space.Signal()
			}
		}
		f.mu.Unlock()
		if !ok {
			select {
			case <-f.wake:
				continue
			case <-f.done:
				return
			}
		}
		select {
		case f.out <- v:
		case <-f.done:
			return
		}
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
	f      *feed[Blob]
}

// SubscribeBlobs registers a subscription for every blob the peer completes
// on the stream — local PublishBlob calls included. Multiple subscriptions
// are independent; each receives every blob once. Safe to call from any
// goroutine on either runtime.
func (p *Peer) SubscribeBlobs(stream StreamID) *BlobSubscription {
	f := newFeed(p, 1, SubOptions{}, func(push func(Blob)) (cancel func()) {
		if p.brisa == nil { // a baseline peer completes no blobs
			return func() {}
		}
		return p.brisa.Blobs().Add(func(d core.BlobDelivery) {
			if d.Stream == stream {
				push(Blob{Stream: stream, ID: d.ID, Data: d.Data})
			}
		})
	})
	return &BlobSubscription{stream: stream, f: f}
}

// C returns the delivery channel. It is closed after Cancel.
func (s *BlobSubscription) C() <-chan Blob { return s.f.out }

// Stream returns the stream this subscription follows.
func (s *BlobSubscription) Stream() StreamID { return s.stream }

// Cancel stops delivery, unregisters the subscription, and closes C. It is
// idempotent and safe to call from any goroutine.
func (s *BlobSubscription) Cancel() { s.f.cancel() }
