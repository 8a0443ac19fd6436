package brisa_test

// Subscription back-pressure and lifecycle tests. The lifecycle tests are
// deliberately racy — concurrent Cancel vs push vs Node.Close — and exist
// to run under -race.

import (
	"runtime"
	"sync"
	"testing"
	"time"

	brisa "repro"
)

// onePeerCluster builds a single-node cluster whose peer delivers local
// publishes — the smallest harness that exercises Subscription queues.
func onePeerCluster(t *testing.T) (*brisa.Cluster, *brisa.Peer) {
	t.Helper()
	c := newTestCluster(t, brisa.ClusterConfig{Nodes: 1, Peer: brisa.Config{Mode: brisa.ModeTree}})
	c.Net.RunFor(time.Millisecond) // run the Start events
	return c, c.Peers()[0]
}

func TestSubscribeOptsDropOldest(t *testing.T) {
	t.Parallel()
	_, peer := onePeerCluster(t)
	sub := peer.SubscribeOpts(1, brisa.SubOptions{Limit: 4}) // DropOldest default
	defer sub.Cancel()

	// Publish far more than the channel buffer plus the bound can hold
	// while nothing consumes.
	const msgs = 200
	for i := 0; i < msgs; i++ {
		peer.Publish(1, []byte{byte(i)})
	}

	// Drain what survived. Order must be preserved and the accounting
	// must balance: every message was either received or counted dropped.
	var got []uint32
	for {
		select {
		case m := <-sub.C():
			got = append(got, m.Seq)
			continue
		case <-time.After(200 * time.Millisecond):
		}
		break
	}
	dropped := sub.Dropped()
	if dropped == 0 {
		t.Fatalf("expected drops with limit 4 and %d unconsumed messages", msgs)
	}
	if uint64(len(got))+dropped != msgs {
		t.Errorf("received %d + dropped %d != published %d", len(got), dropped, msgs)
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("out of order after drops: %d then %d", got[i-1], got[i])
		}
	}
}

func TestSubscribeOptsBlockDeliversEverything(t *testing.T) {
	t.Parallel()
	_, peer := onePeerCluster(t)
	sub := peer.SubscribeOpts(1, brisa.SubOptions{Limit: 2, OnFull: brisa.Block})
	defer sub.Cancel()

	const msgs = 100
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < msgs; i++ {
			peer.Publish(1, []byte{byte(i)}) // blocks when the bound fills
		}
	}()

	// A consuming reader keeps the publisher moving; nothing is lost.
	for want := uint32(1); want <= msgs; want++ {
		select {
		case m := <-sub.C():
			if m.Seq != want {
				t.Fatalf("got seq %d, want %d", m.Seq, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out at seq %d", want)
		}
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("publisher still blocked after everything was consumed")
	}
	if d := sub.Dropped(); d != 0 {
		t.Errorf("Block policy dropped %d messages", d)
	}
}

func TestSubscribeOptsBlockReleasedByCancel(t *testing.T) {
	t.Parallel()
	_, peer := onePeerCluster(t)
	sub := peer.SubscribeOpts(1, brisa.SubOptions{Limit: 1, OnFull: brisa.Block})

	done := make(chan struct{})
	go func() {
		defer close(done)
		// 16 (channel) + 1 (pump in flight) + 1 (bound) fit; publishing
		// far past that must block with no consumer.
		for i := 0; i < 50; i++ {
			peer.Publish(1, []byte{byte(i)})
		}
	}()
	select {
	case <-done:
		t.Fatal("publisher never blocked despite Block policy and no consumer")
	case <-time.After(100 * time.Millisecond):
	}
	sub.Cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Cancel did not release the blocked publisher")
	}
}

// TestLiveCloseReleasesBlockedSubscriber pins the Close ordering: a
// Block-policy subscription whose consumer stalled holds the node's actor
// inside push, and Close must cancel subscriptions first or the runtime
// shutdown waits on the stuck actor forever.
func TestLiveCloseReleasesBlockedSubscriber(t *testing.T) {
	t.Parallel()
	node, err := brisa.Listen("127.0.0.1:0", brisa.Config{Mode: brisa.ModeTree})
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	node.SubscribeOpts(1, brisa.SubOptions{Limit: 1, OnFull: brisa.Block})
	go func() {
		for i := 0; i < 50; i++ { // far past channel buffer + bound: blocks the actor
			node.Publish(1, []byte("x"))
		}
	}()
	time.Sleep(100 * time.Millisecond) // let the actor wedge in push
	closed := make(chan struct{})
	go func() {
		node.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close deadlocked on a blocked subscriber")
	}
}

// TestSubscriptionLifecycleRace hammers Cancel vs push vs Node.Close from
// concurrent goroutines on a live node. It asserts termination; the -race
// CI job asserts memory safety.
func TestSubscriptionLifecycleRace(t *testing.T) {
	t.Parallel()
	node, err := brisa.Listen("127.0.0.1:0", brisa.Config{Mode: brisa.ModeTree})
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer node.Close()

	const subsN = 8
	subs := make([]*brisa.Subscription, subsN)
	for i := range subs {
		subs[i] = node.SubscribeOpts(1, brisa.SubOptions{Limit: 2}) // bounded: exercises the overflow path too
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Publisher: pushes into every subscription through the actor.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				node.Publish(1, []byte("x"))
			}
		}
	}()
	// Readers: drain until their channel closes.
	for _, s := range subs {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range s.C() {
			}
		}()
	}
	// Cancellers: each subscription cancelled twice, concurrently.
	for _, s := range subs {
		s := s
		for k := 0; k < 2; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s.Cancel()
			}()
		}
	}

	time.Sleep(50 * time.Millisecond)
	node.Close() // its cancellations race the explicit Cancels and the publisher
	close(stop)

	fin := make(chan struct{})
	go func() { wg.Wait(); close(fin) }()
	select {
	case <-fin:
	case <-time.After(10 * time.Second):
		t.Fatal("lifecycle goroutines did not terminate")
	}
}

// TestSubscribeRacesRunOnEveryMode subscribes and cancels from a goroutine
// of its own while the sharded simulator carries a stream through the same
// peer, on BRISA and on each baseline: registration is safe from any
// goroutine whichever system the peer runs. It asserts delivery; the -race
// CI job asserts memory safety.
func TestSubscribeRacesRunOnEveryMode(t *testing.T) {
	for _, mode := range []brisa.Mode{brisa.ModeTree, brisa.ModeSimpleTree, brisa.ModeSimpleGossip, brisa.ModeTAG} {
		t.Run(mode.String(), func(t *testing.T) {
			c := newTestCluster(t, brisa.ClusterConfig{Nodes: 32, Seed: 5, Workers: 2, Peer: brisa.Config{Mode: mode}})
			defer c.Close()
			c.Bootstrap()
			const msgs = 50
			publishStream(c, c.Peers()[0], 1, msgs, 100*time.Millisecond, 16)
			peer := c.Peers()[7]
			done := make(chan struct{})
			go func() {
				defer close(done)
				for i := 0; i < 200; i++ {
					sub := peer.Subscribe(1)
					runtime.Gosched()
					sub.Cancel()
				}
			}()
			c.Net.RunFor(msgs*100*time.Millisecond + 30*time.Second)
			<-done
			for _, p := range c.Peers() {
				if got := p.DeliveredCount(1); got != msgs {
					t.Errorf("peer %v delivered %d of %d", p.ID(), got, msgs)
				}
			}
		})
	}
}
