package node

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/ids"
	"repro/internal/wire"
)

// recorder logs which callbacks fired.
type recorder struct {
	BaseProto
	name string
	log  *[]string
}

func (r *recorder) Start(Env) { *r.log = append(*r.log, r.name+":start") }
func (r *recorder) Stop()     { *r.log = append(*r.log, r.name+":stop") }
func (r *recorder) ConnUp(p ids.NodeID) {
	*r.log = append(*r.log, r.name+":up")
}
func (r *recorder) ConnDown(p ids.NodeID, err error) {
	*r.log = append(*r.log, r.name+":down")
}
func (r *recorder) Receive(from ids.NodeID, m wire.Message) {
	*r.log = append(*r.log, r.name+":"+m.Kind().String())
}

// kindOnly is a message of an arbitrary kind; the Mux reads nothing else.
type kindOnly wire.Kind

func (k kindOnly) Kind() wire.Kind        { return wire.Kind(k) }
func (kindOnly) AppendTo(b []byte) []byte { return b }
func (kindOnly) WireSize() int            { return 1 }

func TestMuxRoutesByKind(t *testing.T) {
	var log []string
	mux := NewMux()
	a := &recorder{name: "a", log: &log}
	b := &recorder{name: "b", log: &log}
	mux.Register(a, wire.KindJoin)
	mux.Register(b, wire.KindData)

	mux.Receive(1, wire.Join{})
	mux.Receive(1, wire.Data{})
	mux.Receive(1, wire.Rumor{})      // unowned kind past the last owned one: dropped silently
	mux.Receive(1, wire.Disconnect{}) // unowned kind between owned ones
	mux.Receive(1, kindOnly(255))     // the highest value a kind can take

	want := []string{"a:Join", "b:Data"}
	if len(log) != len(want) {
		t.Fatalf("log = %v", log)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Errorf("log[%d] = %q, want %q", i, log[i], want[i])
		}
	}
}

func TestMuxFanOutOrder(t *testing.T) {
	var log []string
	mux := NewMux()
	mux.Register(&recorder{name: "lower", log: &log}, wire.KindJoin)
	mux.Register(&recorder{name: "upper", log: &log}, wire.KindData)

	mux.Start(nil)
	mux.ConnUp(1)
	mux.ConnDown(1, errors.New("x"))
	mux.Stop()

	want := []string{
		"lower:start", "upper:start",
		"lower:up", "upper:up",
		"lower:down", "upper:down",
		"upper:stop", "lower:stop", // Stop runs in reverse order
	}
	if len(log) != len(want) {
		t.Fatalf("log = %v", log)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Errorf("log[%d] = %q, want %q", i, log[i], want[i])
		}
	}
}

func TestMuxPanicsOnDuplicateKind(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate kind registration")
		}
	}()
	var log []string
	mux := NewMux()
	mux.Register(&recorder{name: "a", log: &log}, wire.KindJoin)
	mux.Register(&recorder{name: "b", log: &log}, wire.KindJoin)
}

func TestListenersOrderAndCancel(t *testing.T) {
	var l Listeners[int]
	if !l.Empty() {
		t.Fatal("a zero registry is not empty")
	}
	l.Emit(0) // no listener: nothing to call
	var log []string
	add := func(name string) func() {
		return l.Add(func(v int) { log = append(log, fmt.Sprint(name, v)) })
	}
	cancelA := add("a")
	var cancelB func()
	cancelB = l.Add(func(v int) {
		log = append(log, fmt.Sprint("b", v))
		cancelB() // from inside the fan-out
	})
	add("c")
	l.Emit(1)
	l.Emit(2)
	if want := []string{"a1", "b1", "c1", "a2", "c2"}; !slices.Equal(log, want) {
		t.Fatalf("fan-out %v, want %v", log, want)
	}
	cancelA()
	cancelA() // idempotent
	cancelB() // already cancelled from its own callback
	add("d")
	l.Emit(3)
	if want := []string{"a1", "b1", "c1", "a2", "c2", "c3", "d3"}; !slices.Equal(log, want) {
		t.Fatalf("after cancels: fan-out %v, want %v", log, want)
	}
}

func TestListenersEmptyAfterLastCancel(t *testing.T) {
	var l Listeners[int]
	cancel := l.Add(func(int) {})
	if l.Empty() {
		t.Fatal("a registry with a listener reads empty")
	}
	cancel()
	if !l.Empty() {
		t.Fatal("a registry whose listeners all cancelled is not empty")
	}
}

// TestListenersConcurrentAddCancel registers and cancels from several
// goroutines while another emits: the emitter sees only whole snapshots,
// and a listener that outlives the churn keeps firing. Run it under -race.
func TestListenersConcurrentAddCancel(t *testing.T) {
	var l Listeners[int]
	var kept atomic.Int64
	l.Add(func(int) { kept.Add(1) })
	stop := make(chan struct{})
	emitted := make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-stop:
				emitted <- n
				return
			default:
				l.Emit(n)
				n++
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				cancel := l.Add(func(int) {})
				cancel()
				cancel()
			}
		}()
	}
	wg.Wait()
	close(stop)
	n := <-emitted
	if got := kept.Load(); got != int64(n) {
		t.Fatalf("the surviving listener fired %d times for %d emits", got, n)
	}
}
