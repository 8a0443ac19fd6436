package brisa

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"
)

// fakeWorld is an in-memory world: no sockets, no simulator. It logs every
// call, runs the timeline instantly, and serves canned metrics and snapshots.
type fakeWorld struct {
	log     []string
	pending []timedCall
	col     *collector

	bringUpErr, metricsErr, snapshotErr error
	cancelAt                            string // cancel the run when this call is logged
	cancel                              context.CancelFunc

	ids      []NodeID
	brackets []map[NodeID]Metrics // served by successive metrics calls
	snap     worldSnapshot
	elapsed  time.Duration
}

func (w *fakeWorld) note(format string, args ...any) {
	call := fmt.Sprintf(format, args...)
	w.log = append(w.log, call)
	if call == w.cancelAt {
		w.cancel()
	}
}

func (w *fakeWorld) bringUp(_ context.Context, col *collector) error {
	w.note("bringUp")
	w.col = col
	return w.bringUpErr
}
func (w *fakeWorld) protect(idx int) NodeID          { w.note("protect %d", idx); return w.ids[idx] }
func (w *fakeWorld) markStart(context.Context) error { w.note("markStart"); return nil }
func (w *fakeWorld) publishBlob(wi, i int) error     { w.note("publishBlob %d/%d", wi, i); return nil }
func (w *fakeWorld) Join()                           { w.note("Join") }
func (w *fakeWorld) Fail()                           { w.note("Fail") }
func (w *fakeWorld) Size() int                       { return len(w.ids) }
func (w *fakeWorld) Stop()                           {}
func (w *fakeWorld) close()                          { w.note("close") }

func (w *fakeWorld) publish(wi, i int) error {
	w.note("publish %d/%d", wi, i)
	w.col.published(wi, uint32(i+1), time.Time{})
	return nil
}

func (w *fakeWorld) At(offset time.Duration, fn func()) {
	w.note("At")
	w.pending = append(w.pending, timedCall{at: offset, fn: fn})
}

func (w *fakeWorld) run(ctx context.Context, end, drain time.Duration) (time.Duration, error) {
	w.note("run %v+%v", end, drain)
	for len(w.pending) > 0 {
		sort.SliceStable(w.pending, func(i, j int) bool { return w.pending[i].at < w.pending[j].at })
		next := w.pending[0]
		w.pending = w.pending[1:]
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		next.fn()
	}
	return w.elapsed, ctx.Err()
}

func (w *fakeWorld) metrics(context.Context) (map[NodeID]Metrics, error) {
	w.note("metrics")
	if w.metricsErr != nil {
		return nil, w.metricsErr
	}
	m := w.brackets[0]
	w.brackets = w.brackets[1:]
	return m, nil
}

func (w *fakeWorld) snapshot(context.Context) (*worldSnapshot, error) {
	w.note("snapshot")
	return &w.snap, w.snapshotErr
}

// fakeScenario is one 3-message stream sourced at member 0 over a 60s churn
// window with one 50% round per 30s; the world has two members at bring-up
// and a third born inside the window.
func fakeScenario() Scenario {
	return Scenario{
		Name:      "fake world",
		Topology:  Topology{Nodes: 2, Peer: Config{Mode: ModeTree}},
		Workloads: []Workload{{Stream: 1, Messages: 3, Payload: 8, Interval: time.Second}},
		Churn:     &Churn{Script: "from 0s to 60s const churn 50% each 30s"},
		Probes:    []Probe{ProbeTraffic, ProbeRepairs},
		Drain:     5 * time.Second,
	}.withDefaults()
}

func newFakeWorld() *fakeWorld {
	const mib = 1 << 20
	member := func(id NodeID, tr *memberTraffic) memberSnapshot {
		return memberSnapshot{id: id, streams: []peerSnapshot{{delivered: 3}}, traffic: tr}
	}
	return &fakeWorld{
		ids:     []NodeID{1, 2},
		elapsed: 10 * time.Second,
		brackets: []map[NodeID]Metrics{
			{1: {ParentsLost: 1}, 2: {ParentsLost: 2, Orphans: 1, SoftRepairs: 1}},
			{
				1: {ParentsLost: 1},
				2: {ParentsLost: 5, Orphans: 2, SoftRepairs: 3, HardRepairs: 1},
				3: {ParentsLost: 2, Orphans: 1, SoftRepairs: 1, HardRepairs: 1}, // born mid-window: counts from zero
			},
		},
		snap: worldSnapshot{nodes: 2, survivors: []memberSnapshot{
			member(1, &memberTraffic{stab: 100 * mib, up: 100 * mib, down: 100 * mib}), // the source: excluded
			member(2, &memberTraffic{stab: 2 * mib, up: mib, down: mib / 2}),
			member(3, &memberTraffic{up: mib / 2, down: mib / 4}), // born mid-run: no stabilization bytes
		}},
	}
}

func TestDriverCallOrderAndFolds(t *testing.T) {
	w := newFakeWorld()
	rep, err := runScenario(context.Background(), w, fakeScenario())
	if err != nil {
		t.Fatal(err)
	}

	// Phases, in order: bring-up, source resolution, baseline, scheduling,
	// the run (publishes and the churn bracket fire inside it), snapshot.
	phases := slices.Compact(slices.Clone(w.log))
	want := []string{
		"bringUp", "protect 0", "markStart", "At", "run 1m0s+5s",
		// t=0: first publish, then the bracket opens and the script is
		// replayed (two rounds land on the timeline), first round fires.
		"publish 0/0", "metrics", "At", "Fail", "Join",
		"publish 0/1", "publish 0/2",
		"Fail", "Join", // t=30s
		"metrics", // t=60s: the bracket closes
		"snapshot", "close",
	}
	if !slices.Equal(phases, want) {
		t.Errorf("call order:\n got %q\nwant %q", phases, want)
	}

	if rep.Name != "fake world" || rep.Nodes != 2 || rep.Alive != 3 || rep.Elapsed != 10*time.Second {
		t.Errorf("header off: %+v", rep)
	}
	if s := rep.Stream(1); s == nil || s.Source != 1 || s.Reliability != 1 {
		t.Errorf("stream report off: %+v", s)
	}

	// Traffic: members 2 and 3 over 10 s, the source excluded.
	tr := rep.Traffic
	if tr == nil || tr.StabMB != 1 || tr.DissMB != 0.75 || tr.Elapsed != 10*time.Second {
		t.Fatalf("traffic averages off: %+v", tr)
	}
	if up := tr.UpRate; up.Len() != 2 || up.Max() != 102.4 || up.Min() != 51.2 {
		t.Errorf("up rates = %v KB/s, want 102.4 and 51.2", up.Summarize())
	}
	if down := tr.DownRate; down.Len() != 2 || down.Max() != 51.2 || down.Min() != 25.6 {
		t.Errorf("down rates = %v KB/s, want 51.2 and 25.6", down.Summarize())
	}

	// Churn over the 1-minute window: member 2's deltas plus member 3 from
	// zero — 3+2 parents lost, 1+1 orphans, 2+1 soft and 1+1 hard repairs.
	cr := rep.Churn
	if cr == nil || cr.Window != time.Minute || cr.ParentsLostPerMin != 5 || cr.OrphansPerMin != 2 ||
		cr.SoftPct != 60 || cr.HardPct != 40 {
		t.Errorf("churn fold off: %+v", cr)
	}
}

func TestDriverAborts(t *testing.T) {
	boom := errors.New("boom")
	cases := []struct {
		name    string
		arm     func(*fakeWorld)
		want    error
		lastLog string // the last call before close, scheduling aside
	}{
		{"spawn error", func(w *fakeWorld) { w.bringUpErr = boom }, boom, "bringUp"},
		{"metrics error", func(w *fakeWorld) { w.metricsErr = boom }, boom, "metrics"},
		{"flush error", func(w *fakeWorld) { w.snapshotErr = boom }, boom, "snapshot"},
		{"cancelled context", func(w *fakeWorld) { w.cancelAt = "publish 0/1" }, context.Canceled, "publish 0/1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := newFakeWorld()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			w.cancel = cancel
			tc.arm(w)
			rep, err := runScenario(ctx, w, fakeScenario())
			if rep != nil || !errors.Is(err, tc.want) {
				t.Fatalf("got report %v, error %v; want no report and %v", rep, err, tc.want)
			}
			if !strings.Contains(err.Error(), `"fake world"`) {
				t.Errorf("error %q does not name the scenario", err)
			}
			calls := slices.DeleteFunc(w.log, func(call string) bool { return call == "At" })
			if n := len(calls); calls[n-1] != "close" || calls[n-2] != tc.lastLog {
				t.Errorf("run ended with %q, want it to stop at %q and close", calls[max(0, n-3):], tc.lastLog)
			}
		})
	}
}
