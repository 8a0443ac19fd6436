package brisa

import (
	"bufio"
	"context"
	"encoding/json"
	"net"
	"strings"
	"testing"
	"time"
)

// fakeAgent serves one agent control connection on loopback and answers
// each request line with what answer returns for it (nothing for nil).
func fakeAgent(t *testing.T, answer func(req distCtrlReq) []byte) *agentConn {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		in := bufio.NewScanner(conn)
		for in.Scan() {
			var req distCtrlReq
			if json.Unmarshal(in.Bytes(), &req) != nil {
				return
			}
			if line := answer(req); line != nil {
				conn.Write(append(line, '\n'))
			}
		}
	}()
	a, err := dialAgent(ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.conn.Close() })
	return a
}

// relayed wraps a worker's answer line the way brisa-agent relays it.
func relayed(req distCtrlReq, workerLine string) []byte {
	line, _ := json.Marshal(distCtrlResp{ID: req.ID, OK: true, Worker: req.Worker, Resp: json.RawMessage(workerLine)})
	return line
}

// distTestScenario has two workloads and one blob workload, all sourced at
// node 1, with every probe the dist fold serves.
func distTestScenario() Scenario {
	return Scenario{
		Topology:      Topology{Nodes: 2, Peer: Config{Mode: ModeTree}},
		Workloads:     []Workload{{Stream: 1, Messages: 4}, {Stream: 2, Messages: 4}},
		BlobWorkloads: []BlobWorkload{{Stream: 3, Size: 1024}},
		Probes:        []Probe{ProbeLatency, ProbeDuplicates, ProbeRepairs, ProbeTraffic},
	}.withDefaults()
}

// testDistNet is a dist world for sc with no agents behind it: members are
// added by the caller, and every workload's source is node 1.
func testDistNet(sc Scenario) *distNet {
	dn := &distNet{col: newCollector(sc)}
	dn.overlay = newOverlay[*distMember](sc, dn, distStabilize)
	dn.ctx = context.Background()
	for wi := range sc.Workloads {
		dn.col.setSource(wi, 1)
	}
	for wi := range sc.BlobWorkloads {
		dn.col.setBlobSource(wi, 1)
	}
	return dn
}

func TestAgentGarbledLineFailsPendingCall(t *testing.T) {
	a := fakeAgent(t, func(distCtrlReq) []byte { return []byte("{garbage") })
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := a.call(ctx, distCtrlReq{Op: "ping"})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "undecodable answer") {
			t.Fatalf("call after a garbled answer: err = %v, want the decode error", err)
		}
	case <-time.After(time.Second):
		t.Fatal("call still pending 1s after its answer came back garbled")
	}
	if _, err := a.call(ctx, distCtrlReq{Op: "ping"}); err == nil {
		t.Error("a later call on the broken connection succeeded")
	}
}

func TestDistBarrierNamesTheFailingMember(t *testing.T) {
	state := `"state":{"streams":[{},{}],"blobs":[{}]}`
	cases := []struct {
		name, answer, want string
	}{
		{"malformed answer", `{"ok":true,"page":{"samples":"x"}}`, "bad worker response"},
		{"out-of-range index", `{"ok":true,"page":{"blobs":[{"wi":1,"id":1}],` + state + `}}`, "blob workload 1"},
		{"negative latency", `{"ok":true,"page":{"hard":[-5],` + state + `}}`, "negative hard-repair delay"},
		{"no state", `{"ok":true,"page":{}}`, "no state"},
		{"no answer", "", "deadline exceeded"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dn := testDistNet(distTestScenario())
			a := fakeAgent(t, func(req distCtrlReq) []byte {
				if tc.answer == "" {
					return nil
				}
				return relayed(req, tc.answer)
			})
			m := dn.member(a, 1, "", 2)
			dn.slots = []*slot[*distMember]{{m: m, alive: true}}
			// The run's deadline stands in for distFlushTimeout, which is
			// too long for a test; the barrier takes whichever is sooner.
			ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
			defer cancel()
			err := dn.flushBarrier(ctx)
			if err == nil || !strings.Contains(err.Error(), "flush node "+m.id.String()) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("barrier error = %v, want one naming node %v and %q", err, m.id, tc.want)
			}
		})
	}
}

// A worker wrapped around a real node pages a 2500-delivery cut out in
// bounded answers that the driver's fold turns back into 2500 delays.
func TestDistWorkerPagesFlush(t *testing.T) {
	const msgs = 2500
	sc := Scenario{
		Topology:  Topology{Nodes: 2, Peer: Config{Mode: ModeTree}},
		Workloads: []Workload{{Stream: 1, Messages: msgs}},
		Probes:    []Probe{ProbeLatency},
	}.withDefaults()
	var nodes [2]*Node
	for i := range nodes {
		n, err := Listen("127.0.0.1:0", Config{Mode: ModeTree})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		nodes[i] = n
	}
	src, dst := nodes[0], nodes[1]
	w := newDistWorker(DistWorkerSpec{Workloads: sc.Workloads, Probes: sc.Probes}, dst)
	if err := dst.Join(src.Addr()); err != nil {
		t.Fatal(err)
	}

	dn := testDistNet(sc)
	dn.col.setSource(0, src.ID())
	m := dn.member(nil, 0, dst.Addr(), dst.ID())
	for i := 0; i < msgs; i++ {
		at := time.Now()
		dn.col.published(0, src.Publish(1, make([]byte, 16)), at)
	}
	deadline := time.Now().Add(30 * time.Second)
	for dst.DeliveredCount(1) < msgs {
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d of %d", dst.DeliveredCount(1), msgs)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// flush answers one page at a time, through JSON as the driver reads it.
	flush := func() *distPage {
		t.Helper()
		resp, _ := w.handle(distWorkerCmd{Op: "flush"})
		line, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		if len(line) > 256<<10 {
			t.Errorf("flush answer is %d bytes", len(line))
		}
		var got distWorkerResp
		if err := json.Unmarshal(line, &got); err != nil || got.Page == nil {
			t.Fatalf("flush answer %.200s: %v", line, err)
		}
		return got.Page
	}
	total, pages := 0, 0
	for more := true; more; pages++ {
		p := flush()
		if n := p.samples(); n > distDeliveryBatch {
			t.Errorf("page %d holds %d samples, max %d", pages, n, distDeliveryBatch)
		}
		if (pages == 0) != (p.State != nil) {
			t.Errorf("page %d: state %v, want it on the first page only", pages, p.State)
		}
		total += p.samples()
		if err := m.fold(p); err != nil {
			t.Fatalf("fold page %d: %v", pages, err)
		}
		more = p.More
	}
	delivered := dst.DeliveredCount(1)
	if total != int(delivered) || pages != 2 {
		t.Errorf("%d pages hold %d samples, want 2 holding DeliveredCount %d", pages, total, delivered)
	}
	if p := flush(); p.samples() != 0 || p.More {
		t.Errorf("second barrier holds %d samples (more %v), want none", p.samples(), p.More)
	}
	if resp, _ := w.handle(distWorkerCmd{Op: "count"}); resp.Count != delivered {
		t.Errorf("count = %d, DeliveredCount = %d", resp.Count, delivered)
	}
	sr := dn.col.streamReport(0, []memberSnapshot{m.snapshot()})
	if sr.Delays.Len() != total || sr.Reliability != 1 {
		t.Errorf("folded %d delays at reliability %v, want %d at 1", sr.Delays.Len(), sr.Reliability, total)
	}
}

// FuzzDistAnswer feeds arbitrary flush answers through decode, check and
// fold for a two-workload, one-blob scenario: nothing may panic, a refused
// page must leave the member untouched, and an accepted one adds exactly
// its published samples.
func FuzzDistAnswer(f *testing.F) {
	f.Fuzz(func(t *testing.T, answer []byte) {
		sc := distTestScenario()
		dn := testDistNet(sc)
		for wi := range sc.Workloads {
			for seq := uint32(1); seq <= 4; seq++ {
				dn.col.published(wi, seq, time.Unix(0, 0))
			}
		}
		m := dn.member(nil, 0, "", 2)
		var resp distWorkerResp
		if json.Unmarshal(answer, &resp) != nil {
			return
		}
		err := m.fold(resp.Page)
		var measured, dups uint64
		for _, acc := range m.accs {
			measured += acc.n
			dups += acc.dups
		}
		if err != nil {
			if measured != 0 || dups != 0 || m.hard.Len() != 0 || len(m.baccs[0].recs) != 0 || m.state != nil {
				t.Fatalf("refused page (%v) was folded in part", err)
			}
			return
		}
		var want uint64
		for _, samples := range resp.Page.Samples {
			for _, s := range samples {
				if s.Seq >= 1 && s.Seq <= 4 {
					want++
				}
			}
		}
		if measured != want {
			t.Fatalf("folded %d measured deliveries from a page holding %d", measured, want)
		}
		if m.state != nil {
			survivors := []memberSnapshot{m.snapshot()}
			for wi := range sc.Workloads {
				dn.col.streamReport(wi, survivors)
			}
			dn.col.blobStreamReport(0, survivors)
		}
	})
}
