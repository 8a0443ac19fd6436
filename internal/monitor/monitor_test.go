package monitor

import (
	"bufio"
	"bytes"
	"context"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/ids"
)

// testMessages is one representative value per monitor kind, variable-length
// fields both empty and populated.
func testMessages() []Message {
	nodes := []ids.NodeID{0x010203040506, 0xa0b0c0d0e0f0, 1}
	return []Message{
		Hello{Agent: "10.0.0.2:7101", Index: 3, Node: nodes[0]},
		Hello{},
		Flush{Token: 42},
		Publish{WI: 1, Seq: 99, At: 1234567890},
		Deliveries{WI: 2, Samples: []SeqAt{{Seq: 1, At: 10}, {Seq: 2, At: -20}}},
		Deliveries{},
		Duplicates{WI: 1, Count: 7},
		Repairs{HardNanos: []int64{1, -2, 3}},
		Repairs{},
		Traffic{MsgsIn: 1, MsgsOut: 2, BytesIn: 3, BytesOut: 4},
		NodeMetrics{ParentsLost: 1, Orphans: 2, SoftRepairs: 3, HardRepairs: 4},
		BlobPublished{WI: 0, Blob: 1, Size: 1 << 20, Hash: 0xdeadbeef},
		BlobDone{WI: 1, Blob: 2, Hash: 0xfeed, Bytes: 512, LatNanos: 10_000},
		StreamSnap{WI: 1, Delivered: 40, Orphan: true, Parents: nodes,
			Depth: -1, DepthOK: false, ConstructNanos: 5_000, ConstructOK: true},
		StreamSnap{},
		BlobSnap{WI: 1, Published: 1, Delivered: 2, Dropped: 3, ChunksReceived: 4,
			ChunkDups: 5, ChunksPulled: 6, ChunksServed: 7, WantsSent: 8, ChunkBytesSent: 9},
	}
}

func TestCodecRoundTrip(t *testing.T) {
	for _, m := range testMessages() {
		frame := Marshal(m)
		if got := m.WireSize(); got != len(frame) {
			t.Errorf("%v: WireSize() = %d, encoded length = %d", m.Kind(), got, len(frame))
		}
		back, err := Unmarshal(frame)
		if err != nil {
			t.Errorf("%v: Unmarshal: %v", m.Kind(), err)
			continue
		}
		if !reflect.DeepEqual(normalize(m), normalize(back)) {
			t.Errorf("%v: round trip mismatch:\n got %+v\nwant %+v", m.Kind(), back, m)
		}
	}
}

// normalize maps empty and nil slices onto each other: the codec does not
// distinguish them.
func normalize(m Message) Message {
	switch v := m.(type) {
	case Deliveries:
		if len(v.Samples) == 0 {
			v.Samples = nil
		}
		return v
	case Repairs:
		if len(v.HardNanos) == 0 {
			v.HardNanos = nil
		}
		return v
	case StreamSnap:
		if len(v.Parents) == 0 {
			v.Parents = nil
		}
		return v
	}
	return m
}

func TestCodecRejectsHostileFrames(t *testing.T) {
	cases := map[string][]byte{
		"empty":               {},
		"unknown kind":        {0xee, 1, 2, 3},
		"truncated hello":     Marshal(Hello{Agent: "a"})[:3],
		"trailing bytes":      append(Marshal(Flush{Token: 1}), 0xff),
		"huge delivery count": {byte(KindDeliveries), 0, 1, 0xff, 0xff, 0xff, 0xff},
		"huge repair count":   {byte(KindRepairs), 0xff, 0xff, 0xff, 0xff},
		"oversized agent": append(append([]byte{byte(KindHello)},
			0x00, 0x00, 0x02, 0x00), make([]byte, maxAgent+1)...),
	}
	for name, frame := range cases {
		if m, err := Unmarshal(frame); err == nil {
			t.Errorf("%s: Unmarshal accepted % x as %+v", name, frame, m)
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	msgs := testMessages()
	for _, m := range msgs {
		if err := WriteFrame(&buf, m); err != nil {
			t.Fatalf("%v: WriteFrame: %v", m.Kind(), err)
		}
	}
	r := bufio.NewReader(&buf)
	for _, want := range msgs {
		got, err := ReadFrame(r)
		if err != nil {
			t.Fatalf("%v: ReadFrame: %v", want.Kind(), err)
		}
		if !reflect.DeepEqual(normalize(want), normalize(got)) {
			t.Fatalf("frame round trip mismatch:\n got %+v\nwant %+v", got, want)
		}
	}
	if _, err := ReadFrame(r); err == nil {
		t.Fatal("ReadFrame returned a frame past the end of the stream")
	}
}

func TestReadFrameRejectsOversizedLength(t *testing.T) {
	r := bufio.NewReader(bytes.NewReader([]byte{0xff, 0xff, 0xff, 0xff, 1}))
	if _, err := ReadFrame(r); err == nil {
		t.Fatal("ReadFrame accepted an oversized length prefix")
	}
	r = bufio.NewReader(bytes.NewReader([]byte{0, 0, 0, 0}))
	if _, err := ReadFrame(r); err == nil {
		t.Fatal("ReadFrame accepted a zero-length frame")
	}
}

// TestCollectorEndToEnd drives a Collector over a real connection: hello,
// measurements, flush barrier, and the driver-side accessors.
func TestCollectorEndToEnd(t *testing.T) {
	c, err := NewCollector("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	node := ids.NodeID(0x0a0b0c0d0e0f)
	conn, err := net.Dial("tcp", c.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	send := func(m Message) {
		t.Helper()
		if err := WriteFrame(conn, m); err != nil {
			t.Fatal(err)
		}
	}
	send(Hello{Agent: "a1", Index: 2, Node: node})
	send(Publish{WI: 0, Seq: 1, At: 100})
	send(Deliveries{WI: 0, Samples: []SeqAt{{Seq: 1, At: 150}}})
	send(Duplicates{WI: 0, Count: 3})
	send(Traffic{MsgsIn: 1, BytesIn: 64})
	send(Flush{Token: 9})

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.WaitFor(ctx, []ids.NodeID{node}, 5*time.Second); err != nil {
		t.Fatalf("WaitFor: %v", err)
	}
	if err := c.WaitFlush(ctx, 9, []ids.NodeID{node}, 5*time.Second); err != nil {
		t.Fatalf("WaitFlush: %v", err)
	}
	if got := c.DeliveredCount(node, 0); got != 1 {
		t.Errorf("DeliveredCount = %d, want 1", got)
	}
	// A barrier that times out names the nodes it is still waiting on, not
	// just the token: node passed 9 but never sends 10, absent never dialed.
	absent := ids.NodeID(0x010203040506)
	err = c.WaitFlush(ctx, 10, []ids.NodeID{node, absent}, 50*time.Millisecond)
	if err == nil || !strings.Contains(err.Error(), node.String()) || !strings.Contains(err.Error(), absent.String()) {
		t.Errorf("WaitFlush timeout = %v, want both missing node ids named", err)
	}
	err = c.WaitFor(ctx, []ids.NodeID{node, absent}, 50*time.Millisecond)
	if err == nil || !strings.Contains(err.Error(), absent.String()) || strings.Contains(err.Error(), node.String()) {
		t.Errorf("WaitFor timeout = %v, want only the absent node named", err)
	}
	c.View(func(nodes map[ids.NodeID]*NodeState, pubs map[int]map[uint32]int64, _ map[int]map[uint32]BlobPublished) {
		ns := nodes[node]
		if ns == nil || ns.Agent != "a1" || ns.Index != 2 {
			t.Fatalf("node state off: %+v", ns)
		}
		if ns.Streams[0].Dups != 3 || !ns.HasTraffic || ns.Traffic.BytesIn != 64 {
			t.Errorf("accumulated state off: %+v", ns)
		}
		if pubs[0][1] != 100 {
			t.Errorf("pubs = %v, want wi 0 seq 1 at 100", pubs)
		}
	})
}
