package ids

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestString(t *testing.T) {
	cases := map[NodeID]string{
		Nil:                            "nil",
		FromHostPort(0x7F000001, 8080): "127.0.0.1:8080",
		FromHostPort(0x0A000001, 1):    "10.0.0.1:1",
		42:                             "0.0.0.0:42",
	}
	for id, want := range cases {
		if got := id.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", uint64(id), got, want)
		}
	}
}

func TestValid(t *testing.T) {
	if Nil.Valid() {
		t.Error("Nil must be invalid")
	}
	if !MaxID.Valid() {
		t.Error("MaxID must be valid")
	}
	if (MaxID + 1).Valid() {
		t.Error("MaxID+1 must be invalid (does not fit in 48 bits)")
	}
}

func TestParse(t *testing.T) {
	good := map[string]NodeID{
		"127.0.0.1:8080":        FromHostPort(0x7F000001, 8080),
		"10.0.0.1:1":            FromHostPort(0x0A000001, 1),
		"255.255.255.255:65535": MaxID,
	}
	for in, want := range good {
		got, err := Parse(in)
		if err != nil {
			t.Errorf("Parse(%q): %v", in, err)
			continue
		}
		if got != want {
			t.Errorf("Parse(%q) = %v, want %v", in, got, want)
		}
		// Round trip: a parsed identifier renders back to its input.
		if got.String() != in {
			t.Errorf("Parse(%q).String() = %q", in, got.String())
		}
	}
	bad := []string{
		"", "127.0.0.1", "127.0.0.1:", "127.0.0.1:70000", "127.0.0.1:-1",
		"nonsense:80", "[::1]:80", "0.0.0.0:0", "127.0.0.1:80:90",
	}
	for _, in := range bad {
		if id, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) = %v, want error", in, id)
		}
	}
}

func TestQuickFromHostPortRoundTrip(t *testing.T) {
	f := func(host uint32, port uint16) bool {
		id := FromHostPort(host, port)
		if host != 0 || port != 0 {
			if !id.Valid() {
				return false
			}
		}
		return uint32(uint64(id)>>16) == host && uint16(id) == port
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSliceHelpers(t *testing.T) {
	s := []NodeID{3, 1, 2}
	Sort(s)
	if s[0] != 1 || s[2] != 3 {
		t.Errorf("Sort: %v", s)
	}
	if !Contains(s, 2) || Contains(s, 9) {
		t.Error("Contains broken")
	}
	s = Remove(s, 2)
	if len(s) != 2 || Contains(s, 2) {
		t.Errorf("Remove: %v", s)
	}
	s = Remove(s, 99) // absent: no-op
	if len(s) != 2 {
		t.Errorf("Remove absent changed slice: %v", s)
	}
	if Clone(nil) != nil {
		t.Error("Clone(nil) should be nil")
	}
	c := Clone(s)
	c[0] = 77
	if s[0] == 77 {
		t.Error("Clone aliases the input")
	}
}

func TestSet(t *testing.T) {
	s := NewSet(5, 3)
	if !s.Add(1) || s.Add(1) {
		t.Error("Add semantics")
	}
	if s.Len() != 3 || !s.Has(3) || s.Has(9) {
		t.Error("membership")
	}
	if snap := s.Snapshot(); snap[0] != 1 || snap[1] != 3 || snap[2] != 5 {
		t.Errorf("Snapshot not sorted: %v", snap)
	}
	if !s.Remove(3) || s.Remove(3) {
		t.Error("Remove semantics")
	}
	s.Clear()
	if s.Len() != 0 {
		t.Error("Clear")
	}
}

// TestSetAgainstMapModel drives a Set and a map through the same random
// operations: same answers throughout, snapshots ascending and detached.
func TestSetAgainstMapModel(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for round := 0; round < 200; round++ {
		s, model := NewSet(), map[NodeID]bool{}
		for op := 0; op < 300; op++ {
			id := NodeID(1 + r.Intn(40))
			switch r.Intn(10) {
			case 0, 1, 2, 3:
				if got, want := s.Add(id), !model[id]; got != want {
					t.Fatalf("Add(%d) = %v, want %v", id, got, want)
				}
				model[id] = true
			case 4, 5, 6:
				if got, want := s.Remove(id), model[id]; got != want {
					t.Fatalf("Remove(%d) = %v, want %v", id, got, want)
				}
				delete(model, id)
			case 7, 8:
				if got := s.Has(id); got != model[id] {
					t.Fatalf("Has(%d) = %v, want %v", id, got, model[id])
				}
			case 9:
				if r.Intn(20) == 0 {
					s.Clear()
					clear(model)
				}
			}
			if s.Len() != len(model) {
				t.Fatalf("Len = %d, want %d", s.Len(), len(model))
			}
			want := make([]NodeID, 0, len(model))
			for id := range model {
				want = append(want, id)
			}
			Sort(want)
			snap := s.Snapshot()
			if !slices.Equal(snap, want) {
				t.Fatalf("Snapshot = %v, want %v", snap, want)
			}
			// Both copies are the caller's: scribbling over them, and
			// appending to them, must leave the set as it was.
			app := s.AppendSorted([]NodeID{99})
			if app[0] != 99 || !slices.Equal(app[1:], want) {
				t.Fatalf("AppendSorted = %v, want 99 then %v", app, want)
			}
			for _, out := range [][]NodeID{snap, s.AppendSorted(nil)} {
				out = append(out, 1000, 1001)
				for i := range out {
					out[i] = 77
				}
			}
			if got := s.Snapshot(); !slices.Equal(got, want) {
				t.Fatalf("set changed through a returned slice: %v, want %v", got, want)
			}
		}
	}
}

func TestNewSetDropsDuplicates(t *testing.T) {
	s := NewSet(5, 3, 5, 1, 3, 5)
	if got := s.Snapshot(); !slices.Equal(got, []NodeID{1, 3, 5}) {
		t.Errorf("NewSet with duplicates = %v, want [1 3 5]", got)
	}
	if s.Add(5) || !s.Remove(5) || s.Has(5) {
		t.Error("a duplicated member is held more than once")
	}
}
