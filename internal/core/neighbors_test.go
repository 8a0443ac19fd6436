package core

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/wire"
)

// sixMaps is the per-neighbor bookkeeping the table replaced, with the
// meaning each container had: absent from peers is not the same as absent
// from cooldown. The table must answer every question as these do.
type sixMaps struct {
	parents     map[ids.NodeID]instant
	firstHeard  map[ids.NodeID]instant
	peers       map[ids.NodeID]*modelInfo
	cooldown    map[ids.NodeID]instant
	inactiveIn  map[ids.NodeID]bool
	outInactive map[ids.NodeID]bool
}

type modelInfo struct {
	depth                            uint16
	pathHasMe, pathKnown, parentIsMe bool
	lastHop                          ids.NodeID
	uptime                           uint32
	degree                           int32
}

func newSixMaps() *sixMaps {
	return &sixMaps{
		parents: map[ids.NodeID]instant{}, firstHeard: map[ids.NodeID]instant{},
		peers: map[ids.NodeID]*modelInfo{}, cooldown: map[ids.NodeID]instant{},
		inactiveIn: map[ids.NodeID]bool{}, outInactive: map[ids.NodeID]bool{},
	}
}

func (m *sixMaps) info(peer ids.NodeID) *modelInfo {
	if m.peers[peer] == nil {
		m.peers[peer] = &modelInfo{depth: wire.NoDepth, degree: -1}
	}
	return m.peers[peer]
}

func (m *sixMaps) forget(peer ids.NodeID) {
	delete(m.firstHeard, peer)
	delete(m.peers, peer)
	delete(m.cooldown, peer)
	delete(m.inactiveIn, peer)
	delete(m.outInactive, peer)
}

// knownEligible is Protocol.knownEligible as it read over the maps.
func (m *sixMaps) knownEligible(mode Mode, own uint16, now instant, peer ids.NodeID) bool {
	if until, ok := m.cooldown[peer]; ok && now < until {
		return false
	}
	pi, ok := m.peers[peer]
	if !ok || pi.parentIsMe {
		return false
	}
	if mode == ModeTree {
		return pi.pathKnown && !pi.pathHasMe
	}
	return pi.depth != wire.NoDepth && (own == wire.NoDepth || pi.depth <= own)
}

// TestNeighborTableAgainstSixMaps drives the protocol's own bookkeeping
// calls and the six maps through the same random operations, then asks
// both every question the protocol asks.
func TestNeighborTableAgainstSixMaps(t *testing.T) {
	const self, universe = 1, 12 // peers are 2..universe+1
	for _, mode := range []Mode{ModeTree, ModeDAG} {
		r := rand.New(rand.NewSource(int64(mode) + 5))
		for round := 0; round < 60; round++ {
			net := &testNet{t: t, procs: map[ids.NodeID]*Protocol{}, now: time.Unix(1000, 0)}
			p := New(Config{Mode: mode, PSS: &testPSS{active: []ids.NodeID{2, 3, 4, 5}}})
			p.Start(&testEnv{net: net, id: self})
			st, m := p.getStream(1), newSixMaps()
			st.started = true
			if mode == ModeDAG {
				st.depth = 3
			}
			for op := 0; op < 400; op++ {
				net.now = net.now.Add(time.Duration(r.Intn(3)) * time.Second)
				now := instant(net.now.UnixNano())
				peer := ids.NodeID(2 + r.Intn(universe))
				switch r.Intn(13) {
				case 0, 1: // a payload message from peer
					path := []ids.NodeID{ids.NodeID(20 + r.Intn(3)), peer}
					if r.Intn(3) == 0 {
						path = []ids.NodeID{20, self, peer}
					}
					depth := uint16(r.Intn(6))
					p.noteSender(st, peer, depth, path)
					if _, ok := m.firstHeard[peer]; !ok {
						m.firstHeard[peer] = now
					}
					if pi := m.info(peer); mode == ModeDAG {
						pi.depth = depth
					} else {
						pi.pathHasMe, pi.pathKnown, pi.lastHop = ids.Contains(path, self), true, path[len(path)-2]
					}
				case 2: // what a piggyback from peer sets
					up, deg, mine := uint32(r.Intn(90)), int32(r.Intn(8)), r.Intn(4) == 0
					pi, mi := st.info(peer), m.info(peer)
					pi.uptime, pi.degree, pi.parentIsMe = up, deg, mine
					mi.uptime, mi.degree, mi.parentIsMe = up, deg, mine
				case 3:
					p.adoptParent(st, peer)
					delete(m.inactiveIn, peer) // adoption reactivates the link
					m.parents[peer] = now
				case 4:
					p.dropParent(st, peer)
					delete(m.parents, peer)
				case 5:
					sym := r.Intn(2) == 0
					p.sendDeactivate(st, peer, sym)
					m.inactiveIn[peer] = true
					if sym {
						m.outInactive[peer] = true
					}
				case 6:
					sym := r.Intn(2) == 0
					p.onDeactivate(peer, wire.Deactivate{Stream: 1, Symmetric: sym})
					m.outInactive[peer] = true
					if sym {
						m.inactiveIn[peer] = true
					}
				case 7:
					p.onReactivate(peer, wire.Reactivate{Stream: 1})
					delete(m.outInactive, peer)
				case 8:
					p.sendReactivate(st, peer)
					delete(m.inactiveIn, peer)
				case 9: // barred, or a bar already over
					until := now + instant(time.Duration(r.Intn(5)-1)*time.Second)
					st.info(peer).cooldownUntil = until
					m.cooldown[peer] = until
				case 10: // forget leaves the parent set to its caller
					st.forget(peer)
					m.forget(peer)
				case 11: // the peer left the view: NeighborDown's bookkeeping
					if got, want := st.drop(peer), m.parents[peer] != 0; got != want {
						t.Fatalf("drop(%d) = %v, want %v", peer, got, want)
					}
					st.forget(peer)
					delete(m.parents, peer)
					m.forget(peer)
					if st.known(peer) != nil {
						t.Fatalf("a record of %d outlives the neighbor", peer)
					}
				case 12:
					p.forgetPosition(st)
					if mode == ModeDAG && r.Intn(2) == 0 {
						st.depth = 3 // as a later message would: eligibility compares depths again
					}
					for _, pi := range m.peers {
						pi.pathKnown, pi.pathHasMe, pi.depth = false, false, wire.NoDepth
					}
				}
				compareWithSixMaps(t, p, st, m, universe)
			}
		}
	}
}

func compareWithSixMaps(t *testing.T, p *Protocol, st *stream, m *sixMaps, universe int) {
	t.Helper()
	for i := 1; i < len(st.nbrs); i++ {
		if st.nbrs[i-1].id >= st.nbrs[i].id {
			t.Fatalf("table not strictly ascending: %d before %d", st.nbrs[i-1].id, st.nbrs[i].id)
		}
	}
	want := make([]ids.NodeID, 0, len(m.parents))
	for id := range m.parents {
		want = append(want, id)
	}
	ids.Sort(want)
	if got := st.appendParents(nil); !slices.Equal(got, want) || st.nParents != len(want) {
		t.Fatalf("parents = %v (count %d), want %v", got, st.nParents, want)
	}
	if first := st.firstParent(); len(want) == 0 && first != ids.Nil || len(want) > 0 && first != want[0] {
		t.Fatalf("firstParent = %d, parents %v", first, want)
	}
	now := p.now()
	for id := ids.NodeID(2); id < ids.NodeID(2+universe); id++ {
		_, parent := m.parents[id]
		if st.isParent(id) != parent || st.has(id, fInactiveIn) != m.inactiveIn[id] || st.has(id, fOutInactive) != m.outInactive[id] {
			t.Fatalf("peer %d: parent/inactiveIn/outInactive = %v/%v/%v, want %v/%v/%v", id,
				st.isParent(id), st.has(id, fInactiveIn), st.has(id, fOutInactive), parent, m.inactiveIn[id], m.outInactive[id])
		}
		// What the protocol reads off a record, against the maps' answer
		// with a missing entry read the way the old code read it.
		info := modelInfo{depth: wire.NoDepth, degree: -1}
		if mi, ok := m.peers[id]; ok {
			info = *mi
		}
		var got modelInfo
		var cooldown instant
		if nb := st.known(id); nb == nil {
			got = modelInfo{depth: wire.NoDepth, degree: -1}
		} else {
			got = modelInfo{nb.depth, nb.pathHasMe, nb.pathKnown, nb.parentIsMe, nb.lastHop, nb.uptime, nb.degree}
			cooldown = nb.cooldownUntil
		}
		if got != info || cooldown != m.cooldown[id] {
			t.Fatalf("peer %d: info %+v cooldown %v, want %+v %v", id, got, cooldown, info, m.cooldown[id])
		}
		// A strategy reads a first-heard instant as its UnixNano, and never
		// as a zero time.Time.
		cand := Candidate{Peer: id, Uptime: time.Duration(info.uptime) * time.Second, Degree: int(info.degree)}
		if at, ok := m.firstHeard[id]; ok {
			cand.FirstHeard = time.Unix(0, int64(at))
		}
		if c := p.candidate(st, id); c != cand {
			t.Fatalf("candidate(%d) = %+v, want %+v", id, c, cand)
		}
		if parent {
			cand.FirstHeard = time.Unix(0, int64(m.parents[id]))
		}
		if c := p.incumbent(st, id); c != cand {
			t.Fatalf("incumbent(%d) = %+v, want %+v", id, c, cand)
		}
		if got, want := p.knownEligible(st, id), m.knownEligible(p.cfg.Mode, st.depth, now, id); got != want {
			t.Fatalf("knownEligible(%d) = %v, want %v", id, got, want)
		}
	}
}

// TestNeighborRecordMovesOnInsert is the hazard the table's users design
// around: a record obtained before a smaller id is inserted is no longer
// that peer's record — in place when the table had room, in a new array
// when it had none — so every write goes through a fresh lookup.
func TestNeighborRecordMovesOnInsert(t *testing.T) {
	for _, room := range []int{1, 4} {
		st := newStream(1, room)
		early := st.info(9)
		early.uptime = 60
		early.facets, early.adoptedAt, st.nParents = fParent, instant(5e9), 1

		st.info(3).degree = 2 // shifts 9's record up, or moves the table

		if st.known(9) == early {
			t.Fatalf("room %d: peer 9's record did not move; the test no longer covers the hazard", room)
		}
		st.info(9).degree = 7
		nine, three := st.known(9), st.known(3)
		if nine.uptime != 60 || nine.degree != 7 || nine.facets != fParent || nine.adoptedAt != 5e9 {
			t.Errorf("room %d: peer 9 = %+v after the insert", room, *nine)
		}
		if want := (neighbor{id: 3, depth: wire.NoDepth, degree: 2}); *three != want {
			t.Errorf("room %d: peer 3 = %+v, want %+v", room, *three, want)
		}
		if got := st.appendParents(nil); !slices.Equal(got, []ids.NodeID{9}) || st.nParents != 1 {
			t.Errorf("room %d: parents = %v (count %d), want [9]", room, got, st.nParents)
		}
	}
}
