// Package ids defines node identifiers.
//
// The BRISA paper assumes a 48-bit unique identifier per node (an ip:port
// pair); the metadata-size argument in §II-D (path embedding costs 7×48 bits
// for a million-node system) depends on that width. NodeID keeps the same
// on-the-wire width: values are encoded in 6 bytes and must therefore stay
// below 2^48.
package ids

import (
	"fmt"
	"net"
	"slices"
	"strconv"
)

// NodeID uniquely identifies a node. The zero value is reserved and never
// names a live node; protocols use it as "no node".
type NodeID uint64

// Nil is the reserved "no node" identifier.
const Nil NodeID = 0

// WireSize is the encoded size of a NodeID in bytes (48 bits, the paper's
// ip:port width).
const WireSize = 6

// MaxID is the largest encodable identifier (2^48 - 1).
const MaxID NodeID = 1<<48 - 1

// String renders the identifier as the ip:port pair it would be in a real
// deployment: the high 32 bits as a dotted quad and the low 16 bits as a
// port. Simulation-assigned IDs are small integers, which print as
// 0.0.0.x:port — still unique and compact in logs.
func (id NodeID) String() string {
	if id == Nil {
		return "nil"
	}
	ip := uint32(id >> 16)
	port := uint16(id)
	return fmt.Sprintf("%d.%d.%d.%d:%d", byte(ip>>24), byte(ip>>16), byte(ip>>8), byte(ip), port)
}

// Valid reports whether the identifier is non-nil and encodable in 48 bits.
func (id NodeID) Valid() bool { return id != Nil && id <= MaxID }

// FromHostPort builds a NodeID from a 32-bit host and 16-bit port, mirroring
// the paper's ip:port identifiers. Useful for the TCP transport.
func FromHostPort(host uint32, port uint16) NodeID {
	return NodeID(uint64(host)<<16 | uint64(port))
}

// Parse converts an "a.b.c.d:port" address into the 48-bit identifier it is
// in a live deployment — the inverse of NodeID.String. Only IPv4 addresses
// fit the paper's 48-bit identifier width.
func Parse(s string) (NodeID, error) {
	host, portStr, err := net.SplitHostPort(s)
	if err != nil {
		return Nil, fmt.Errorf("ids: parse %q: %w", s, err)
	}
	ip := net.ParseIP(host)
	if ip == nil {
		return Nil, fmt.Errorf("ids: parse %q: not an IP address", s)
	}
	ip4 := ip.To4()
	if ip4 == nil {
		return Nil, fmt.Errorf("ids: parse %q: need an IPv4 address (identifiers are 48-bit ip:port)", s)
	}
	port, err := strconv.ParseUint(portStr, 10, 16)
	if err != nil {
		return Nil, fmt.Errorf("ids: parse %q: bad port: %w", s, err)
	}
	id := FromHostPort(uint32(ip4[0])<<24|uint32(ip4[1])<<16|uint32(ip4[2])<<8|uint32(ip4[3]), uint16(port))
	if !id.Valid() {
		return Nil, fmt.Errorf("ids: parse %q: the zero address is reserved", s)
	}
	return id, nil
}

// Sort orders a slice of identifiers in place (ascending). Handy for
// deterministic iteration over map keys in tests and logs. slices.Sort
// (not sort.Slice) keeps the determinism sorts on the simulator's hot
// paths free of comparator-closure and reflect.Swapper allocations.
func Sort(s []NodeID) {
	slices.Sort(s)
}

// Contains reports whether s contains id.
func Contains(s []NodeID, id NodeID) bool { return slices.Contains(s, id) }

// Clone returns a copy of s, or nil if s is empty.
func Clone(s []NodeID) []NodeID {
	if len(s) == 0 {
		return nil
	}
	return slices.Clone(s)
}

// Remove returns s with the first occurrence of id removed, preserving order.
// The input slice is modified.
func Remove(s []NodeID, id NodeID) []NodeID {
	if i := slices.Index(s, id); i >= 0 {
		return slices.Delete(s, i, i+1)
	}
	return s
}

// Set is a small set of node identifiers, kept as an ascending slice: views
// and child sets hold a few dozen members at most, every reader wants them
// in order, and a slice costs a fraction of a map's buckets per node.
type Set struct {
	ids []NodeID // ascending, no duplicates
}

// NewSet returns a set pre-populated with the given members.
func NewSet(members ...NodeID) *Set {
	s := &Set{}
	for _, id := range members {
		s.Add(id)
	}
	return s
}

// Add inserts id and reports whether it was absent.
func (s *Set) Add(id NodeID) bool {
	i, ok := slices.BinarySearch(s.ids, id)
	if !ok {
		s.ids = slices.Insert(s.ids, i, id)
	}
	return !ok
}

// Remove deletes id and reports whether it was present.
func (s *Set) Remove(id NodeID) bool {
	i, ok := slices.BinarySearch(s.ids, id)
	if ok {
		s.ids = slices.Delete(s.ids, i, i+1)
	}
	return ok
}

// Has reports membership.
func (s *Set) Has(id NodeID) bool {
	_, ok := slices.BinarySearch(s.ids, id)
	return ok
}

// Len returns the number of members.
func (s *Set) Len() int { return len(s.ids) }

// Snapshot returns a copy of the members, ascending.
func (s *Set) Snapshot() []NodeID { return s.AppendSorted(make([]NodeID, 0, len(s.ids))) }

// AppendSorted appends the set's members to dst in ascending order and
// returns the extended slice — the allocation-free variant of Snapshot for
// hot paths that reuse a scratch buffer. The result never aliases the set.
func (s *Set) AppendSorted(dst []NodeID) []NodeID { return append(dst, s.ids...) }

// Clear removes all members.
func (s *Set) Clear() { s.ids = s.ids[:0] }
