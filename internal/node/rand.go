package node

import "math/rand"

// SplitMix is a splitmix64 rand.Source64: 8 bytes of state, against the
// 607 words of math/rand's default source. It is the random source under
// every node on both runtimes (Env.Rand): the simulator starts one per node
// and purpose at a hash of (seed, purpose, node) and re-seeds one per latency
// draw, and a live node starts one at its configured seed. All such streams
// walk one 2^64 cycle from hashed offsets, so N streams of L draws overlap
// somewhere with probability about N²·L / 2^64: 5·10⁻⁴ for 100k nodes
// drawing 10⁶ times each.
type SplitMix struct{ s uint64 }

// NewRand returns a *rand.Rand that draws from a SplitMix whose state starts
// at seed.
func NewRand(seed uint64) *rand.Rand { return rand.New(&SplitMix{s: seed}) }

// Uint64 implements rand.Source64.
func (h *SplitMix) Uint64() uint64 {
	v := Mix64(h.s)
	h.s += 0x9e3779b97f4a7c15
	return v
}

// Int63 implements rand.Source.
func (h *SplitMix) Int63() int64 { return int64(h.Uint64() >> 1) }

// Seed implements rand.Source: the state becomes seed itself.
func (h *SplitMix) Seed(seed int64) { h.s = uint64(seed) }

// Mix64 advances a splitmix64 state by one step and returns the mixed value.
func Mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}
