package simnet

import (
	"math"
	"math/rand"
	"time"

	"repro/internal/ids"
	"repro/internal/node"
)

// LatencyModel produces one-way delays between node pairs.
//
// Contract: Sample must be a pure function of (from, to, r) — any memoized
// per-pair or per-node state must be derived deterministically from the pair
// itself, never from call order, because with Options.Workers > 1 different
// shards sample concurrently and in runs with different worker counts the
// call order differs while the results must not. The built-in models follow
// this by hashing the pair into private splitmix64 streams. Models should
// also implement MinDelayer; without it the sharded scheduler has no safe
// lookahead window and degrades to sequential execution.
type LatencyModel interface {
	// Sample returns the one-way delay for a message from -> to.
	Sample(from, to ids.NodeID, r *rand.Rand) time.Duration
}

// LogNormalDelay returns a sampler for Options.ProcessingDelay: a log-normal
// distribution with the given median and shape sigma, capped at 20× the
// median. With median ~20ms and sigma ~1 it approximates the scheduling
// jitter of oversubscribed PlanetLab hosts.
func LogNormalDelay(median time.Duration, sigma float64) func(r *rand.Rand) time.Duration {
	mu := math.Log(float64(median))
	cap := 20 * float64(median)
	return func(r *rand.Rand) time.Duration {
		v := math.Exp(mu + sigma*r.NormFloat64())
		if v > cap {
			v = cap
		}
		return time.Duration(v)
	}
}

// FixedLatency applies the same delay to every message. Useful in unit tests
// where exact timings must be predictable.
type FixedLatency time.Duration

// Sample implements LatencyModel.
func (f FixedLatency) Sample(_, _ ids.NodeID, _ *rand.Rand) time.Duration {
	return time.Duration(f)
}

// MinDelay implements MinDelayer.
func (f FixedLatency) MinDelay() time.Duration { return time.Duration(f) }

// UniformLatency draws each delay uniformly from [Min, Max].
type UniformLatency struct {
	Min, Max time.Duration
}

// Sample implements LatencyModel.
func (u UniformLatency) Sample(_, _ ids.NodeID, r *rand.Rand) time.Duration {
	if u.Max <= u.Min {
		return u.Min
	}
	return u.Min + time.Duration(r.Int63n(int64(u.Max-u.Min)))
}

// MinDelay implements MinDelayer.
func (u UniformLatency) MinDelay() time.Duration { return u.Min }

// Cluster models the paper's testbed (1): a 1 Gbps switched LAN hosting all
// nodes — sub-millisecond, narrowly distributed one-way delays.
func Cluster() LatencyModel {
	return UniformLatency{Min: 50 * time.Microsecond, Max: 300 * time.Microsecond}
}

// planetLab models the paper's testbed (2): a wide-area slice whose nodes
// cluster into sites (universities). Real PlanetLab latencies are strongly
// correlated by geography: same-site pairs sit a LAN hop apart
// (sub-millisecond to a few ms) while cross-site pairs range from tens to
// hundreds of ms, heavy-tailed and asymmetric. This structure is what gives
// the paper's delay-aware parent selection its advantage (Figure 9), so the
// model reproduces it rather than sampling IID pair latencies:
//
//   - each node is hashed to one of Sites sites;
//   - each ordered site pair carries a log-normal base delay (median
//     ~50 ms one-way, σ=0.6, floored at the LAN minimum); the two
//     directions are derived independently, matching the paper's remark
//     that "PlanetLab asymmetries deter direct communication between some
//     nodes";
//   - each ordered node pair perturbs its site-pair base by ±15% (last-mile
//     differences), fixed per pair;
//   - every message adds ~5% jitter.
//
// All per-site and per-pair values are pure hashes of the identifiers (no
// memoization), so the model is stateless: safe under concurrent sampling
// from scheduler shards and independent of sampling order.
type planetLab struct {
	sites     int
	mu, sigma float64
}

// planetLabFloor is the LAN-hop latency floor: no pair, same-site or not,
// goes below it. It anchors MinDelay for the sharded scheduler.
const planetLabFloor = 300 * time.Microsecond

// PlanetLab returns the wide-area latency model with 20 sites.
func PlanetLab() LatencyModel { return PlanetLabSites(20) }

// PlanetLabSites returns the wide-area model with an explicit site count.
func PlanetLabSites(sites int) LatencyModel {
	if sites < 1 {
		sites = 1
	}
	return &planetLab{
		sites: sites,
		mu:    math.Log(50e-3), // median 50 ms one-way across sites
		sigma: 0.6,
	}
}

// pl* salts separate the model's hash streams.
const (
	plSiteSalt = 0x706c_5349_5445
	plBaseSalt = 0x706c_4241_5345
	plPairSalt = 0x706c_5041_4952
)

// unit maps a hash to a float64 in [0, 1).
func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// gauss derives a standard normal variate from a hash stream via Box-Muller.
func gauss(h uint64) float64 {
	u1 := unit(node.Mix64(h))
	u2 := unit(node.Mix64(h ^ 0x9e3779b97f4a7c15))
	if u1 < 1e-12 {
		u1 = 1e-12
	}
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

func (p *planetLab) siteOf(id ids.NodeID) int {
	return int(node.Mix64(uint64(id)^plSiteSalt) % uint64(p.sites))
}

// Sample implements LatencyModel.
func (p *planetLab) Sample(from, to ids.NodeID, r *rand.Rand) time.Duration {
	sf, st := p.siteOf(from), p.siteOf(to)
	var siteLat time.Duration
	if sf == st {
		// Same machine room: a LAN hop.
		h := node.Mix64(node.Mix64(uint64(from)^plPairSalt) ^ uint64(to))
		siteLat = planetLabFloor + time.Duration(unit(h)*float64(1200*time.Microsecond))
	} else {
		h := node.Mix64(node.Mix64(uint64(sf)^plBaseSalt) ^ uint64(st))
		secs := math.Exp(p.mu + p.sigma*gauss(h))
		const ceiling = 0.6 // clamp pathological tail at 600 ms one-way
		if secs > ceiling {
			secs = ceiling
		}
		siteLat = time.Duration(secs * float64(time.Second))
		if siteLat < planetLabFloor {
			siteLat = planetLabFloor
		}
	}
	// Per node pair: ±15% last-mile variation, fixed per pair.
	h := node.Mix64(node.Mix64(uint64(from)^plPairSalt^0xabcd) ^ uint64(to))
	base := time.Duration(float64(siteLat) * (0.85 + 0.30*unit(h)))
	// Per message: up to +5% jitter.
	jitterCap := int64(base) / 20
	if jitterCap <= 0 {
		return base
	}
	return base + time.Duration(r.Int63n(jitterCap))
}

// MinDelay implements MinDelayer: the LAN floor shrunk by the worst-case
// last-mile perturbation.
func (p *planetLab) MinDelay() time.Duration {
	return time.Duration(0.85 * float64(planetLabFloor))
}
