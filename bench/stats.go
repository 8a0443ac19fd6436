package main

import (
	"math"
	"math/bits"
	"sort"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks. xs need not be sorted; empty input reads 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// spread is the interquartile range as a share of the median — the
// repeatability figure every bound is judged against.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (quantile(xs, 0.75) - quantile(xs, 0.25)) / math.Abs(m)
}

// hist is a log-linear histogram of non-negative int64 observations
// (nanoseconds here): 64 linear sub-buckets per power of two, so a value
// read back is within 1/64 of the original. It is fixed-size and
// allocation-free on the record path, which is what lets every receiver
// record every delivery of an open-loop run. Not safe for concurrent use:
// each owner (a node's actor, the load generator) keeps its own and the
// reader merges them after the owners are quiescent.
type hist struct {
	bins [histBins]uint64
	n    uint64
	max  int64
}

const (
	histSubBits = 6
	histSub     = 1 << histSubBits
	histBins    = (64 - histSubBits) * histSub
)

func histBin(v int64) int {
	if v < histSub {
		if v < 0 {
			v = 0
		}
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1 - histSubBits // v>>exp is in [histSub, 2*histSub)
	return (exp+1)*histSub + int(v>>uint(exp)) - histSub
}

// histBinLow is the smallest value that lands in bin i.
func histBinLow(i int) int64 {
	if i < 2*histSub {
		return int64(i)
	}
	exp := i/histSub - 1
	return int64(histSub+i%histSub) << uint(exp)
}

func (h *hist) add(v int64) {
	h.bins[histBin(v)]++
	h.n++
	if v > h.max {
		h.max = v
	}
}

func (h *hist) merge(o *hist) {
	for i, c := range o.bins {
		h.bins[i] += c
	}
	h.n += o.n
	if o.max > h.max {
		h.max = o.max
	}
}

func (h *hist) reset() { *h = hist{} }

// percentile returns the p-th percentile (0..100) as the midpoint of the bin
// holding that rank, capped at the exact maximum. Empty reads 0.
func (h *hist) percentile(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(p / 100 * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.bins {
		seen += c
		if seen >= rank {
			lo, hi := histBinLow(i), histBinLow(i+1)
			if hi < lo { // the top bin's upper edge overflows int64
				return float64(h.max)
			}
			mid := float64(lo) + float64(hi-lo-1)/2
			return math.Min(mid, float64(h.max))
		}
	}
	return float64(h.max)
}
