package main

import "math/bits"

// hist is a fixed-bucket log-linear latency histogram over nanoseconds:
// values below 128 ns get one bucket each, and every power of two above
// that is split into 128 equal buckets (under 0.8 % relative width). The
// bucket array is allocated once, so recording never allocates and the
// harness adds nothing to the heap figures it measures.
type hist struct {
	counts [histBuckets]uint64
	n      uint64
}

const (
	subBits     = 7
	subCount    = 1 << subBits
	histBuckets = subCount * 36 // up to 2^42 ns, about 73 minutes
)

func bucketOf(v int64) int {
	if v < subCount {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - subBits - 1
	i := (e+1)*subCount + int(uint64(v)>>e) - subCount
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// bucketRange returns a bucket's lower bound and width in ns.
func bucketRange(i int) (lo, width float64) {
	if i < subCount {
		return float64(i), 1
	}
	e := i/subCount - 1
	m := i%subCount + subCount
	return float64(uint64(m) << e), float64(uint64(1) << e)
}

func (h *hist) record(ns int64) {
	h.counts[bucketOf(ns)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in ns, interpolating linearly inside
// the bucket that holds it.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, w := bucketRange(i)
			return lo + w*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	lo, w := bucketRange(histBuckets - 1)
	return lo + w
}
