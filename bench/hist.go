package main

import (
	"math"
	"math/bits"
	"slices"
)

// Log-linear bucket layout: values below 2·subCount nanoseconds get one
// bucket each; above that every power of two is split into subCount
// equal-width buckets, so a bucket is never wider than 1/subCount (0.8%) of
// its lower bound. 7424 buckets cover every non-negative int64.
const (
	subBits     = 7
	subCount    = 1 << subBits
	histBuckets = subCount + (64-subBits)*subCount
)

// hist is a fixed-bucket log-linear histogram of non-negative int64 samples
// (nanoseconds for latencies). It never allocates after construction, so
// recording costs the same at the first sample and the millionth.
type hist struct {
	counts   [histBuckets]uint64
	n        uint64
	sum      float64
	min, max int64
}

func newHist() *hist { return &hist{min: math.MaxInt64} }

// bucketOf returns the bucket index of v ≥ 0.
func bucketOf(v int64) int {
	if v < subCount {
		return int(v)
	}
	shift := bits.Len64(uint64(v)) - subBits - 1
	return subCount + shift*subCount + int(uint64(v)>>uint(shift)) - subCount
}

// bucketRange returns the smallest value of bucket i and its width.
func bucketRange(i int) (lo, width int64) {
	if i < subCount {
		return int64(i), 1
	}
	shift := (i - subCount) / subCount
	sub := (i - subCount) % subCount
	return int64(subCount+sub) << uint(shift), 1 << uint(shift)
}

// record adds one sample; negative samples count as 0.
func (h *hist) record(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bucketOf(v)]++
	h.n++
	h.sum += float64(v)
	h.min = min(h.min, v)
	h.max = max(h.max, v)
}

// merge adds every sample of o to h.
func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
	h.min = min(h.min, o.min)
	h.max = max(h.max, o.max)
}

// quantile returns the nearest-rank q-quantile: the sample of rank
// ⌈q·n⌉ in sorted order, estimated as the midpoint of its bucket and clamped
// to the observed range. Samples below 2·subCount are exact; larger ones are
// off by at most half a bucket width. An empty histogram reports 0.
func (h *hist) quantile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	rank = max(rank, 1)
	rank = min(rank, h.n)
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			lo, w := bucketRange(i)
			return min(max(lo+(w-1)/2, h.min), h.max)
		}
	}
	return h.max
}

// mean returns the arithmetic mean of the samples, 0 when empty.
func (h *hist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// latencyBlocks is how many consecutive blocks of operations a run's
// latencies are split into. A reported latency quantile is the median over
// blocks of each block's quantile, so a stall confined to a second or two of
// the run — a GC burst, a scheduling hiccup on a shared machine — moves it
// little, where it would decide a whole-run p99 on its own.
const latencyBlocks = 15

// minBlockSamples is the fewest samples a block's quantile is taken over,
// which leaves ten beyond a p99; sparser neighbouring blocks are merged.
const minBlockSamples = 1000

// blockHist is one histogram per block of operations.
type blockHist [latencyBlocks]*hist

func newBlockHist() *blockHist {
	var b blockHist
	for i := range b {
		b[i] = newHist()
	}
	return &b
}

// blockOf returns the block of operation i of n.
func blockOf(i, n int) int { return i * latencyBlocks / max(n, 1) }

func (b *blockHist) merge(o *blockHist) {
	for i := range b {
		b[i].merge(o[i])
	}
}

func (b *blockHist) count() uint64 {
	var n uint64
	for _, h := range b {
		n += h.n
	}
	return n
}

// quantile returns the median over blocks of each block's q-quantile, after
// merging runs of consecutive blocks until each holds minBlockSamples (a
// short remainder joins the last group). An empty histogram reports 0.
func (b *blockHist) quantile(q float64) int64 {
	var groups []*hist
	cur := newHist()
	for _, h := range b {
		cur.merge(h)
		if cur.n >= minBlockSamples {
			groups = append(groups, cur)
			cur = newHist()
		}
	}
	switch {
	case cur.n == 0:
	case len(groups) == 0:
		groups = append(groups, cur)
	default:
		groups[len(groups)-1].merge(cur)
	}
	if len(groups) == 0 {
		return 0
	}
	vals := make([]int64, len(groups))
	for i, g := range groups {
		vals[i] = g.quantile(q)
	}
	slices.Sort(vals)
	n := len(vals)
	return (vals[(n-1)/2] + vals[n/2]) / 2
}
