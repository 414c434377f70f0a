package main

import (
	"math/bits"
	"sync/atomic"
)

// hist is a fixed-size log-linear histogram of non-negative int64 samples
// (nanoseconds everywhere in this benchmark). Values below 64 are exact;
// above, every power-of-two octave is cut into 64 equal buckets, so a
// bucket is at most 1/64 of its value wide and a quantile, which lies inside
// the bucket that holds its rank, is within 1.6% of the exact one. add is one
// atomic increment: no lock, no allocation, safe from any number of
// goroutines — it runs on the program's job-record path (trace.Stream),
// which must not block.
type hist struct {
	n       atomic.Int64
	buckets [histBuckets]atomic.Int64
}

const (
	histSubBits = 6
	histSub     = 1 << histSubBits
	// 1 exact group + one group per octave from 2^6 up to 2^62.
	histBuckets = histSub * (63 - histSubBits + 1)
)

func histIndex(v int64) int {
	if v < histSub {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	shift := bits.Len64(uint64(v)) - 1 - histSubBits
	return (shift+1)*histSub + int(v>>uint(shift)) - histSub
}

// histBounds returns the lowest value of bucket i and the bucket's width.
func histBounds(i int) (low, width int64) {
	if i < histSub {
		return int64(i), 1
	}
	shift := uint(i/histSub - 1)
	return int64(i%histSub+histSub) << shift, int64(1) << shift
}

func (h *hist) add(v int64) { h.addN(v, 1) }

func (h *hist) addN(v, n int64) {
	h.buckets[histIndex(v)].Add(n)
	h.n.Add(n)
}

func (h *hist) count() int64 { return h.n.Load() }

// merge adds o's samples to h.
func (h *hist) merge(o *hist) {
	for i := range o.buckets {
		if n := o.buckets[i].Load(); n != 0 {
			h.buckets[i].Add(n)
		}
	}
	h.n.Add(o.n.Load())
}

// quantile returns the value at rank ceil(q*n) (q in (0,1]); 0 when empty.
// Inside the bucket that holds the rank it interpolates linearly, as if the
// bucket's samples were spread evenly over it: a latency that sits in one
// bucket run after run still reads differently as the counts shift.
func (h *hist) quantile(q float64) int64 {
	n := h.count()
	if n == 0 {
		return 0
	}
	rank := int64(q * float64(n))
	if float64(rank) < q*float64(n) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i := range h.buckets {
		c := h.buckets[i].Load()
		if seen+c >= rank {
			low, width := histBounds(i)
			return low + int64(float64(width)*(float64(rank-seen)-0.5)/float64(c))
		}
		seen += c
	}
	return 0 // not reached: the buckets hold n samples
}

// histCut remembers the bucket counts of a histogram at its last cut.
type histCut [histBuckets]int64

// medianSince returns the median of the samples added to h since the
// previous call with the same cut (since h was empty, the first time), and
// how many there were: the histogram of one measuring window, read off a
// histogram that is never reset, because workers are adding to it while the
// driver cuts. 0 when no sample was added.
func (h *hist) medianSince(cut *histCut) (median, n int64) {
	var diff histCut
	for i := range h.buckets {
		c := h.buckets[i].Load()
		diff[i] = c - cut[i]
		cut[i] = c
		n += diff[i]
	}
	rank := (n + 1) / 2
	var seen int64
	for i, c := range diff {
		if c > 0 && seen+c >= rank {
			low, width := histBounds(i)
			return low + int64(float64(width)*(float64(rank-seen)-0.5)/float64(c)), n
		}
		seen += c
	}
	return 0, 0
}

// tail picks the percentile the sample supports: the highest of p99 and
// p90 that leaves at least tailBeyond samples beyond it, else the median.
func (h *hist) tail() (q float64, v int64) {
	n := float64(h.count())
	for _, q := range []float64{0.99, 0.90} {
		if n*(1-q) >= tailBeyond {
			return q, h.quantile(q)
		}
	}
	return 0.50, h.quantile(0.50)
}

// tailBeyond is twice the ten samples the metrics guide asks for at least.
// With ten, os_reconfig10k's 105 transactions per repetition supported a
// p90 — which sits where the one transaction in ten that meets a GC cycle
// head-on begins (12ms below, 25ms above) and flipped between the two from
// one repetition to the next.
const tailBeyond = 20
