package metrics

import (
	"math"
	"math/bits"
	"sync/atomic"

	"repro/internal/vtime"
)

// The histogram is HDR-style log-linear: values below 2^histSubBits
// nanoseconds land in singleton buckets, and every power-of-two octave
// above that is split into histSub linear sub-buckets, bounding the
// relative bucket width at 1/histSub (≈1.6%). With histMaxShift octaves
// the table covers latencies up to ~2^(histSubBits+1+histMaxShift) ns
// (≈38 virtual minutes); larger values clamp into the last bucket.
//
// Alongside each bucket's count the histogram keeps the bucket's value
// *sum*, so a quantile is reported as the mean of the bucket holding the
// target rank rather than a bucket boundary. For a degenerate
// distribution (every sample equal — e.g. the uncontended Figure 1
// transaction) the quantile is therefore exact, and in general the error
// is bounded by the bucket width.
const (
	histSubBits  = 6
	histSub      = 1 << histSubBits // 64 sub-buckets per octave
	histMaxShift = 34
	histBuckets  = (histMaxShift + 2) * histSub // 2304
)

// Histogram is a fixed-bucket latency histogram with atomic recording,
// empty at its zero value. A bucket's count and value sum sit side by
// side, so Record touches one cache line of buckets (a bucket is 16 bytes
// and the table starts the struct, which the allocator aligns); the totals
// are not kept but summed from the buckets on read, which only snapshots do.
type Histogram struct {
	buckets [histBuckets]bucket
	max     atomic.Int64
}

type bucket struct {
	count atomic.Uint64
	sum   atomic.Int64
}

// bucketIndex maps a nanosecond value to its bucket.
func bucketIndex(v int64) int {
	if v <= 0 {
		return 0
	}
	u := uint64(v)
	if u < histSub {
		return int(u)
	}
	shift := bits.Len64(u) - 1 - histSubBits
	idx := shift*histSub + int(u>>uint(shift))
	if idx >= histBuckets {
		return histBuckets - 1
	}
	return idx
}

// Record adds one latency observation. Zero virtual cost; safe from any
// goroutine.
func (h *Histogram) Record(d vtime.Time) {
	if h == nil {
		return
	}
	v := max(int64(d), 0)
	b := &h.buckets[bucketIndex(v)]
	b.count.Add(1)
	b.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// Count is how many observations h holds.
func (h *Histogram) Count() (n uint64) {
	for i := range h.buckets {
		n += h.buckets[i].count.Load()
	}
	return n
}

// histRead is a histogram as read — a copy of every bucket and the
// totals summed from it, or the sum or difference of several such — from
// which a snapshot computes every statistic it reports without reading
// the live buckets again.
type histRead struct {
	counts [histBuckets]uint64
	sums   [histBuckets]int64
	n      uint64
	sum    int64
	max    int64
}

// add adds h's buckets to r, reading each once; r's maximum becomes the
// larger.
func (r *histRead) add(h *Histogram) {
	r.max = max(r.max, h.max.Load())
	for i := range h.buckets {
		b := &h.buckets[i]
		c, s := b.count.Load(), b.sum.Load()
		r.counts[i] += c
		r.sums[i] += s
		r.n += c
		r.sum += s
	}
}

// merge adds o to r bucket by bucket, or with sign -1 subtracts it. The
// maximum is the larger either way: an emitter's never falls, so an
// earlier reading's is no larger than a later one's.
func (r *histRead) merge(o *histRead, sign int64) {
	for i := range o.counts {
		r.counts[i] += uint64(sign) * o.counts[i]
		r.sums[i] += sign * o.sums[i]
	}
	r.n += uint64(sign) * o.n
	r.sum += sign * o.sum
	r.max = max(r.max, o.max)
}

// quantile returns the q-quantile (0 < q ≤ 1) by the nearest-rank
// method: the mean of the bucket containing rank ⌈q·n⌉. q=1 returns the
// exact maximum.
func (r *histRead) quantile(q float64) vtime.Time {
	if r.n == 0 {
		return 0
	}
	if q >= 1 {
		return vtime.Time(r.max)
	}
	rank := max(uint64(math.Ceil(max(q, 0)*float64(r.n))), 1)
	var cum uint64
	for i, c := range r.counts {
		if c == 0 {
			continue
		}
		cum += c
		if cum >= rank {
			return vtime.Time(r.sums[i] / int64(c))
		}
	}
	return vtime.Time(r.max)
}
