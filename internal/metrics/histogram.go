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

// Histogram is a fixed-bucket latency histogram with atomic recording.
type Histogram struct {
	counts [histBuckets]atomic.Uint64
	sums   [histBuckets]atomic.Int64
	count  atomic.Uint64
	sum    atomic.Int64
	max    atomic.Int64
	ex     exemplars
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

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

// bucketBounds returns the inclusive value range of a bucket.
func bucketBounds(idx int) (lo, hi int64) {
	if idx < histSub {
		return int64(idx), int64(idx)
	}
	shift := idx/histSub - 1
	m := int64(idx - shift*histSub) // in [histSub, 2*histSub)
	return m << uint(shift), (m+1)<<uint(shift) - 1
}

// Record adds one latency observation. Zero virtual cost; safe from any
// goroutine.
func (h *Histogram) Record(d vtime.Time) {
	if h == nil {
		return
	}
	v := int64(d)
	if v < 0 {
		v = 0
	}
	idx := bucketIndex(v)
	h.counts[idx].Add(1)
	h.sums[idx].Add(v)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the total of all observations.
func (h *Histogram) Sum() vtime.Time {
	if h == nil {
		return 0
	}
	return vtime.Time(h.sum.Load())
}

// Max returns the largest observation (0 when empty).
func (h *Histogram) Max() vtime.Time {
	if h == nil || h.count.Load() == 0 {
		return 0
	}
	return vtime.Time(h.max.Load())
}

// Mean returns the average observation (0 when empty).
func (h *Histogram) Mean() vtime.Time {
	if h == nil {
		return 0
	}
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return vtime.Time(h.sum.Load() / int64(n))
}

// Quantile returns the q-quantile (0 < q ≤ 1) by the nearest-rank
// method: the mean of the bucket containing rank ⌈q·n⌉. q=1 returns the
// exact maximum.
func (h *Histogram) Quantile(q float64) vtime.Time {
	if h == nil {
		return 0
	}
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	if q >= 1 {
		return h.Max()
	}
	if q < 0 {
		q = 0
	}
	rank := uint64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i := 0; i < histBuckets; i++ {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		cum += c
		if cum >= rank {
			return vtime.Time(h.sums[i].Load() / int64(c))
		}
	}
	return h.Max()
}
