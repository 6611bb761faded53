package metrics

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/raceflag"
)

// bucketBounds returns the inclusive value range of a bucket: the
// layout's inverse of bucketIndex.
func bucketBounds(idx int) (lo, hi int64) {
	if idx < histSub {
		return int64(idx), int64(idx)
	}
	shift := idx/histSub - 1
	m := int64(idx - shift*histSub) // in [histSub, 2*histSub)
	return m << uint(shift), (m+1)<<uint(shift) - 1
}

// readOf is one read of h, for a test to inspect.
func readOf(h *Histogram) *histRead {
	r := new(histRead)
	r.add(h)
	return r
}

// TestHistogramBucketBoundaries pins the log-linear bucket layout:
// singleton buckets below 2*histSub, then 64 linear sub-buckets per
// power-of-two octave, with the documented index formula and clamping.
func TestHistogramBucketBoundaries(t *testing.T) {
	cases := []struct {
		v   int64
		idx int
	}{
		{0, 0},
		{-5, 0}, // negatives clamp to 0
		{1, 1},
		{63, 63},
		{64, 64},   // first octave starts, still singleton (shift 0)
		{127, 127}, // last singleton
		{128, 128}, // shift 1: bucket [128,129]
		{129, 128},
		{130, 129},
		{255, 191},
		{256, 192}, // shift 2: bucket [256,259]
		{259, 192},
		{260, 193},
		{1 << 20, 14*64 + 64},        // 2^20 ns: shift 14, mantissa 64
		{1<<62 + 1, histBuckets - 1}, // overflow clamps to last bucket
	}
	for _, c := range cases {
		if got := bucketIndex(c.v); got != c.idx {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.v, got, c.idx)
		}
	}
	// Bounds must tile: every bucket's hi+1 is the next bucket's lo, and
	// the index formula must be the inverse of the bounds, monotone.
	prevHi := int64(-1)
	for i := 0; i < histBuckets; i++ {
		lo, hi := bucketBounds(i)
		if lo != prevHi+1 {
			t.Fatalf("bucket %d: lo %d does not follow previous hi %d", i, lo, prevHi)
		}
		if hi < lo {
			t.Fatalf("bucket %d: hi %d < lo %d", i, hi, lo)
		}
		if got := bucketIndex(lo); got != i {
			t.Fatalf("bucketIndex(lo=%d) = %d, want %d", lo, got, i)
		}
		if got := bucketIndex(hi); got != i && i != histBuckets-1 {
			t.Fatalf("bucketIndex(hi=%d) = %d, want %d", hi, got, i)
		}
		// Relative width stays within 1/histSub above the linear range.
		if lo >= 2*histSub {
			if width := hi - lo + 1; float64(width)/float64(lo) > 1.0/histSub+1e-9 {
				t.Fatalf("bucket %d [%d,%d]: relative width %g too coarse", i, lo, hi, float64(hi-lo+1)/float64(lo))
			}
		}
		prevHi = hi
	}
}

// TestHistogramQuantiles pins the nearest-rank quantile math on an exact
// distribution (values 1..100 ns, all in singleton buckets).
func TestHistogramQuantiles(t *testing.T) {
	h := new(Histogram)
	if got := readOf(h).quantile(0.5); got != 0 {
		t.Fatalf("empty histogram quantile = %v, want 0", got)
	}
	for v := 1; v <= 100; v++ {
		h.Record(time.Duration(v))
	}
	r := readOf(h)
	if r.n != 100 {
		t.Fatalf("count = %d, want 100", r.n)
	}
	if r.sum != 5050 {
		t.Fatalf("sum = %d, want 5050", r.sum)
	}
	if r.max != 100 {
		t.Fatalf("max = %v, want 100", r.max)
	}
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{{0.50, 50}, {0.90, 90}, {0.99, 99}, {1.0, 100}, {0.01, 1}} {
		if got := r.quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

// TestHistogramDegenerateExact: when every observation is equal — the
// uncontended Figure 1 transaction — every quantile is the exact value,
// even when the value lands in a wide bucket. This is what lets A14
// print the paper's 2.56 ms at the median.
func TestHistogramDegenerateExact(t *testing.T) {
	h := new(Histogram)
	v := 2560 * time.Microsecond // 2.56 ms: a >1 µs-wide bucket
	lo, hi := bucketBounds(bucketIndex(int64(v)))
	if lo == hi {
		t.Fatalf("test value %v landed in a singleton bucket; pick a larger one", v)
	}
	for i := 0; i < 100; i++ {
		h.Record(v)
	}
	r := readOf(h)
	for _, q := range []float64{0.5, 0.9, 0.99, 1} {
		if got := r.quantile(q); got != v {
			t.Fatalf("Quantile(%v) = %v, want exactly %v", q, got, v)
		}
	}
	if mean := time.Duration(r.sum / int64(r.n)); mean != v {
		t.Fatalf("Mean = %v, want %v", mean, v)
	}
}

// TestHistogramBucketMeanBound: mixed values within one bucket report
// the bucket mean, which stays inside the bucket's bounds.
func TestHistogramBucketMeanBound(t *testing.T) {
	h := new(Histogram)
	idx := bucketIndex(1 << 20)
	lo, hi := bucketBounds(idx)
	h.Record(time.Duration(lo))
	h.Record(time.Duration(hi))
	got := readOf(h).quantile(0.5)
	if int64(got) < lo || int64(got) > hi {
		t.Fatalf("bucket-mean quantile %d outside bucket [%d,%d]", got, lo, hi)
	}
	if want := time.Duration((lo + hi) / 2); got != want {
		t.Fatalf("Quantile(0.5) = %v, want bucket mean %v", got, want)
	}
}

// TestHistogramConcurrentRecordsMatchReference: four goroutines record
// into one histogram at once; its count, sum, mean, maximum and every
// quantile must equal those of a sequential replay of the same values.
func TestHistogramConcurrentRecordsMatchReference(t *testing.T) {
	const writers, each = 4, 5000
	vals := make([][]time.Duration, writers)
	rng := rand.New(rand.NewSource(7))
	for w := range vals {
		for i := 0; i < each; i++ {
			// Singleton buckets, wide buckets and the clamped last one.
			vals[w] = append(vals[w], time.Duration(rng.Int63n(1<<uint(rng.Intn(44)+1))))
		}
	}
	h, ref := new(Histogram), new(Histogram)
	var wg sync.WaitGroup
	for w := range vals {
		wg.Add(1)
		go func(vs []time.Duration) {
			defer wg.Done()
			for _, v := range vs {
				h.Record(v)
			}
		}(vals[w])
	}
	wg.Wait()
	for _, vs := range vals {
		for _, v := range vs {
			ref.Record(v)
		}
	}
	got, want := readOf(h), readOf(ref)
	if got.n != writers*each || got.n != want.n || got.sum != want.sum || got.max != want.max {
		t.Fatalf("count/sum/max = %d/%d/%d, sequential %d/%d/%d", got.n, got.sum, got.max, want.n, want.sum, want.max)
	}
	if gm, wm := got.sum/int64(got.n), want.sum/int64(want.n); gm != wm {
		t.Fatalf("mean = %d, sequential %d", gm, wm)
	}
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
		if g, w := got.quantile(q), want.quantile(q); g != w {
			t.Errorf("Quantile(%v) = %v, sequential %v", q, g, w)
		}
	}
}

// TestHistogramRecordZeroAlloc: recording is a few atomic adds into the
// histogram's own buckets, never an allocation.
func TestHistogramRecordZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("AllocsPerRun counts the race detector's own allocations")
	}
	h := new(Histogram)
	v := time.Duration(0)
	if allocs := testing.AllocsPerRun(1000, func() { v += 997; h.Record(v) }); allocs != 0 {
		t.Fatalf("Record: %v allocs", allocs)
	}
}
