package metrics

import (
	"sync"
	"time"

	"repro/internal/vtime"
)

// Sample is one sampler tick: the registry's counters and gauges as of
// virtual time At. Histograms and timelines are not carried per tick
// (they accumulate monotonically; the final snapshot has them), keeping
// the series compact.
type Sample struct {
	At       vtime.Time     `json:"at_us"`
	Counters []CounterPoint `json:"counters,omitempty"`
	Gauges   []GaugePoint   `json:"gauges,omitempty"`
}

// Total sums the sample's counters with the given name across labels.
func (s Sample) Total(name string) uint64 {
	var total uint64
	for _, c := range s.Counters {
		if c.Name == name {
			total += c.Value
		}
	}
	return total
}

// Sampler snapshots a registry on a fixed virtual-time tick. It has no
// clock of its own: like the chaos engine, it is pumped with AdvanceTo
// from whatever loop is driving virtual time (the workload driver's
// per-op hook, an experiment loop, or a retry observer), and emits one
// sample per tick boundary crossed. Under the sequential driver the
// registry is quiescent at every pump point, so the samples — and any
// document built from them — are deterministic.
type Sampler struct {
	reg  *Registry
	tick vtime.Time

	mu      sync.Mutex
	next    int64 // index of the next tick to emit (first tick at 1*tick)
	samples []Sample
}

// NewSampler returns a sampler taking one snapshot every tick of virtual
// time, starting at t=tick.
func NewSampler(reg *Registry, tick vtime.Time) *Sampler {
	if tick <= 0 {
		tick = 50 * time.Millisecond
	}
	return &Sampler{reg: reg, tick: tick, next: 1}
}

// Tick returns the sampling interval.
func (s *Sampler) Tick() vtime.Time {
	if s == nil {
		return 0
	}
	return s.tick
}

// AdvanceTo emits one sample per tick boundary at or before now that has
// not been emitted yet. Nil-safe.
func (s *Sampler) AdvanceTo(now vtime.Time) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for at := vtime.Time(s.next) * s.tick; at <= now; at = vtime.Time(s.next) * s.tick {
		sample := Sample{At: at}
		p := s.reg.read(true).points()
		sample.Counters, sample.Gauges = p.Counters, p.Gauges
		s.samples = append(s.samples, sample)
		s.next++
	}
}

// Samples returns the emitted samples in tick order.
func (s *Sampler) Samples() []Sample {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Sample, len(s.samples))
	copy(out, s.samples)
	return out
}

// SeriesPoint is one tick of a derived time-series: the delta of a
// counter total between consecutive samples (Value), or a gauge reading
// at the tick (for gauge-derived series).
type SeriesPoint struct {
	At    vtime.Time `json:"at_us"`
	Value int64      `json:"value"`
}

// CounterSeries derives the per-tick delta series of a counter name
// (summed across labels) from a sample sequence.
func CounterSeries(samples []Sample, name string) []SeriesPoint {
	out := make([]SeriesPoint, 0, len(samples))
	var prev uint64
	for _, s := range samples {
		cur := s.Total(name)
		out = append(out, SeriesPoint{At: s.At, Value: int64(cur - prev)})
		prev = cur
	}
	return out
}
