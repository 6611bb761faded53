// Package metrics is the virtual-time observability registry: atomic
// counters, gauges, fixed-bucket latency histograms and up/down state
// timelines keyed by a small label set. Like the tracer (PROTOCOL.md
// §9), every instrument charges zero virtual time — recording never
// touches a process clock, so a fully instrumented run is byte-identical
// to an uninstrumented one in every virtual-time result. The registry is
// safe for concurrent use from real goroutines: it is one locked table,
// an emitter on a hot path holds its series as Handles — the one fast
// path — and the instruments themselves are plain atomics. A count an
// emitter keeps already is not mirrored: its counter series reads it
// (Counter.Read).
//
// Determinism contract: an instrument update is reproducible (safe to
// include in golden-pinned output) only when it is ordered before the
// workload driver's next step — i.e. it happens on the driving client's
// goroutine, or on a server goroutine before the reply that unblocks the
// client is delivered. Updates that depend on wall-clock behavior (GC,
// goroutine scheduling) are registered as *volatile* and excluded from
// deterministic documents; they still appear on live surfaces (vstat,
// vsh stats, the Prometheus writer).
package metrics

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/vtime"
)

// Labels is the fixed label set. It is a comparable value so it can key
// instrument maps directly without per-lookup allocation. Unused fields
// stay empty.
type Labels struct {
	Server string `json:"server,omitempty"` // serving process name, e.g. "fs1"
	Op     string `json:"op,omitempty"`     // protocol op, e.g. "CreateInstance"
	Host   string `json:"host,omitempty"`   // host name, e.g. "ws-mann"
	Class  string `json:"class,omitempty"`  // failure / event class
}

// less orders labels deterministically for snapshot output.
func (l Labels) less(o Labels) bool {
	if l.Server != o.Server {
		return l.Server < o.Server
	}
	if l.Op != o.Op {
		return l.Op < o.Op
	}
	if l.Host != o.Host {
		return l.Host < o.Host
	}
	return l.Class < o.Class
}

type instKey struct {
	name   string
	labels Labels
}

func (k instKey) less(o instKey) bool {
	if k.name != o.name {
		return k.name < o.name
	}
	return k.labels.less(o.labels)
}

// Stable returns a torn-read-resistant result of load, a function that
// reads a set of atomic counters one field at a time: the whole set is
// re-read until two consecutive passes agree (bounded, falling back to
// the last read under sustained traffic), so a mid-run reader never sees
// one counter of a pair bumped and not the other.
func Stable[T comparable](load func() T) T {
	prev := load()
	for i := 0; i < 3; i++ {
		cur := load()
		if cur == prev {
			return cur
		}
		prev = cur
	}
	return prev
}

// Counter is a monotonically increasing count: what is added to it, plus
// what the sources it reads count. All methods are nil-safe no-ops so
// instrument sites need no registry-presence checks.
type Counter struct {
	v     atomic.Uint64
	reads atomic.Pointer[[]read] // copy-on-write
}

// A Source is a count its emitter keeps, which a counter series reads
// instead of counting each event again (Counter.Read). It is comparable,
// so one source is read once; a *Counter is one.
type Source interface{ Value() uint64 }

// read is a published source and what it had counted at publication.
type read struct {
	src  Source
	base uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	v := c.v.Load()
	if rs := c.reads.Load(); rs != nil {
		for _, r := range *rs {
			v += r.src.Value() - r.base
		}
	}
	return v
}

// Read makes c read src from now on: c counts what src counts after this
// call, beside whatever else it counts. Reading a source again adds
// nothing.
func (c *Counter) Read(src Source) {
	for c != nil {
		p := c.reads.Load()
		var rs []read
		if p != nil {
			if slices.ContainsFunc(*p, func(r read) bool { return r.src == src }) {
				return
			}
			rs = *p
		}
		rs = append(rs[:len(rs):len(rs)], read{src, src.Value()})
		if c.reads.CompareAndSwap(p, &rs) {
			return
		}
	}
}

// Gauge is an instantaneous atomic value.
type Gauge struct {
	v        atomic.Int64
	volatile bool
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adds delta (negative to decrement).
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// StatePoint is one transition on a Timeline: at virtual time At the
// tracked state became Value.
type StatePoint struct {
	At    vtime.Time `json:"at_us"`
	Value int64      `json:"value"`
}

// Timeline records a small sequence of state transitions with exact
// virtual timestamps — used for host up/down state, from which the
// health report derives availability windows. The zero state (before the
// first point) is implicitly "up" (1).
type Timeline struct {
	mu     sync.Mutex
	points []StatePoint
}

// Mark appends a transition. Consecutive equal values collapse.
func (t *Timeline) Mark(at vtime.Time, value int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if n := len(t.points); n > 0 && t.points[n-1].Value == value {
		return
	}
	t.points = append(t.points, StatePoint{At: at, Value: value})
}

// Points returns a copy of the transitions in record order.
func (t *Timeline) Points() []StatePoint {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]StatePoint, len(t.points))
	copy(out, t.points)
	return out
}

// Registry holds the instruments: one table per kind under one lock. A
// by-label lookup takes the lock; an emitter on a hot path holds its
// series as Handles and does not look up at all.
type Registry struct {
	mu        sync.Mutex
	lookups   uint64 // by-label lookups served; see Lookups
	counters  map[instKey]*Counter
	gauges    map[instKey]*Gauge
	hists     map[instKey]*Histogram
	timelines map[instKey]*Timeline
}

// New returns an empty registry.
func New() *Registry { return &Registry{} }

// Lookups returns how many by-label lookups (Counter, Gauge, Histogram,
// Timeline) the registry has served. An emitter on a
// hot path holds its series as Handles, so a steady-state run leaves the
// count where it was (rig.TestSteadyStateResolvesNoSeries).
func (r *Registry) Lookups() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lookups
}

// Counter returns (creating if needed) the named counter.
func (r *Registry) Counter(name string, l Labels) *Counter {
	if r == nil {
		return nil
	}
	return lookup(r, &r.counters, instKey{name, l}, func() *Counter { return &Counter{} })
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string, l Labels) *Gauge {
	if r == nil {
		return nil
	}
	return lookup(r, &r.gauges, instKey{name, l}, func() *Gauge { return &Gauge{} })
}

// SetGauges sets every gauge in points, creating the ones the registry
// lacks — volatile if the point says so — under one hold of the lock. It
// is the write side of Snapshot().Gauges, for publishers of a few
// hundred gauges at a time (namestat.Publish).
func (r *Registry) SetGauges(points []GaugePoint) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, p := range points {
		get(&r.gauges, instKey{p.Name, p.Labels}, func() *Gauge { return &Gauge{volatile: p.Volatile} }).Set(p.Value)
	}
}

// Histogram returns (creating if needed) the named latency histogram.
func (r *Registry) Histogram(name string, l Labels) *Histogram {
	if r == nil {
		return nil
	}
	return lookup(r, &r.hists, instKey{name, l}, NewHistogram)
}

// Timeline returns (creating if needed) the named state timeline.
func (r *Registry) Timeline(name string, l Labels) *Timeline {
	if r == nil {
		return nil
	}
	return lookup(r, &r.timelines, instKey{name, l}, func() *Timeline { return &Timeline{} })
}

// lookup is one by-label lookup in table: k's instrument, made if the
// table lacks it.
func lookup[V any](r *Registry, table *map[instKey]*V, k instKey, mk func() *V) *V {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lookups++
	return get(table, k, mk)
}

// get returns k's instrument in table, made if missing; r.mu is held.
func get[V any](table *map[instKey]*V, k instKey, mk func() *V) *V {
	if v, ok := (*table)[k]; ok {
		return v
	}
	if *table == nil {
		*table = make(map[instKey]*V)
	}
	v := mk()
	(*table)[k] = v
	return v
}

// CounterPoint is one counter in a snapshot.
type CounterPoint struct {
	Name   string `json:"name"`
	Labels Labels `json:"labels"`
	Value  uint64 `json:"value"`
}

// GaugePoint is one gauge in a snapshot.
type GaugePoint struct {
	Name     string `json:"name"`
	Labels   Labels `json:"labels"`
	Value    int64  `json:"value"`
	Volatile bool   `json:"-"`
}

// HistPoint is one histogram in a snapshot. Durations are microseconds
// of virtual time (exact: every cost model constant is a whole number of
// microseconds).
type HistPoint struct {
	Name   string `json:"name"`
	Labels Labels `json:"labels"`
	Count  uint64 `json:"count"`
	SumUS  int64  `json:"sum_us"`
	P50US  int64  `json:"p50_us"`
	P90US  int64  `json:"p90_us"`
	P99US  int64  `json:"p99_us"`
	MaxUS  int64  `json:"max_us"`
	// Exemplars link buckets to retained trace span ids (exemplar.go).
	// Span ids are interleaving-dependent, so they are excluded from the
	// JSON rendering — deterministic documents stay byte-identical.
	Exemplars []Exemplar `json:"-"`
}

// TimelineSeries is one state timeline in a snapshot.
type TimelineSeries struct {
	Name   string       `json:"name"`
	Labels Labels       `json:"labels"`
	Points []StatePoint `json:"points"`
}

// Snapshot is a consistent-enough, deterministically ordered view of the
// registry: instruments sorted by (name, labels). Each instrument value
// is read atomically; the set as a whole is not a global atomic cut,
// which is fine for the sequential driver (no update is in flight when
// the driver samples) and for live surfaces (which only need freshness).
type Snapshot struct {
	Counters   []CounterPoint   `json:"counters,omitempty"`
	Gauges     []GaugePoint     `json:"gauges,omitempty"`
	Histograms []HistPoint      `json:"histograms,omitempty"`
	Timelines  []TimelineSeries `json:"timelines,omitempty"`
}

// Snapshot captures the registry.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	s.Counters, s.Gauges = r.levels()
	r.mu.Lock()
	defer r.mu.Unlock()
	var hr histRead
	for k, h := range r.hists {
		h.read(&hr)
		s.Histograms = append(s.Histograms, HistPoint{
			Name:      k.name,
			Labels:    k.labels,
			Count:     hr.n,
			SumUS:     us(vtime.Time(hr.sum)),
			P50US:     us(hr.quantile(0.50)),
			P90US:     us(hr.quantile(0.90)),
			P99US:     us(hr.quantile(0.99)),
			MaxUS:     us(vtime.Time(hr.max)),
			Exemplars: h.Exemplars(),
		})
	}
	sort.Slice(s.Histograms, func(i, j int) bool {
		return instKey{s.Histograms[i].Name, s.Histograms[i].Labels}.less(instKey{s.Histograms[j].Name, s.Histograms[j].Labels})
	})
	for k, t := range r.timelines {
		s.Timelines = append(s.Timelines, TimelineSeries{Name: k.name, Labels: k.labels, Points: t.Points()})
	}
	sort.Slice(s.Timelines, func(i, j int) bool {
		return instKey{s.Timelines[i].Name, s.Timelines[i].Labels}.less(instKey{s.Timelines[j].Name, s.Timelines[j].Labels})
	})
	return s
}

// levels captures the counters and gauges alone — all a sampler tick
// keeps — without pricing every histogram's quantiles.
func (r *Registry) levels() (counters []CounterPoint, gauges []GaugePoint) {
	if r == nil {
		return nil, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.counters != nil {
		counters = make([]CounterPoint, 0, len(r.counters))
	}
	for k, c := range r.counters {
		counters = append(counters, CounterPoint{Name: k.name, Labels: k.labels, Value: c.Value()})
	}
	sort.Slice(counters, func(i, j int) bool {
		return instKey{counters[i].Name, counters[i].Labels}.less(instKey{counters[j].Name, counters[j].Labels})
	})
	if r.gauges != nil {
		gauges = make([]GaugePoint, 0, len(r.gauges))
	}
	for k, g := range r.gauges {
		gauges = append(gauges, GaugePoint{Name: k.name, Labels: k.labels, Value: g.Value(), Volatile: g.volatile})
	}
	sort.Slice(gauges, func(i, j int) bool {
		return instKey{gauges[i].Name, gauges[i].Labels}.less(instKey{gauges[j].Name, gauges[j].Labels})
	})
	return counters, gauges
}

// Deterministic strips volatile gauges, leaving only series that are
// reproducible across runs (safe to golden-pin).
func (s Snapshot) Deterministic() Snapshot {
	out := Snapshot{Counters: append([]CounterPoint(nil), s.Counters...), Histograms: s.Histograms, Timelines: s.Timelines}
	for _, g := range s.Gauges {
		if !g.Volatile {
			out.Gauges = append(out.Gauges, g)
		}
	}
	return out
}

// us converts a virtual duration to whole microseconds.
func us(d vtime.Time) int64 { return int64(d / 1000) }
