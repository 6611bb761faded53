// Package metrics is the virtual-time observability registry: atomic
// counters, gauges, fixed-bucket latency histograms and up/down state
// timelines keyed by a small label set. Like the tracer (PROTOCOL.md
// §9), every instrument charges zero virtual time — recording never
// touches a process clock, so a fully instrumented run is byte-identical
// to an uninstrumented one in every virtual-time result. The registry is
// safe for concurrent use from real goroutines, and the instruments
// themselves are plain atomics.
//
// The registry reads; emitters count. Every count the modelled system
// makes, on a request's success or failure path, is an instrument its
// emitter keeps and adds once to its kernel's or network's Catalogue. A
// registry counts what happens while it is installed, from
// SetMetrics(reg) until SetMetrics(other or nil). Only what stands
// outside the modelled system, the chaos engine, keeps series of the
// registry's own, looked up by label in the one installed.
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
	"cmp"
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

type instKey struct {
	name   string
	labels Labels
}

// less orders keys deterministically for snapshot output.
func (k instKey) less(o instKey) bool {
	a, b := k.labels, o.labels
	return cmp.Or(cmp.Compare(k.name, o.name), cmp.Compare(a.Server, b.Server), cmp.Compare(a.Op, b.Op),
		cmp.Compare(a.Host, b.Host), cmp.Compare(a.Class, b.Class)) < 0
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

// Counter is a monotonically increasing count: one atomic, whose methods
// are nil-safe no-ops on a nil *Counter.
type Counter struct{ v atomic.Uint64 }

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
	return c.v.Load()
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

// Registry holds its own instruments, one table per kind under one lock,
// and reads the catalogues it is installed on. A by-label lookup takes
// the lock; an emitter on a hot path keeps its instruments and does not
// look up at all.
type Registry struct {
	mu        sync.Mutex
	lookups   uint64 // by-label lookups served; see Lookups
	counters  map[instKey]*Counter
	gauges    map[instKey]GaugePoint
	hists     map[instKey]*Histogram
	timelines map[instKey]*Timeline
	tallies   []*tally // what it counted of each catalogue it was installed on
}

// New returns an empty registry.
func New() *Registry { return &Registry{} }

// Lookups returns how many by-label lookups (Counter, Histogram,
// Timeline) the registry has served. An emitter on a hot path keeps its
// instruments, so a steady-state run leaves the count where it was
// (rig.TestSteadyStateResolvesNoSeries).
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
	return lookup(r, &r.counters, instKey{name, l})
}

// SetGauges sets every gauge in points, volatile if the point says so,
// under one hold of the lock. It is the write side of Snapshot().Gauges, for publishers of a few
// hundred gauges at a time (namestat.Publish).
func (r *Registry) SetGauges(points []GaugePoint) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.gauges == nil {
		r.gauges = make(map[instKey]GaugePoint)
	}
	for _, p := range points {
		r.gauges[instKey{p.Name, p.Labels}] = p
	}
}

// Histogram returns (creating if needed) the named latency histogram.
func (r *Registry) Histogram(name string, l Labels) *Histogram {
	if r == nil {
		return nil
	}
	return lookup(r, &r.hists, instKey{name, l})
}

// Timeline returns (creating if needed) the named state timeline.
func (r *Registry) Timeline(name string, l Labels) *Timeline {
	if r == nil {
		return nil
	}
	return lookup(r, &r.timelines, instKey{name, l})
}

// lookup is one by-label lookup in table: k's instrument, made if the
// table lacks it.
func lookup[V any](r *Registry, table *map[instKey]*V, k instKey) *V {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lookups++
	if v, ok := (*table)[k]; ok {
		return v
	}
	if *table == nil {
		*table = make(map[instKey]*V)
	}
	v := new(V)
	(*table)[k] = v
	return v
}

// tallyOf returns what r has counted of c, made at r's first install on c.
func (r *Registry) tallyOf(c *Catalogue) *tally {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, t := range r.tallies {
		if t.cat == c {
			return t
		}
	}
	t := &tally{reg: r, cat: c, adj: reading{}}
	r.tallies = append(r.tallies, t)
	return t
}

// read is what r lists: its own instruments and what it counted of its
// catalogues — their histograms too unless levels — summed under each
// key.
func (r *Registry) read(levels bool) reading {
	out := reading{}
	if r == nil {
		return out
	}
	r.mu.Lock()
	for k, c := range r.counters {
		out.at(k, kindCounter, true).n += c.v.Load()
	}
	for k, g := range r.gauges {
		v := out.at(k, kindGauge, true)
		v.n, v.volatile = uint64(g.Value), g.Volatile
	}
	for k, h := range r.hists {
		out.at(k, kindHist, true).addHist(h)
	}
	for k, t := range r.timelines {
		out.at(k, kindTimeline, true).points = t.Points()
	}
	tallies := r.tallies
	r.mu.Unlock()
	for _, t := range tallies {
		t.cat.counted(t, levels, out)
	}
	return out
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

// Snapshot captures the registry: its own instruments and what it reads
// of its catalogues.
func (r *Registry) Snapshot() Snapshot { return r.read(false).points() }

// points lists m in (name, labels) order.
func (m reading) points() (s Snapshot) {
	keys := make([]instKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].less(keys[j]) })
	for _, k := range keys {
		switch v := m[k]; v.kind {
		case kindCounter:
			s.Counters = append(s.Counters, CounterPoint{k.name, k.labels, v.n})
		case kindGauge:
			s.Gauges = append(s.Gauges, GaugePoint{k.name, k.labels, int64(v.n), v.volatile})
		case kindTimeline:
			s.Timelines = append(s.Timelines, TimelineSeries{k.name, k.labels, v.points})
		default:
			p := HistPoint{Name: k.name, Labels: k.labels}
			if hr := v.h; hr != nil {
				p.Count, p.SumUS, p.MaxUS = hr.n, us(vtime.Time(hr.sum)), us(vtime.Time(hr.max))
				p.P50US, p.P90US, p.P99US = us(hr.quantile(0.50)), us(hr.quantile(0.90)), us(hr.quantile(0.99))
			}
			s.Histograms = append(s.Histograms, p)
		}
	}
	return s
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
