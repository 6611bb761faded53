package metrics

import (
	"sync"
	"sync/atomic"
)

// Catalogue is the series a set of emitters keep — a kernel's, a
// network's — and the registry installed to read them. An emitter adds
// its series once and counts into its own instruments; a registry counts
// what happens while it is installed. Install takes one reading of every
// series, which is both the outgoing registry's final value and the
// incoming one's base, so an event lands in exactly one registry even
// while a swap races it.
type Catalogue struct {
	mu     sync.Mutex
	series []func(*Reading)
	on     atomic.Pointer[tally]
}

// tally is what one registry has counted of one catalogue. Installed, it
// reads the series plus adj, which is what it counted before less the
// base it was installed at; removed, adj is all it counted.
type tally struct {
	reg *Registry
	cat *Catalogue
	adj reading
}

// Add registers an emitter's series: read hands each to a reading.
func (c *Catalogue) Add(read func(*Reading)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.series = append(c.series, read)
}

// Registry returns the installed registry, or nil: one atomic load.
func (c *Catalogue) Registry() *Registry {
	if t := c.on.Load(); t != nil {
		return t.reg
	}
	return nil
}

// Install installs reg in place of the registry installed, or with nil
// removes it.
func (c *Catalogue) Install(reg *Registry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.Registry() == reg {
		return
	}
	now := c.read(false)
	if old := c.on.Load(); old != nil {
		old.adj.add(now, 1)
	}
	var t *tally
	if reg != nil {
		t = reg.tallyOf(c)
		t.adj.add(now, -1)
	}
	c.on.Store(t)
}

// read takes one reading of every series, the histograms too unless
// levels; c.mu is held.
func (c *Catalogue) read(levels bool) reading {
	r := Reading{levels, reading{}}
	for _, f := range c.series {
		f(&r)
	}
	return r.m
}

// counted adds to out what t's registry counted of the catalogue.
func (c *Catalogue) counted(t *tally, levels bool, out reading) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.on.Load() != t {
		out.add(t.adj, 1)
		return
	}
	now := c.read(levels)
	for k, v := range now {
		if a := t.adj[k]; a != nil {
			v.add(a, 1)
		}
	}
	out.add(now, 1)
}

// Reading is one reading of a catalogue's series, which each emitter's
// read function fills.
type Reading struct {
	levels bool // counters and gauges alone: a sampler tick
	m      reading
}

// Counter reads a count its emitter keeps. A registry lists it once the
// count moves while installed, or from its install if always; a count
// still at zero offers no row, since counts never fall.
func (r *Reading) Counter(name string, l Labels, n uint64, always bool) {
	if n == 0 && !always {
		return
	}
	r.m.at(instKey{name, l}, kindCounter, always).n += n
}

// Gauge reads a level its emitter keeps: listed from install, at its
// change since.
func (r *Reading) Gauge(name string, l Labels, v int64) {
	r.m.at(instKey{name, l}, kindGauge, true).n += uint64(v)
}

// Histogram reads h. A registry lists it once h records while installed,
// or from its install if always.
func (r *Reading) Histogram(name string, l Labels, h *Histogram, always bool) {
	if !r.levels {
		r.m.at(instKey{name, l}, kindHist, always).addHist(h)
	}
}

type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindHist
	kindTimeline
)

// value is one series as read: a count, a level in two's complement, a
// histogram's buckets (nil while it holds none), or a timeline's points.
type value struct {
	kind     kind
	always   bool // listed even while it has not moved
	volatile bool
	n        uint64
	h        *histRead
	points   []StatePoint
}

// add adds o to v, or with sign -1 subtracts it.
func (v *value) add(o *value, sign int64) {
	v.n += uint64(sign) * o.n
	if o.h != nil {
		if v.h == nil {
			v.h = new(histRead)
		}
		v.h.merge(o.h, sign)
	}
}

// addHist adds h's buckets to v, which holds none until h holds one.
func (v *value) addHist(h *Histogram) {
	if v.h == nil {
		if h.Count() == 0 {
			return
		}
		v.h = new(histRead)
	}
	v.h.add(h)
}

// reading is series by key. Emitters under one key are summed: counts
// add, and so do histogram buckets, in any order; a histogram's maximum,
// which cannot be subtracted, is the largest of its emitters'.
type reading map[instKey]*value

func (m reading) at(k instKey, kd kind, always bool) *value {
	v := m[k]
	if v == nil {
		v = &value{kind: kd}
		m[k] = v
	}
	v.always = v.always || always
	return v
}

// add adds o to m, or with sign -1 subtracts it, dropping the series
// that end up neither moved nor always listed.
func (m reading) add(o reading, sign int64) {
	for k, ov := range o {
		v := m.at(k, ov.kind, ov.always)
		v.add(ov, sign)
		if !v.always && v.n == 0 && (v.h == nil || v.h.n == 0) {
			delete(m, k)
		}
	}
}

// PerOp is an emitter's instruments of one series, one per op code, each
// made by the first event of its op and kept for the emitter's life. The
// zero value is ready and safe for concurrent use: a lock-free list, as
// short as the emitter has ops.
type PerOp[T any] struct{ head atomic.Pointer[opEntry[T]] }

type opEntry[T any] struct {
	v    T // first, so a histogram's buckets start the allocation
	op   uint16
	next *opEntry[T]
}

// Get returns op's instrument.
func (p *PerOp[T]) Get(op uint16) *T {
	for {
		head := p.head.Load()
		for e := head; e != nil; e = e.next {
			if e.op == op {
				return &e.v
			}
		}
		e := &opEntry[T]{op: op, next: head}
		if p.head.CompareAndSwap(head, e) {
			return &e.v
		}
	}
}

// Each calls f with every op's instrument.
func (p *PerOp[T]) Each(f func(op uint16, v *T)) {
	for e := p.head.Load(); e != nil; e = e.next {
		f(e.op, &e.v)
	}
}
