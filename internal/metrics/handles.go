package metrics

import "sync/atomic"

// Handles is one emitter's resolved series: the instruments it looked up
// in a registry, kept by a small integer key of its choosing (a protocol
// op code, an event number), so that an event costs what it records and
// not the hashing of its labels. T is what the emitter records into per
// key: a *Histogram, a *Counter.
//
// What is held belongs to the registry it came from: under any other,
// Resolve looks up again and starts afresh, which is how a handle follows
// SetMetrics swapping or removing the registry. A series is still created
// by the first event that names it, so a snapshot lists what it listed
// when every event did its own lookup. The zero value is ready and safe
// for concurrent use: a lock-free list, all of one registry, short.
type Handles[T any] struct{ head atomic.Pointer[handle[T]] }

type handle[T any] struct {
	reg  *Registry
	key  uint16
	val  T
	next *handle[T]
}

// Resolve returns what the emitter holds for key under reg, calling
// lookup — its by-label lookups in reg — the first time it is asked. With
// no registry that is the zero T: nil instruments, which accept any call.
func (h *Handles[T]) Resolve(reg *Registry, key uint16, lookup func() T) (v T) {
	if reg == nil {
		return v
	}
	for n := h.head.Load(); n != nil && n.reg == reg; n = n.next {
		if n.key == key {
			return n.val
		}
	}
	// Racing resolvers of one key each push what the registry gave them,
	// which is the same instruments.
	n := &handle[T]{reg: reg, key: key, val: lookup()}
	for {
		old := h.head.Load()
		if n.next = old; old != nil && old.reg != reg {
			n.next = nil
		}
		if h.head.CompareAndSwap(old, n) {
			return n.val
		}
	}
}

// Published is the counts one emitter keeps, each read by its counter
// series in every registry the emitter's events see. The zero value is
// ready and safe for concurrent use.
type Published struct{ h Handles[*Counter] }

// Publish is called by an event before it bumps src, the emitter's count
// key: the first such event under reg makes reg's counter name{l} read
// src, so the series counts the events from that one on.
func (p *Published) Publish(reg *Registry, key uint16, name string, l Labels, src Source) {
	p.h.Resolve(reg, key, func() *Counter {
		c := reg.Counter(name, l)
		c.Read(src)
		return c
	})
}

// CounterIn is Resolve for an emitter's one counter of that name and
// labels, looked up once per registry and held in h.
func CounterIn(h *Handles[*Counter], reg *Registry, name string, l Labels) *Counter {
	return h.Resolve(reg, 0, func() *Counter { return reg.Counter(name, l) })
}
