// Package lease is the one implementation of lease-coherent name
// caching (PROTOCOL.md §13), instantiated at every tier of the cache
// hierarchy: client.Session holds leases, ncache.Tier holds them upstream
// and grants sub-leases downstream, prefix.Server grants them. Only this
// package knows the lease wire encoding — the lease-flagged bare-prefix
// MapContext, the stamped reply, the OpCacheInvalidate callback — and the
// expiry rule: an entry is valid strictly before its Expire.
//
// The holder side is a Cache; the granter side is Wanted, Grant and
// Holders; a Meter shared by both is the naming plane's one emit path:
// each lease event, and each naming event at the prefix server, is a row
// of its table, which alone says what the event counts (its series),
// journals (the flight recorder), traces and ticks in the sketch.
//
// The paper's §2.2 strawman — cache a resolution and trust it until a
// use fails — is the degenerate policy of the same mechanism: a Cache
// with no callback process asks for no lease, so what it stores is
// unstamped (Expire == Never), no server will ever call back about it,
// and only its holder's own failures (or a blind Flush) remove it.
package lease

import (
	"math"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/namestat"
	"repro/internal/proto"
	"repro/internal/trace"
)

// Never is the expiry of an unstamped entry, and the upstream bound of a
// granter that is itself the authority.
const Never = time.Duration(math.MaxInt64)

// Entry is one cached resolution. A Negative entry records the absence of
// the name: lookups are answered locally until the lease expires or a
// define invalidates it.
type Entry struct {
	Pair     core.ContextPair
	Grant    time.Duration // holder-observed grant time
	Expire   time.Duration // absolute virtual-time expiry; Never if unstamped
	Negative bool
}

// Stamped reports whether a granting server bounded e and will call back
// about it.
func (e Entry) Stamped() bool { return e.Expire != Never }

// Event is one thing that happens to a lease, on either side of the
// protocol, or to a name at the prefix server that grants them. Each
// is a row of the events table.
type Event uint8

const (
	Hit             Event = iota // holder: served from a valid entry
	NegativeHit                  // holder: known-absent name answered locally
	Miss                         // holder: no entry, resolve upstream
	Renewal                      // holder: entry lapsed, dropped, revalidate
	Acquired                     // holder: stored the answer to a Miss
	Renewed                      // holder: stored the answer to a Renewal
	Invalidation                 // holder: callback dropped the entry
	Stale                        // holder: cached server gone before any callback
	Granted                      // granter: first positive stamp of a name
	Regranted                    // granter: positive stamp of a name leased before
	GrantedNegative              // granter: NotFound stamp
	Commit                       // granter: a binding change committed
	Notified                     // granter: holders that acknowledged a Commit
	Resolved                     // prefix server: a [prefix] name interpreted
	Forwarded                    // prefix server: a request rewritten and passed on
	DeadTarget                   // prefix server: a dynamic binding's target is dead
	Rebound                      // prefix server: a dynamic binding moved to a new pid
	Redefined                    // prefix server: a binding defined, deleted or modified
	numEvents
)

// events says what each Event records.
var events = [numEvents]struct {
	metric  string      // counter series; "" counts nothing
	noClass bool        // the series is labelled {server}, not {server, class}
	span    string      // trace lease-event name; "" records none
	stamp   bool        // the span carries the entry's grant/expire stamp
	kind    flight.Kind // flight-journal record; 0 records none
	detail  string
	sketch  func(*namestat.TopK, string, time.Duration) // estimator ticked; nil none
}{
	Hit:             {metric: "lease_hits_total", span: "hit", stamp: true},
	NegativeHit:     {metric: "lease_negative_hits_total", span: "negative-hit", stamp: true},
	Miss:            {metric: "lease_misses_total"},
	Renewal:         {metric: "lease_renewals_total", span: "expired", stamp: true, kind: flight.KindLeaseRenew, detail: "expired"},
	Acquired:        {metric: "lease_acquired_total", span: "grant", stamp: true},
	Renewed:         {metric: "lease_renewed_total", span: "renew", stamp: true},
	Invalidation:    {metric: "lease_invalidations_total", span: "callback", kind: flight.KindInvalidate, detail: "callback"},
	Stale:           {metric: "lease_stale_total", kind: flight.KindFailover, detail: "stale"},
	Granted:         {metric: "lease_grants_total", span: "grant", stamp: true, kind: flight.KindLeaseGrant},
	Regranted:       {metric: "lease_regrants_total", span: "grant", stamp: true, kind: flight.KindLeaseRenew, sketch: (*namestat.TopK).ObserveRenewal},
	GrantedNegative: {metric: "lease_negative_grants_total", span: "grant", stamp: true, kind: flight.KindLeaseGrant, detail: "negative"},
	Commit:          {metric: "lease_commits_total", span: "invalidate"},
	Notified:        {metric: "lease_holders_notified_total"},
	Resolved:        {kind: flight.KindResolution, sketch: (*namestat.TopK).ObserveResolution},
	Forwarded:       {metric: "prefix_forwards_total", noClass: true, kind: flight.KindForward},
	DeadTarget:      {metric: "prefix_dead_targets_total", noClass: true, kind: flight.KindFailover, detail: "dead-target"},
	Rebound:         {metric: "prefix_rebinds_total", noClass: true, kind: flight.KindFailover, detail: "rebind"},
	Redefined:       {kind: flight.KindRedefine, sketch: (*namestat.TopK).ObserveRedefinition},
}

// Stats is a snapshot of a Meter's counters, indexed by Event.
type Stats [numEvents]uint64

// Meter records one tier's events: each count is its event's series,
// which its domain's registry reads. Counters are atomics: a callback
// process bumps Invalidation concurrently with the serving goroutine's
// hit path.
type Meter struct {
	class, owner string
	n            [numEvents]metrics.Counter
	Names        *namestat.TopK // the prefix server's hot-name sketch; nil elsewhere
}

// NewMeter returns a meter counting under class ("client", "tier" or
// "prefix") in owner's name, its series added to k's catalogue.
func NewMeter(k *kernel.Kernel, class, owner string) *Meter {
	m := &Meter{class: class, owner: owner}
	k.AddSeries(m.read)
	return m
}

// read offers the reading each counted event's row (Reading.Counter
// passes over one still at zero).
func (m *Meter) read(r *metrics.Reading) {
	for ev, d := range &events {
		if d.metric == "" {
			continue
		}
		l := metrics.Labels{Server: m.owner}
		if !d.noClass {
			l.Class = m.class
		}
		r.Counter(d.metric, l, m.n[ev].Value(), false)
	}
}

func (m *Meter) load() (s Stats) {
	for i := range s {
		s[i] = m.n[i].Value()
	}
	return s
}

// Snapshot returns a torn-read-resistant copy of the counters.
func (m *Meter) Snapshot() Stats { return metrics.Stable(m.load) }

// Borrowed is a name read where it lies in a request (proto.CSName): a
// view of the request's segment until the first of its keepers — an
// observer that keeps names, a server's table — asks Keep, which copies
// it, so one request copies it at most once.
type Borrowed struct {
	Name  string
	owned bool
}

// Keep returns the name as a copy its server may keep.
func (b *Borrowed) Keep() string {
	if !b.owned {
		b.Name, b.owned = strings.Clone(b.Name), true
	}
	return b.Name
}

// Borrow returns name, read from p's request, copied at once when what p
// observes keeps names: a flight ring, the hot-name sketch or a tracer.
func (m *Meter) Borrow(p *kernel.Process, name string) Borrowed {
	b := Borrowed{Name: name}
	if m.Names != nil || p.Kernel().Flight() != nil || p.Tracer() != nil {
		b.Keep()
	}
	return b
}

// Observe records one ev about name at virtual time at: its counter,
// flight record, sketch tick and zero-length trace span, as its row says.
// A stamped span carries e's lease; an unstamped entry has no stamp to
// carry and records none, so the staleness invariant
// (trace.CheckOptions.LeaseBound) only ever sees real leases.
func (m *Meter) Observe(p *kernel.Process, ev Event, name string, at time.Duration, e Entry) {
	d := &events[ev]
	if d.metric != "" {
		m.n[ev].Inc()
	}
	if d.kind != 0 {
		p.Kernel().Flight().Record(at, d.kind, name, m.owner, d.detail)
	}
	if d.sketch != nil {
		d.sketch(m.Names, name, at)
	}
	if tr := p.Tracer(); tr != nil && d.span != "" && (!d.stamp || e.Stamped()) {
		var grant, expire time.Duration
		if d.stamp {
			grant, expire = e.Grant, e.Expire
		}
		tr.Lease(p.CurrentSpan(), trace.Name{Head: d.span, Sep: " ", Tail: name}, at, p.TraceID(), grant, expire)
	}
}

// State is a Lookup outcome.
type State int

const (
	Absent  State = iota // no entry
	Valid                // entry returned; its lease covers now
	Expired              // entry returned, already dropped: its lease lapsed
)

// Cache is the holder side: one tier's table of leases. Every use is by
// a whole name — nothing asks it for a prefix or an order — so it is an
// exact-match table under a lock the serving goroutine, the callback
// process and the engine classifiers share.
type Cache struct {
	*Meter
	mu      sync.RWMutex
	entries map[string]Entry
	// callback receives OpCacheInvalidate; its pid rides every Acquire so
	// servers know whom to call back. Nil selects the unstamped policy.
	callback  *kernel.Process
	propagate func(p *kernel.Process, name string, commit time.Duration)
	// req is the request Acquire sends, and where a successful answer
	// lands: the cache's own, never handed to another process.
	req proto.Message
}

// NewCache returns an empty cache under the unstamped policy.
func NewCache(m *Meter) *Cache {
	return &Cache{Meter: m, entries: make(map[string]Entry)}
}

// Listen switches the cache to the leased policy by creating its
// callback process on host. propagate, if non-nil, runs after each
// applied invalidation and before its acknowledgement: a tier hands the
// invalidation on to its own holders there, so the upstream barrier
// covers the whole subtree. The callback must be a process of its own —
// the serving process may be blocked in Acquire while the granter waits
// on this callback, and one process doing both would deadlock the barrier.
func (c *Cache) Listen(host *kernel.Host, name string, propagate func(p *kernel.Process, name string, commit time.Duration)) error {
	p, err := host.NewProcess(name)
	if err != nil {
		return err
	}
	c.propagate = propagate
	c.callback = p
	p.Serve(func(msg *proto.Message, from kernel.PID) { c.serveCallback(p, msg, from) })
	return nil
}

// Callback returns the pid of the callback process (NilPID under the
// unstamped policy).
func (c *Cache) Callback() kernel.PID {
	if c.callback == nil {
		return kernel.NilPID
	}
	return c.callback.PID()
}

// Close destroys the callback process; it leaves its holder groups via
// the kernel's destroy path, so granting servers stop waiting on it.
func (c *Cache) Close() {
	if c.callback != nil {
		c.callback.Destroy()
	}
}

// serveCallback is the callback process's handler. Replying only after
// the entry is gone is what makes a granter's SendGroupAll a barrier:
// when its define or delete returns, this holder has already dropped the
// name.
func (c *Cache) serveCallback(p *kernel.Process, msg *proto.Message, from kernel.PID) {
	if c.propagate != nil {
		// A holder that propagates sends from here: a serve span of its
		// own for those sends to nest under.
		core.BeginServe(p, msg, from).Reply(c.applyCallback(p, msg), nil)
		return
	}
	// The lease event hangs off the granter's transaction.
	if p.Tracer() != nil {
		p.SetCurrentSpan(p.ServedSpan())
	}
	reply := c.applyCallback(p, msg)
	p.SetCurrentSpan(0)
	// A failed reply has already failed the granter's transaction.
	_ = p.Reply(reply, from)
}

// applyCallback drops the entry an OpCacheInvalidate names, then runs
// propagate; the reply says whether msg was one. Its acknowledgement
// lands in msg, the holder's own copy of the group send.
func (c *Cache) applyCallback(p *kernel.Process, msg *proto.Message) *proto.Message {
	if msg.Op != proto.OpCacheInvalidate {
		return proto.NewReply(proto.ReplyIllegalRequest)
	}
	name, commit, err := proto.CacheInvalidate(msg)
	if err != nil {
		return proto.NewReply(proto.ReplyBadArgs)
	}
	c.Drop(name)
	c.Observe(p, Invalidation, name, p.Now(), Entry{})
	if c.propagate != nil {
		c.propagate(p, name, time.Duration(commit))
	}
	return proto.AnswerIn(msg, proto.ReplyOK)
}

// Lookup classifies the cache's answer for name at virtual time now and
// records it (Hit, NegativeHit, Renewal or Miss). A lapsed entry is
// dropped: the Acquire that follows either re-grants it or it is gone.
func (c *Cache) Lookup(p *kernel.Process, name string, now time.Duration) (Entry, State) {
	e, ok := c.Peek(name)
	switch {
	case !ok:
		c.Observe(p, Miss, name, now, e)
		return e, Absent
	case now >= e.Expire:
		c.Drop(name)
		c.Observe(p, Renewal, name, now, e)
		return e, Expired
	case e.Negative:
		c.Observe(p, NegativeHit, name, now, e)
	default:
		c.Observe(p, Hit, name, now, e)
	}
	return e, Valid
}

// Peek returns name's entry, lapsed or not: a pure probe — no IPC, no
// virtual time, no mutation, no event.
func (c *Cache) Peek(name string) (Entry, bool) {
	c.mu.RLock()
	e, ok := c.entries[name]
	c.mu.RUnlock()
	return e, ok
}

// Route is Peek for the engine classifiers: the pair a use of name at
// virtual time at would be sent to, if a valid positive entry holds it.
func (c *Cache) Route(name string, at time.Duration) (core.ContextPair, bool) {
	e, ok := c.Peek(name)
	if !ok || e.Negative || at >= e.Expire {
		return core.ContextPair{}, false
	}
	return e.Pair, true
}

// Store (re)places name's entry.
func (c *Cache) Store(name string, e Entry) {
	c.mu.Lock()
	c.entries[name] = e
	c.mu.Unlock()
}

// Drop removes name's entry, reporting whether there was one.
func (c *Cache) Drop(name string) bool {
	c.mu.Lock()
	n := len(c.entries)
	delete(c.entries, name)
	dropped := len(c.entries) < n
	c.mu.Unlock()
	return dropped
}

// Flush drops every entry no server will call back about. Stamped
// entries stay: expiry and callbacks bound their staleness.
func (c *Cache) Flush() {
	c.mu.Lock()
	for name, e := range c.entries {
		if !e.Stamped() {
			delete(c.entries, name)
		}
	}
	c.mu.Unlock()
}

// Acquire resolves name through server after a Lookup that returned
// prior, with one MapContext of bare — name's bare-prefix CSname —
// flagged as a lease request when the cache listens for callbacks. It
// returns the entry the reply describes, the reply, and whether the cache
// now holds the entry: a stamped ReplyOK (a lease) or ReplyNotFound (a
// negative one) always; an unstamped ReplyOK only under the unstamped
// policy — a listening cache uses it for this request but keeps nothing
// nobody will call back about. Any other reply is the caller's to relay
// or report. err is the transport failure of the Send.
//
// The request is the cache's own, re-initialised per call (so one
// process Acquires at a time), and a successful reply may be that
// request: the caller reads it before the next Acquire and never passes
// it on — a relay copies it.
func (c *Cache) Acquire(p *kernel.Process, server kernel.PID, name, bare string, prior State) (e Entry, reply *proto.Message, held bool, err error) {
	req := &c.req
	*req = proto.Message{Op: proto.OpMapContext, Segment: req.Segment[:0]}
	proto.SetCSName(req, uint32(core.CtxDefault), bare)
	if c.callback != nil {
		proto.SetLeaseRequest(req, uint32(c.callback.PID()))
	}
	if reply, err = p.Send(req, server); err != nil {
		return e, nil, false, err
	}
	e = Entry{Grant: p.Now(), Expire: Never}
	expire, stamped := proto.LeaseGrant(reply)
	if stamped {
		e.Expire = time.Duration(expire)
	}
	switch {
	case reply.Op == proto.ReplyOK:
		pid, ctx := proto.GetMapContextReply(reply)
		e.Pair = core.ContextPair{Server: kernel.PID(pid), Ctx: core.ContextID(ctx)}
	case reply.Op == proto.ReplyNotFound && stamped:
		e.Negative = true
	default:
		return e, reply, false, nil
	}
	if !stamped && c.callback != nil {
		return e, reply, false, nil
	}
	c.Store(name, e)
	ev := Acquired
	if prior == Expired {
		ev = Renewed
	}
	c.Observe(p, ev, name, e.Grant, e)
	return e, reply, true, nil
}

// Wanted reports whether msg, whose CSname's prefix ends at rest, is a
// lease request its receiver can answer from its own table — a flagged
// MapContext of the bare prefix — and the callback pid it names.
func Wanted(msg *proto.Message, name string, rest int) (kernel.PID, bool) {
	if msg.Op != proto.OpMapContext || rest < len(name) {
		return kernel.NilPID, false
	}
	cb, ok := proto.LeaseRequest(msg)
	return kernel.PID(cb), ok
}

// Grant stamps reply with a lease of length from now, cut short at
// upstream — the expiry of the lease backing the granter's own answer
// (Never for the authority) — so no tier widens the staleness bound. It
// returns the expiry stamped.
func Grant(reply *proto.Message, now, length, upstream time.Duration) time.Duration {
	expire := now + length
	if upstream < expire {
		expire = upstream
	}
	proto.SetLeaseGrant(reply, int64(expire))
	return expire
}

// Holders is a granter's memory of whom to call back: per name, the
// kernel group of callback pids holding a lease on it. Membership
// survives invalidations — a holder that re-leases is already in the
// group — and destroyed processes leave via the kernel's destroy path.
type Holders struct {
	*Meter
	mu     sync.Mutex
	groups map[string]kernel.PID
}

// NewHolders returns an empty holder table.
func NewHolders(m *Meter) *Holders {
	return &Holders{Meter: m, groups: make(map[string]kernel.PID)}
}

// Join adds cb to name's group, creating the group on first use, under
// the name's kept copy. It fails when the kernel has no group left to
// create: nobody would call that holder back, so it must be granted no
// time.
func (h *Holders) Join(k *kernel.Kernel, name *Borrowed, cb kernel.PID) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	gid, ok := h.groups[name.Name]
	if !ok {
		var err error
		if gid, err = k.CreateGroup(); err != nil {
			return err
		}
		h.groups[name.Keep()] = gid
	}
	return k.JoinGroup(gid, cb)
}

// Invalidate calls back every holder of name; see Notify. A name nobody
// holds is a no-op.
func (h *Holders) Invalidate(p *kernel.Process, name string, commit time.Duration) int {
	h.mu.Lock()
	gid, ok := h.groups[name]
	h.mu.Unlock()
	if !ok {
		return 0
	}
	return h.Notify(p, gid, name, commit)
}

// Notify multicasts OpCacheInvalidate for name, committed at commit, to
// the holder group gid and waits for every reachable holder to apply it.
// It returns how many acknowledged, the sketch's fan-out; holders it
// cannot reach are bounded by their lease expiry instead.
func (m *Meter) Notify(p *kernel.Process, gid kernel.PID, name string, commit time.Duration) int {
	msg := &proto.Message{}
	proto.SetCacheInvalidate(msg, name, int64(commit))
	n, err := p.SendGroupAll(msg, gid)
	if err != nil || n <= 0 {
		return 0
	}
	m.n[Notified].Add(uint64(n))
	m.Names.ObserveInvalidation(name, n)
	return n
}
