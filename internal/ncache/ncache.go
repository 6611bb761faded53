// Package ncache implements the shared intermediate name-cache tier
// (PROTOCOL.md §13): a caching front for a lease-granting context prefix
// server, normally co-resident with the prefix host, that many client
// hosts share. Lease-flagged bare-prefix MapContext requests are served
// from the tier's own lease table — one upstream lease amortized across
// every client behind the tier — and every other request is forwarded to
// the prefix server unchanged, so the tier is transparent to the plain
// protocol: clients simply address the tier as their prefix server.
//
// Coherence is hierarchical. The tier holds upstream leases through a
// dedicated callback process and re-grants sub-leases to its clients,
// each expiring no later than the backing upstream lease, so a client's
// staleness bound never exceeds the granting server's. An invalidation
// from the prefix server drops the tier entry and propagates to the
// tier's own holder groups with the same all-reply barrier semantics
// (kernel.SendGroupAll) before the tier acknowledges — the prefix
// server's define/delete therefore still returns only after every
// reachable cache in the hierarchy, shared or per-client, has dropped
// the name (lease.Cache.Listen says why that takes a second process).
package ncache

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/lease"
	"repro/internal/metrics"
	"repro/internal/prefix"
	"repro/internal/proto"
)

// Stats counts the tier's serving activity.
type Stats struct {
	// Hits served a lease request from a valid tier entry.
	Hits uint64
	// Misses walked the upstream prefix server for a fresh lease,
	// whether no entry existed or the one that did had lapsed.
	Misses uint64
	// NegativeHits answered a known-absent name from a negative entry.
	NegativeHits uint64
	// Renewals are misses that replaced a lapsed entry.
	Renewals uint64
	// Invalidations counts upstream callbacks applied.
	Invalidations uint64
	// Propagated counts downstream holders that acknowledged a
	// propagated invalidation.
	Propagated uint64
	// Forwards counts non-lease requests passed through to upstream.
	Forwards uint64
}

// Tier is one shared intermediate name cache: a lease.Cache holding
// upstream leases, and the lease.Holders of the sub-leases granted from
// them, on one meter.
type Tier struct {
	proc     *kernel.Process
	upstream kernel.PID
	leaseLen time.Duration

	cache   *lease.Cache
	holders *lease.Holders
	fwds    *metrics.Counter // the ncache_forwards_total series
}

// Start spawns a cache tier on host, fronting the upstream prefix
// server. leaseLen caps the sub-leases the tier grants downstream; the
// effective sub-lease is the minimum of leaseLen and the remaining
// upstream lease, so the hierarchy never widens the staleness bound.
func Start(host *kernel.Host, name string, upstream kernel.PID, leaseLen time.Duration) (*Tier, error) {
	if leaseLen <= 0 {
		return nil, fmt.Errorf("ncache: sub-lease length must be positive")
	}
	meter := lease.NewMeter(host.Kernel(), "tier", name)
	t := &Tier{
		upstream: upstream,
		leaseLen: leaseLen,
		cache:    lease.NewCache(meter),
		holders:  lease.NewHolders(meter),
		fwds:     host.Kernel().NewCounter("ncache_forwards_total", metrics.Labels{Server: name, Class: "tier"}),
	}
	// An upstream invalidation propagates to the tier's own holders —
	// waiting for every reachable one — before it is acknowledged.
	err := t.cache.Listen(host, name+"/upstream-cb", func(p *kernel.Process, name string, commit time.Duration) {
		t.holders.Invalidate(p, name, commit)
	})
	if err != nil {
		return nil, err
	}
	main, err := host.NewProcess(name)
	if err != nil {
		t.cache.Close()
		return nil, err
	}
	t.proc = main
	main.Serve(func(msg *proto.Message, from kernel.PID) { t.serveOne(main, msg, from) })
	return t, nil
}

// PID returns the tier's serving pid — what clients use as their prefix
// server address.
func (t *Tier) PID() kernel.PID { return t.proc.PID() }

// Stop destroys both tier processes (leaving their group memberships via
// the kernel's destroy path).
func (t *Tier) Stop() {
	t.proc.Destroy()
	t.cache.Close()
}

// Stats returns a snapshot of the tier counters.
func (t *Tier) Stats() Stats {
	st := t.cache.Snapshot()
	return Stats{
		Hits:          st[lease.Hit],
		Misses:        st[lease.Miss] + st[lease.Renewal],
		NegativeHits:  st[lease.NegativeHit],
		Renewals:      st[lease.Renewal],
		Invalidations: st[lease.Invalidation],
		Propagated:    st[lease.Notified],
		Forwards:      t.fwds.Value(),
	}
}

// serveOne handles one request: lease-flagged bare-prefix MapContexts
// are served from the tier table, everything else is forwarded upstream
// (the reply then flows directly from the prefix server to the client,
// the standard forwarding convention).
func (t *Tier) serveOne(p *kernel.Process, msg *proto.Message, from kernel.PID) {
	sv := core.BeginServe(p, msg, from)
	p.ChargeCompute(p.Kernel().Model().ServerDispatchCost)

	pfx, bare, cb, ok := t.leaseWanted(msg)
	if !ok {
		t.fwds.Inc()
		_ = p.Forward(msg, from, t.upstream)
		sv.Passed()
		return
	}
	sv.Reply(t.serveLease(p, msg, pfx, bare, cb), nil)
}

// leaseWanted reports whether msg is a lease request the tier can serve
// from its table, and the prefix, its bracketed form and the callback it
// names.
func (t *Tier) leaseWanted(msg *proto.Message) (pfx, bare string, cb kernel.PID, ok bool) {
	name, index, err := proto.CSName(msg)
	if err != nil || index >= len(name) || name[index] != prefix.Marker {
		return "", "", kernel.NilPID, false
	}
	pfx, rest, err := prefix.Parse(name, index)
	if err != nil {
		return "", "", kernel.NilPID, false
	}
	cb, ok = lease.Wanted(msg, name, rest)
	return pfx, name[index : index+len(pfx)+2], cb, ok
}

// serveLease answers the lease request msg, from the tier table on a hit
// or through the upstream server on a miss, re-granting a sub-lease
// bounded by the backing upstream lease. A success lands in msg; a
// failure is a fresh message.
//
// pfx and bare lie in msg (proto.CSName): the tier copies pfx once, for
// the observers that keep names or for its tables, and reads bare before
// anything writes msg.
func (t *Tier) serveLease(p *kernel.Process, msg *proto.Message, view, bare string, cb kernel.PID) *proto.Message {
	p.ChargeCompute(p.Kernel().Model().PrefixRewriteCost)
	now := p.Now()
	pfx := t.cache.Borrow(p, view)
	e, state := t.cache.Lookup(p, pfx.Name, now)
	var reply *proto.Message
	switch {
	case state != lease.Valid:
		// Take a fresh upstream lease in the tier's own name — the
		// upstream callback is the tier's, not the client's — then relay
		// the reply downstream. An answer the tier does not hold (an
		// upstream without lease support, a reply that is neither a
		// binding nor its absence) is relayed as it came: the client will
		// use it without caching, and the tier sub-leases nothing it
		// cannot be called back about.
		var held bool
		var err error
		e, reply, held, err = t.cache.Acquire(p, t.upstream, pfx.Keep(), bare, state)
		if err != nil {
			return core.ErrorReplyMsg(fmt.Errorf("prefix %q: %w", pfx.Name, err))
		}
		reply = relay(msg, reply)
		if !held {
			return reply
		}
		now = e.Grant
	case e.Negative:
		reply = core.ErrorReplyMsg(fmt.Errorf("prefix %q: %w", pfx.Name, proto.ErrNotFound))
	default:
		reply = proto.AnswerIn(msg, proto.ReplyOK)
		proto.SetMapContextReply(reply, uint32(e.Pair.Server), uint32(e.Pair.Ctx))
	}
	// The sub-lease expires at the earlier of the tier's own length and
	// the backing upstream lease — or at once, when the tier could not
	// note whom to call back.
	length := t.leaseLen
	if t.holders.Join(p.Kernel(), &pfx, cb) != nil {
		length = 0
	}
	lease.Grant(reply, now, length, e.Expire)
	return reply
}

// relay answers the downstream request msg with up, the reply to the tier
// cache's Acquire. A successful up is the cache's own request, which its
// next Acquire reuses, so it is never handed on: a success is copied into
// msg, a failure into a fresh message.
func relay(msg, up *proto.Message) *proto.Message {
	if up.Op != proto.ReplyOK {
		return up.Clone()
	}
	reply := proto.AnswerIn(msg, proto.ReplyOK)
	reply.Flags, reply.F = up.Flags, up.F
	return reply
}
