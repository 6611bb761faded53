// Lease granting and callback invalidation (PROTOCOL.md §13).
//
// A lease-enabled prefix server (WithLease) answers OpMapContext requests
// that carry proto.FlagLeaseRequest directly — instead of forwarding the
// "[p]"-only request to the target server — stamping the reply with an
// absolute virtual-time expiry and remembering the requester's callback
// pid in a per-name kernel group. When a binding is defined, deleted or
// modified, the server multicasts OpCacheInvalidate to that name's
// holder group and waits for every reachable holder to apply it
// (kernel.SendGroupAll), so the mutation's reply is a coherence barrier:
// holders the invalidation cannot reach (crashed or partitioned hosts)
// are bounded by their lease expiry instead — the provable staleness
// bound the trace checker enforces.
//
// Unknown prefixes are granted *negative* leases on the ReplyNotFound:
// the client answers repeated lookups of the absent name locally until
// the name is defined (which invalidates the negative holders) or the
// lease lapses.
package prefix

import (
	"time"

	"repro/internal/kernel"
	"repro/internal/lease"
	"repro/internal/proto"
)

// WithLease enables lease granting with the given lease length. Zero
// (the default) disables the lease protocol entirely: lease-flagged
// requests are then served exactly like plain ones, and the server's
// behaviour is byte-identical to the pre-lease code.
func WithLease(d time.Duration) Option {
	return func(s *Server) { s.leaseLen = d }
}

// LeaseStats counts the server's lease activity.
type LeaseStats struct {
	// Grants counts positive lease-stamped MapContext replies.
	Grants uint64
	// Negatives counts negative (NotFound) lease stamps.
	Negatives uint64
	// Invalidations counts invalidation commits (per name changed, not
	// per holder notified).
	Invalidations uint64
	// HoldersNotified counts holder callbacks that acknowledged an
	// invalidation.
	HoldersNotified uint64
}

// LeaseStats returns a snapshot of the lease counters.
func (s *Server) LeaseStats() LeaseStats {
	st := s.leases.Snapshot()
	return LeaseStats{
		Grants:          st[lease.Granted] + st[lease.Regranted],
		Negatives:       st[lease.GrantedNegative],
		Invalidations:   st[lease.Commit],
		HoldersNotified: st[lease.Notified],
	}
}

// stampLease stamps reply with a lease from p's current clock and
// registers the callback as a holder of pfx. negative marks a NotFound
// stamp; otherwise slot is the binding's, read off the index node during
// the resolution descent, so the grant needs no second table lookup and
// writes nothing to the index. A positive reply is the request answered
// in place: stamping writes its fields, never the segment pfx lies in.
func (s *Server) stampLease(p *kernel.Process, reply *proto.Message, pfx *lease.Borrowed, cb kernel.PID, negative bool, slot uint32) {
	now := p.Now()
	length := s.leaseLen
	if s.tuner != nil && !negative {
		// Auto-tuned per-name length (tuner.go); negative leases stay at
		// the floor — an absent name's definition is the churn event the
		// tuner has no estimator for yet.
		length = s.tuner.leaseFor(pfx.Keep(), s.leases.Names)
	}
	regrant, err := s.joinHolders(p, pfx, cb, !negative, slot)
	if err != nil {
		// Nobody would call this holder back: it may use the answer now
		// and keep it for no time at all.
		length = 0
	}
	// The prefix server is the authority: nothing upstream bounds it.
	stamp := lease.Entry{Grant: now, Expire: lease.Grant(reply, now, length, lease.Never)}
	ev := lease.Granted
	switch {
	case negative:
		ev = lease.GrantedNegative
	case regrant:
		// The holder group predates this grant: some holder leased the
		// name before, so this grant re-validates — the closest the
		// granting side comes to seeing a renewal.
		ev = lease.Regranted
	}
	s.leases.Observe(p, ev, pfx.Name, now, stamp)
}

// joinHolders adds cb to pfx's holder group, creating the group on first
// use — in the binding's slot when bound, in the orphan map when the name
// has no binding — and reports whether the group was there already.
// Membership is idempotent and survives invalidations: a holder that
// re-leases after a callback is already in the group, and destroyed
// processes leave every group via the kernel's destroy path.
func (s *Server) joinHolders(p *kernel.Process, pfx *lease.Borrowed, cb kernel.PID, bound bool, slot uint32) (regrant bool, err error) {
	k := p.Kernel()
	s.mu.Lock()
	defer s.mu.Unlock()
	if bound && s.groups[slot] == retired {
		// The binding was deleted since resolution read its slot: join
		// whatever a later change of the name will call back.
		var e tableEntry
		e, bound = s.index.Get(pfx.Name)
		slot = e.slot
	}
	gid := s.orphans[pfx.Name]
	if bound {
		gid = s.groups[slot]
	}
	if regrant = gid != kernel.NilPID; !regrant {
		if gid, err = k.CreateGroup(); err != nil {
			return false, err
		}
		if bound {
			s.groups[slot] = gid
		} else {
			s.orphans[pfx.Keep()] = gid
		}
	}
	return regrant, k.JoinGroup(gid, cb)
}

// invalidateName is the commit step of every binding change — a define,
// a delete, a written record: it forgets the name's last resolution (so
// the change is never counted as a §4.2 rebind), records the commit
// point in the trace (the instant the staleness invariant keys on), then
// multicasts OpCacheInvalidate to the name's holders and waits for every
// reachable holder to apply it. Called from the serving process after
// the binding mutation, before its reply — so when the mutating client's
// operation returns, every reachable cache has dropped the name.
func (s *Server) invalidateName(p *kernel.Process, name string) {
	// The redefinition is journaled and estimated whether or not leases
	// are on — churn analytics do not depend on the coherence protocol.
	commit := p.Now()
	s.leases.Observe(p, lease.Redefined, name, commit, lease.Entry{})
	s.tuner.observeRedefinition(name)
	if s.leaseLen > 0 {
		s.leases.Observe(p, lease.Commit, name, commit, lease.Entry{})
	}
	s.mu.Lock()
	delete(s.lastResolved, name)
	// Without leases no holder group exists: gid stays NilPID.
	gid := kernel.NilPID
	if e, ok := s.index.Get(name); ok {
		gid = s.groups[e.slot]
	}
	if gid == kernel.NilPID {
		gid = s.orphans[name]
	}
	s.mu.Unlock()
	if gid == kernel.NilPID {
		return
	}
	s.leases.Notify(p, gid, name, commit)
}
