// The session's name cache (PROTOCOL.md §13): one internal/lease table
// under one of two policies — EnableNameCache's unstamped entries,
// trusted until a use fails, or EnableLeaseCache's leases, which expire,
// revalidate one by one, cache absence negatively and are invalidated by
// callback when a binding changes, so a read can serve a dead mapping for
// at most the lease length (trace.CheckOptions LeaseBound enforces it).
package client

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/lease"
	"repro/internal/namestat"
	"repro/internal/prefix"
	"repro/internal/proto"
)

// LeaseStats counts name-cache behaviour.
type LeaseStats struct {
	// Hits served a prefixed request straight from a valid entry.
	Hits int
	// Misses walked the prefix server because no entry existed.
	Misses int
	// NegativeHits answered a lookup of a known-absent name locally,
	// with no IPC at all.
	NegativeHits int
	// Renewals revalidated an entry whose lease had expired.
	Renewals int
	// Invalidations counts callback invalidations applied.
	Invalidations int
	// Stale counts uses of a cached pair whose server was gone before
	// any invalidation arrived — the §2.2 inconsistency made visible.
	Stale int
}

// enableCache installs an empty cache (and the stale-window table that
// rides with it) if the session has none.
func (s *Session) enableCache() {
	if s.cache == nil {
		s.cache = lease.NewCache(lease.NewMeter(s.proc.Kernel(), "client", s.proc.Name()))
		s.widestStale = make(map[string]time.Duration)
	}
}

// EnableNameCache turns on client-side caching of prefix resolutions
// with no coherence at all — the design §2.2 argues *against* ("caching
// the name in the client would introduce inconsistency problems and only
// benefit the few applications that reuse names"), kept so A8 and A10 can
// quantify both halves of that sentence. With retryOnError, a use of a
// stale entry drops it and retries once through the prefix server;
// without it, the entry stays and stale uses surface as errors until
// FlushNameCache. A session already holding leases keeps doing so.
func (s *Session) EnableNameCache(retryOnError bool) {
	s.enableCache()
	if s.LeaseCallback() == kernel.NilPID {
		s.cacheRetry = retryOnError
	}
}

// EnableLeaseCache turns on lease-coherent caching of prefix
// resolutions: a callback process is spawned on the session's host to
// receive invalidations, and every prefix miss asks the prefix server
// for a lease-stamped direct reply. The granting server chooses the
// lease length (prefix.WithLease).
func (s *Session) EnableLeaseCache() error {
	if s.LeaseCallback() != kernel.NilPID {
		return nil
	}
	fresh := s.cache == nil
	s.enableCache()
	if err := s.cache.Listen(s.proc.Host(), s.proc.Name()+"/lease-cb", nil); err != nil {
		if fresh {
			s.cache = nil
		}
		return err
	}
	s.cacheRetry = true
	return nil
}

// FlushNameCache drops every entry no server will call back about — the
// blind flush-by-timer staleness bound of rig.Scenario.FlushEvery
// and the A8/A14 ablations. Leased entries are not its business.
func (s *Session) FlushNameCache() {
	if s.cache != nil {
		s.cache.Flush()
	}
}

// LeaseCacheStats returns a torn-read-resistant snapshot of the cache
// counters.
func (s *Session) LeaseCacheStats() LeaseStats {
	if s.cache == nil {
		return LeaseStats{}
	}
	st := s.cache.Snapshot()
	return LeaseStats{
		Hits:          int(st[lease.Hit]),
		Misses:        int(st[lease.Miss]),
		NegativeHits:  int(st[lease.NegativeHit]),
		Renewals:      int(st[lease.Renewal]),
		Invalidations: int(st[lease.Invalidation]),
		Stale:         int(st[lease.Stale]),
	}
}

// LeaseNameRates returns the session's client-side per-prefix churn
// estimates (stale-window widths observed at failure), sorted by name.
func (s *Session) LeaseNameRates() []namestat.RateItem {
	if s.widestStale == nil {
		return nil
	}
	items := make([]namestat.RateItem, 0, len(s.widestStale))
	for name, w := range s.widestStale {
		items = append(items, namestat.RateItem{Name: name, MaxStaleUS: int64(w / time.Microsecond)})
	}
	sort.Slice(items, func(i, j int) bool { return items[i].Name < items[j].Name })
	return items
}

// LeaseCallback returns the pid of the session's invalidation-callback
// process (NilPID unless the lease cache is on).
func (s *Session) LeaseCallback() kernel.PID {
	if s.cache == nil {
		return kernel.NilPID
	}
	return s.cache.Callback()
}

// LeasedRoute reports where a prefixed name would be routed at virtual
// time `at`: the cached (server, context) pair, if the cache holds a
// valid positive entry for its prefix (an unstamped entry is valid at
// every `at`). It performs no IPC, charges no virtual time, and mutates
// nothing — it is the probe the sharded workload drivers' classifiers use
// to predict whether the next request stays on a cached direct route (a
// candidate for lane-confined execution) or must walk the prefix server,
// evaluated at the virtual time the operation will actually run so
// classifier and operation agree on expiry exactly.
func (s *Session) LeasedRoute(name string, at time.Duration) (core.ContextPair, bool) {
	if s.cache == nil {
		return core.ContextPair{}, false
	}
	pfx, _, err := cacheKey(name)
	if err != nil {
		return core.ContextPair{}, false
	}
	return s.cache.Route(pfx, at)
}

// LeaseExpiry returns the absolute virtual-time expiry of the session's
// cached entry for name's prefix — positive or negative — if one exists.
// Like LeasedRoute it is a pure probe.
func (s *Session) LeaseExpiry(name string) (time.Duration, bool) {
	if s.cache == nil {
		return 0, false
	}
	pfx, _, err := cacheKey(name)
	if err != nil {
		return 0, false
	}
	e, ok := s.cache.Peek(pfx)
	return e.Expire, ok
}

// cacheKey derives the cache key for a prefixed CSname: the parsed
// prefix (the key itself) and the index where the server-relative
// remainder of the name begins.
func cacheKey(name string) (pfx string, rest int, err error) {
	if !prefix.HasPrefix(name) {
		return "", 0, fmt.Errorf("%w: %q has no context prefix", proto.ErrBadArgs, name)
	}
	return prefix.Parse(name, 0)
}

// cached resolves a prefixed name through the cache: a valid positive
// entry is the route, a valid negative lease answers NotFound locally,
// and anything else resolves the prefix through the prefix server first.
// It returns the cache key, the index where the server-relative name
// begins, and the entry to send to. The validity check happens at the
// clock's value on entry — before any compute is charged — which is the
// same instant LeasedRoute probes, so the engine classifiers predict this
// routing exactly.
func (s *Session) cached(name string) (pfx string, rest int, entry lease.Entry, err error) {
	if pfx, rest, err = cacheKey(name); err != nil {
		return "", 0, entry, fmt.Errorf("%q: %w", name, err)
	}
	stub := s.proc.Kernel().Model().ClientStubCost
	entry, state := s.cache.Lookup(s.proc, pfx, s.proc.Now())
	if state == lease.Valid && entry.Negative {
		// The name is known absent: answer locally. The stub still costs
		// its constant — the library ran — but no message leaves the host.
		s.proc.ChargeCompute(stub)
		return "", 0, entry, fmt.Errorf("%q: %w", name, proto.ErrNotFound)
	}
	if state != lease.Valid {
		s.proc.ChargeCompute(stub)
		var mreply *proto.Message
		// The bare prefix is the name's own bytes: Parse makes
		// name[:len(pfx)+2] exactly prefix.Quote(pfx).
		entry, mreply, _, err = s.cache.Acquire(s.proc, s.prefixServer, pfx, name[:len(pfx)+2], state)
		if err == nil {
			err = core.ReplyToError(mreply)
		}
		if err != nil {
			return "", 0, entry, fmt.Errorf("%q: %w", name, err)
		}
	}
	return pfx, rest, entry, nil
}

// stale handles a failed send to pfx's cached pair, reporting whether to
// re-resolve and send once more. The cached resolution outlived its
// server — inside the lease window, before any invalidation could be
// delivered, or with no lease at all: the inconsistency §2.2 predicts. It
// is counted, journaled as a failover, and measured: the window's width
// (failure time minus grant) feeds the client's churn estimator (§15).
// The naive policy then keeps the entry (it has no way to know the
// failure was the cache's fault); otherwise, if mayRetry, it is dropped.
func (s *Session) stale(pfx string, entry lease.Entry, mayRetry bool) bool {
	failedAt := s.proc.Now()
	s.cache.Observe(s.proc, lease.Stale, pfx, failedAt, entry)
	s.widestStale[pfx] = max(s.widestStale[pfx], failedAt-entry.Grant)
	if !s.cacheRetry || !mayRetry {
		return false
	}
	s.cache.Drop(pfx)
	return true
}
