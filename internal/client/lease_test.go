package client_test

import (
	"errors"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/kernel"
	"repro/internal/proto"
	"repro/internal/raceflag"
	"repro/internal/rig"
)

// bootLeased builds the standard rig with lease granting enabled on
// every workstation prefix server and the first workstation's session
// running the lease cache.
func bootLeased(t *testing.T, lease time.Duration) *rig.Rig {
	t.Helper()
	cfg := rig.DefaultConfig()
	cfg.Lease = lease
	r, err := rig.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.WS[0].Session.EnableLeaseCache(); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestLeaseExpiryBoundary pins the expiry boundary exactly: a lease is
// valid through T+L−ε and lapses at T+L — the first use at or past the
// expiry revalidates through the prefix server instead of serving the
// cached pair (PROTOCOL.md §13).
func TestLeaseExpiryBoundary(t *testing.T) {
	const name = "[home]welcome.txt"
	for _, tc := range []struct {
		label string
		lease time.Duration
	}{
		{"short", 60 * time.Millisecond},
		{"medium", 150 * time.Millisecond},
		{"long", 600 * time.Millisecond},
	} {
		t.Run(tc.label, func(t *testing.T) {
			r := bootLeased(t, tc.lease)
			s := r.WS[0].Session
			warmStart := s.Proc().Now()
			if _, err := s.ReadFile(name); err != nil {
				t.Fatal(err)
			}
			st := s.LeaseCacheStats()
			if st.Misses != 1 || st.Renewals != 0 {
				t.Fatalf("after warm read: %+v", st)
			}
			exp, ok := s.LeaseExpiry(name)
			now := s.Proc().Now()
			if !ok || exp <= now {
				t.Fatalf("lease expiry = %v, %v (now %v)", exp, ok, now)
			}
			// The stamp window is the configured length: granted during the
			// warm read, expiring at most one lease length past it.
			if exp < warmStart+tc.lease || exp > now+tc.lease {
				t.Fatalf("expiry %v outside [%v, %v]", exp, warmStart+tc.lease, now+tc.lease)
			}

			// Probe the boundary without touching the clock: valid at
			// T+L−ε, invalid at T+L exactly.
			if _, ok := s.LeasedRoute(name, exp-time.Nanosecond); !ok {
				t.Fatal("lease invalid one instant before its expiry")
			}
			if _, ok := s.LeasedRoute(name, exp); ok {
				t.Fatal("lease still valid at its expiry")
			}

			// Operationally: a use just before expiry hits, a use at expiry
			// revalidates (a renewal, not a blind miss) and extends the
			// stamp.
			s.Proc().ChargeCompute(exp - time.Nanosecond - s.Proc().Now())
			hits := s.LeaseCacheStats().Hits
			if _, err := s.Query(name); err != nil {
				t.Fatal(err)
			}
			st = s.LeaseCacheStats()
			if st.Hits != hits+1 || st.Renewals != 0 {
				t.Fatalf("query at T+L−ε must hit: %+v", st)
			}
			// The query's own latency pushed the clock past the expiry.
			if s.Proc().Now() < exp {
				t.Fatalf("clock %v still before expiry %v", s.Proc().Now(), exp)
			}
			if _, err := s.Query(name); err != nil {
				t.Fatal(err)
			}
			st = s.LeaseCacheStats()
			if st.Renewals != 1 {
				t.Fatalf("query at/after T+L must renew: %+v", st)
			}
			exp2, ok := s.LeaseExpiry(name)
			if !ok || exp2 <= exp {
				t.Fatalf("renewal expiry %v (ok=%v) does not extend %v", exp2, ok, exp)
			}
		})
	}
}

// TestNegativeCache verifies negative caching of absent names: the first
// lookup walks the prefix server and caches the NotFound under a lease,
// repeated lookups are answered locally for exactly the client stub
// cost, and defining the name invalidates the negative holders by
// callback before the define returns.
func TestNegativeCache(t *testing.T) {
	r := bootLeased(t, 200*time.Millisecond)
	s := r.WS[0].Session

	if _, err := s.Query("[nosuch]x"); !errors.Is(err, proto.ErrNotFound) {
		t.Fatalf("query of absent prefix: %v", err)
	}
	st := s.LeaseCacheStats()
	if st.Misses != 1 || st.NegativeHits != 0 {
		t.Fatalf("after first lookup: %+v", st)
	}
	if _, ok := s.LeaseExpiry("[nosuch]"); !ok {
		t.Fatal("no negative lease cached")
	}

	// The repeat is answered locally: ErrNotFound again, at exactly the
	// client stub cost — no message leaves the host.
	before := s.Proc().Now()
	if _, err := s.Query("[nosuch]x"); !errors.Is(err, proto.ErrNotFound) {
		t.Fatalf("repeat query: %v", err)
	}
	if cost := s.Proc().Now() - before; cost != r.Model.ClientStubCost {
		t.Fatalf("negative hit cost %v, want the bare stub cost %v", cost, r.Model.ClientStubCost)
	}
	if st = s.LeaseCacheStats(); st.NegativeHits != 1 {
		t.Fatalf("after repeat: %+v", st)
	}

	// Defining the name invalidates the negative holders before the
	// define's reply — the very next lookup resolves fresh.
	pair, err := s.MapContext("[home]")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddName("nosuch", pair); err != nil {
		t.Fatal(err)
	}
	st = s.LeaseCacheStats()
	if st.Invalidations != 1 {
		t.Fatalf("define did not call back the negative holder: %+v", st)
	}
	if _, ok := s.LeaseExpiry("[nosuch]"); ok {
		t.Fatal("negative entry survived the invalidation")
	}
	misses := s.LeaseCacheStats().Misses
	if _, err := s.Query("[nosuch]welcome.txt"); err != nil {
		t.Fatalf("query after define: %v", err)
	}
	st = s.LeaseCacheStats()
	if st.Misses != misses+1 {
		t.Fatalf("lookup after define must re-resolve: %+v", st)
	}
	if srv := r.WS[0].Prefix.LeaseStats(); srv.Negatives != 1 || srv.Invalidations == 0 {
		t.Fatalf("server lease stats: %+v", srv)
	}
}

// TestLeaseSurvivesFlush pins FlushNameCache's one rule — it drops the
// entries no server will call back about — from the leased side: leased
// entries stay, because coherence, not flushing, bounds their staleness.
// (EnableNameCache on a leased session changes nothing: leases win.)
func TestLeaseSurvivesFlush(t *testing.T) {
	r := bootLeased(t, 200*time.Millisecond)
	s := r.WS[0].Session
	s.EnableNameCache(true)
	if _, err := s.ReadFile("[home]welcome.txt"); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.LeaseExpiry("[home]"); !ok {
		t.Fatal("no lease after read")
	}
	s.FlushNameCache()
	if _, ok := s.LeaseExpiry("[home]"); !ok {
		t.Fatal("blind flush must not touch leased entries")
	}
	hits := s.LeaseCacheStats().Hits
	if _, err := s.Query("[home]welcome.txt"); err != nil {
		t.Fatal(err)
	}
	if st := s.LeaseCacheStats(); st.Hits != hits+1 {
		t.Fatalf("post-flush query must still hit the lease: %+v", st)
	}
}

// TestLeaseCacheLifecycle pins the switch-on: a session without the
// cache has no callback process, zero stats and no probes — every
// prefixed request walks the prefix server — and EnableLeaseCache spawns
// the callback once, a second enable being a no-op.
func TestLeaseCacheLifecycle(t *testing.T) {
	cfg := rig.DefaultConfig()
	cfg.Lease = 200 * time.Millisecond
	r, err := rig.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := r.WS[0].Session
	if _, err := s.ReadFile("[home]welcome.txt"); err != nil {
		t.Fatalf("uncached read: %v", err)
	}
	if got := s.LeaseCallback(); got != kernel.NilPID {
		t.Fatalf("callback without a cache = %v, want NilPID", got)
	}
	if st := s.LeaseCacheStats(); st != (client.LeaseStats{}) {
		t.Fatalf("stats without a cache = %+v, want zero", st)
	}
	if _, ok := s.LeasedRoute("[home]welcome.txt", s.Proc().Now()); ok {
		t.Fatal("leased route without a cache")
	}
	if _, ok := s.LeaseExpiry("[home]welcome.txt"); ok {
		t.Fatal("lease expiry without a cache")
	}
	if err := s.EnableLeaseCache(); err != nil {
		t.Fatal(err)
	}
	cb := s.LeaseCallback()
	if cb == kernel.NilPID {
		t.Fatal("enabled cache must expose its callback pid")
	}
	if err := s.EnableLeaseCache(); err != nil || s.LeaseCallback() != cb {
		t.Fatalf("second enable: %v, callback %v, want %v", err, s.LeaseCallback(), cb)
	}
	if _, err := s.ReadFile("[home]welcome.txt"); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.LeasedRoute("[home]welcome.txt", s.Proc().Now()); !ok {
		t.Fatal("no leased route after warm read")
	}
}

// TestLeaseHitZeroAlloc is the gate on the lease-hit path: a MapContext
// a valid lease answers is sent straight to the leased server, whose
// skeleton answers in the session's own request, so nothing allocates —
// not the request, not the reply. Skipped under -race (the detector's
// instrumentation allocates).
func TestLeaseHitZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("AllocsPerRun counts the race detector's own allocations")
	}
	r := bootLeased(t, time.Hour)
	s := r.WS[0].Session
	want, err := s.MapContext("[home]") // the miss that takes the lease
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if pair, err := s.MapContext("[home]"); err != nil || pair != want {
			t.Fatalf("leased MapContext = %v, %v; want %v", pair, err, want)
		}
	})
	if allocs != 0 {
		t.Fatalf("a lease-hit MapContext allocates %v allocs/op, want 0", allocs)
	}
	if st := s.LeaseCacheStats(); st.Misses != 1 || st.Hits < 1000 {
		t.Fatalf("lease stats %+v, want one miss and every later op a hit", st)
	}
}
