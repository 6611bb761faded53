package trace

import (
	"strings"
	"testing"
	"time"

	"repro/internal/vtime"
)

// leaseSpan records one KindLease span ("<event> <name>") with a stamp,
// the shape the client cache, prefix server, and ncache tier emit.
func leaseSpan(tr *Tracer, name string, start, grant, expire vtime.Time) SpanID {
	return tr.Lease(0, Name{Head: name}, start, ProcID{}, grant, expire)
}

// TestCheckLeaseInvariantClean feeds the checker a protocol-clean lease
// history: a grant spanning exactly the bound, hits strictly inside
// their lease, an invalidation commit, one stale-but-bounded hit riding
// the pre-commit grant, and a fresh post-commit grant. The checker must
// accept it, and StaleWindows must report exactly the one bounded
// window.
func TestCheckLeaseInvariantClean(t *testing.T) {
	const L = 80 * time.Millisecond
	ms := func(n int) vtime.Time { return vtime.Time(n) * vtime.Time(time.Millisecond) }
	tr := New()
	leaseSpan(tr, "grant shard0", ms(10), ms(10), ms(90))
	leaseSpan(tr, "hit shard0", ms(40), ms(10), ms(90))
	leaseSpan(tr, "negative-hit nosuch", ms(45), ms(20), ms(100))
	leaseSpan(tr, "invalidate shard0", ms(50), 0, 0)
	// Stale but bounded: granted before the commit, served 39 ms past it
	// — legal, strictly before its own expiry.
	leaseSpan(tr, "hit shard0", ms(89), ms(10), ms(90))
	leaseSpan(tr, "expired shard0", ms(95), 0, 0)
	leaseSpan(tr, "renew shard0", ms(95), ms(95), ms(175))
	leaseSpan(tr, "hit shard0", ms(100), ms(95), ms(175))

	spans := tr.Snapshot()
	if err := Check(spans, CheckOptions{Model: vtime.DefaultModel(), LeaseBound: L}); err != nil {
		t.Fatalf("clean lease trace rejected: %v", err)
	}
	ws := StaleWindows(spans)
	if len(ws) != 1 {
		t.Fatalf("stale windows = %+v, want exactly the bounded one", ws)
	}
	w := ws[0]
	if w.Name != "shard0" || w.Commit != int64(ms(50)) || w.Hit != int64(ms(89)) || w.Window != int64(39*time.Millisecond) {
		t.Fatalf("widest window = %+v", w)
	}
	// The post-commit hit rides a fresh grant: no window, no violation.
	if err := Check(spans, CheckOptions{Model: vtime.DefaultModel()}); err != nil {
		t.Fatalf("zero LeaseBound must skip the lease invariant: %v", err)
	}
}

// TestCheckLeaseViolations feeds the checker one violating trace per
// clause of invariant #7 and requires each to be caught — the suite
// that proves the staleness bound is asserted, not assumed.
func TestCheckLeaseViolations(t *testing.T) {
	const L = 80 * time.Millisecond
	ms := func(n int) vtime.Time { return vtime.Time(n) * vtime.Time(time.Millisecond) }
	for _, tc := range []struct {
		label string
		build func(tr *Tracer)
		want  string
	}{
		{
			"stamp beyond bound",
			func(tr *Tracer) {
				leaseSpan(tr, "grant shard0", ms(10), ms(10), ms(200))
			},
			"beyond",
		},
		{
			"hit at expiry",
			func(tr *Tracer) {
				leaseSpan(tr, "hit shard0", ms(90), ms(10), ms(90))
			},
			"at or after its expiry",
		},
		{
			"negative hit past expiry",
			func(tr *Tracer) {
				leaseSpan(tr, "negative-hit nosuch", ms(95), ms(10), ms(90))
			},
			"at or after its expiry",
		},
		{
			"stale read past the bound",
			func(tr *Tracer) {
				// An unstamped hit dodges the stamp and expiry clauses (a
				// legally-stamped hit provably cannot outrun the bound:
				// start < grant+L ≤ Ti+L). The cross-commit clause is the
				// defense in depth that catches it anyway.
				leaseSpan(tr, "invalidate shard0", ms(20), 0, 0)
				leaseSpan(tr, "hit shard0", ms(101), 0, 0)
			},
			"stale read",
		},
		{
			"widest of several windows past the bound",
			func(tr *Tracer) {
				// Two commits and two unstamped hits: only the window from
				// the first commit to the second hit, 81 ms, passes the
				// bound; the judgement is on the widest window per name.
				leaseSpan(tr, "invalidate shard0", ms(20), 0, 0)
				leaseSpan(tr, "hit shard0", ms(30), 0, 0)
				leaseSpan(tr, "invalidate shard0", ms(60), 0, 0)
				leaseSpan(tr, "hit shard0", ms(101), 0, 0)
			},
			"stale read",
		},
	} {
		t.Run(tc.label, func(t *testing.T) {
			tr := New()
			tc.build(tr)
			err := Check(tr.Snapshot(), CheckOptions{Model: vtime.DefaultModel(), LeaseBound: L})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("violation not caught: err = %v, want %q", err, tc.want)
			}
			// Without the bound the same trace passes: the invariant is
			// opt-in, so pre-lease traces stay checkable.
			if err := Check(tr.Snapshot(), CheckOptions{Model: vtime.DefaultModel()}); err != nil {
				t.Fatalf("zero LeaseBound must skip the lease invariant: %v", err)
			}
		})
	}
}

// TestStaleWindowsWidestPerName pins StaleWindows' aggregation: several
// stale hits per name collapse to the widest, names sort, and hits
// whose grant postdates the commit are not windows at all.
func TestStaleWindowsWidestPerName(t *testing.T) {
	ms := func(n int) vtime.Time { return vtime.Time(n) * vtime.Time(time.Millisecond) }
	tr := New()
	leaseSpan(tr, "invalidate b", ms(10), 0, 0)
	leaseSpan(tr, "hit b", ms(20), ms(5), ms(85))
	leaseSpan(tr, "hit b", ms(30), ms(5), ms(85))
	leaseSpan(tr, "invalidate a", ms(40), 0, 0)
	leaseSpan(tr, "hit a", ms(41), ms(39), ms(119))
	leaseSpan(tr, "hit a", ms(50), ms(45), ms(125)) // fresh grant: no window
	ws := StaleWindows(tr.Snapshot())
	if len(ws) != 2 || ws[0].Name != "a" || ws[1].Name != "b" {
		t.Fatalf("windows = %+v", ws)
	}
	if ws[0].Window != int64(1*time.Millisecond) || ws[1].Window != int64(20*time.Millisecond) {
		t.Fatalf("windows = %+v", ws)
	}
}
