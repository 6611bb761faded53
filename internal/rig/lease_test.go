package rig

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/client"
	"repro/internal/trace"
)

// leaseShape is the engine-equivalence topology with the lease-coherent
// hierarchy in place of the periodic blind flush: the lease is short
// relative to the run horizon so renewals (Shared re-resolutions through
// the prefix server) recur mid-run, exercising both engine classes.
var leaseShape = Scenario{
	Kind: SharedPrefix, Shards: 4, ClientsPerShard: 4, Requests: 40, Seed: 7,
	Lease: 20 * time.Millisecond,
}

// TestShardedLeaseEquivalence extends the tentpole equivalence guarantee
// to the lease-coherent hierarchy: with leases replacing FlushEvery (and
// optionally the intermediate cache tier interposed), the conservative
// engine's WorkloadResult and cache counters must equal the sequential
// driver's, across team sizes, with lease hits, cold misses and mid-run
// renewals all present. make check runs it under -race.
func TestShardedLeaseEquivalence(t *testing.T) {
	for _, tc := range []struct {
		label string
		team  int
		tier  bool
	}{
		{"team1", 1, false},
		{"team2", 2, false},
		{"team4", 4, false},
		{"tier", 1, true},
	} {
		t.Run(tc.label, func(t *testing.T) {
			sc := leaseShape
			sc.FileServerTeam, sc.CacheTier, sc.Sequential = tc.team, tc.tier, true
			res, ev := mustRun(t, sc)
			if want := sc.Shards * sc.ClientsPerShard * sc.Requests; res.Requests != want {
				t.Fatalf("issued %d requests, want %d", res.Requests, want)
			}
			if ev.Errors != 0 {
				t.Fatalf("%d errors", ev.Errors)
			}
			if !ev.EqualToSequential {
				t.Fatalf("leased result or cache counters differ from sequential\npar: %+v\ncache: %+v", res, ev.Client)
			}
			if st := ev.Client; st.Hits == 0 || st.Misses == 0 || st.Renewals == 0 {
				t.Fatalf("degenerate class mix (%+v); the test needs hits, misses and renewals", st)
			}
		})
	}
}

// TestRunScenarioDeterministic is the headline staleness run, twice: the
// A14 crash schedule plus a mid-run redefinition of a live prefix, driven
// through the conservative engine with leases bounding staleness instead
// of periodic flushes. The redefinition fires at a quiescent cut — an
// admin session on the prefix host deletes and re-adds [shard0], so the
// callback barrier must reach every lease holder before the mutation
// returns. Results, chaos logs and the sealed flight journals must be
// deeply equal across the two runs, the outages client-visible, and the
// recorded trace must satisfy the lease staleness bound (trace.Check
// invariant #7): no read is served from a binding more than one lease
// length after it was redefined.
func TestRunScenarioDeterministic(t *testing.T) {
	sc := sharedPrefixShape
	sc.FlushEvery = 0
	sc.Lease = 80 * time.Millisecond
	sc.Trace = true
	// Leases make the run far cheaper than the flush-driven shape —
	// stretch the quota so the horizon covers the whole schedule.
	sc.Requests = 150
	// The A14 outage pattern (two crash/restart cycles of the shared
	// prefix host), compressed to the lease-era horizon: without the
	// blind flushes the same request quota spans far less virtual
	// time, so the outages land earlier to stay inside the run.
	sc.Faults = []chaos.Event{
		{At: 150 * time.Millisecond, Action: chaos.Redefine, Name: "shard0", Note: "redefine shard0"},
		{At: 300 * time.Millisecond, Action: chaos.Crash, Host: "nexus", Note: "first outage"},
		{At: 500 * time.Millisecond, Action: chaos.Restart, Host: "nexus"},
		{At: 700 * time.Millisecond, Action: chaos.Crash, Host: "nexus", Note: "second outage"},
		{At: 850 * time.Millisecond, Action: chaos.Restart, Host: "nexus"},
	}

	res1, ev1 := mustRun(t, sc)
	res2, ev2 := mustRun(t, sc)
	if !reflect.DeepEqual(res1, res2) {
		t.Fatalf("leased chaos run not deterministic\nrun1: %+v\nrun2: %+v", res1, res2)
	}
	if !reflect.DeepEqual(ev1.ChaosLog, ev2.ChaosLog) {
		t.Fatalf("chaos logs differ:\n%v\nvs\n%v", ev1.ChaosLog, ev2.ChaosLog)
	}
	if len(ev1.Journal) == 0 || !reflect.DeepEqual(ev1.Journal, ev2.Journal) {
		t.Fatalf("sealed flight journals differ or are empty (%d vs %d events)", len(ev1.Journal), len(ev2.Journal))
	}
	if len(ev1.ChaosLog) != 5 {
		t.Fatalf("fired %d events, want 5 (redefine + two crash/restart pairs)", len(ev1.ChaosLog))
	}
	if log := strings.Join(ev1.ChaosLog, "\n"); strings.Contains(log, "error") {
		t.Fatalf("redefine event failed:\n%s", log)
	}

	if ev1.Errors == 0 {
		t.Fatal("prefix-host outages were never client-visible (no errors recorded)")
	}
	if ev1.Completed == 0 {
		t.Fatal("no operations completed despite lane-confined lease hits")
	}

	// The redefinition's callback barrier reached the shard0 holders: at
	// least one client observed its lease dropped out from under it.
	invalidated := 0
	for _, c := range ev1.Topology.Clients[:sc.ClientsPerShard] {
		invalidated += c.Session.LeaseCacheStats().Invalidations
	}
	if invalidated == 0 {
		t.Fatal("redefinition invalidated no shard0 lease holder")
	}

	// The invariant itself, asserted rather than eyeballed: every lease
	// stamp spans at most the configured length, no hit outlives its
	// lease, and no hit backed by a pre-redefinition grant runs more than
	// one lease length past the redefinition's commit.
	if ev1.Bound != sc.Lease || ev1.TraceErr != nil {
		t.Fatalf("lease staleness invariant (bound %v) violated: %v", ev1.Bound, ev1.TraceErr)
	}
	// Any stale windows the trace does contain are bounded by the lease.
	if ev1.WidestStale > sc.Lease {
		t.Fatalf("stale window %v exceeds the lease bound %v", ev1.WidestStale, sc.Lease)
	}

	// The paper testbed runs through the same Run: a faulted paced run,
	// fs1 unreplicated or three members, equals its sequential reference.
	policy := client.DefaultRetryPolicy()
	for _, replicas := range []int{0, 3} {
		paper := Scenario{Kind: Paper, Users: []string{"mann"}, Seed: 1, Retry: &policy, Replicas: replicas,
			Requests: 100, FlushEvery: 25, Faults: chaos.TwoOutages("fs1"), Sequential: true}
		_, ev := mustRun(t, paper)
		if len(ev.ChaosLog) < 2 || !ev.EqualToSequential {
			t.Fatalf("paper run, %d replicas: fired %d events, equal to sequential %v", replicas, len(ev.ChaosLog), ev.EqualToSequential)
		}
	}
}

// TestHeadOneSamplerKeepsLeaseBound: a head-1/1 sampler keeps every root,
// and with them every grant, so the lease staleness invariant stays on
// and the evidence's Bound is the scenario's lease. A sampler that drops
// roots turns it off.
func TestHeadOneSamplerKeepsLeaseBound(t *testing.T) {
	for _, tc := range []struct {
		every int
		want  time.Duration
	}{{1, leaseShape.Lease}, {2, 0}} {
		sc := leaseShape
		sc.TraceSample = &trace.SampleConfig{HeadEvery: tc.every}
		_, ev := mustRun(t, sc)
		if ev.Bound != tc.want || ev.TraceErr != nil {
			t.Fatalf("head-1/%d: bound %v (want %v), trace check %v", tc.every, ev.Bound, tc.want, ev.TraceErr)
		}
	}
}
