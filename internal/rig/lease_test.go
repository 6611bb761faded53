package rig

import (
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
			if _, ev := mustRun(t, sc); ev.Client.Hits == 0 || ev.Client.Misses == 0 || ev.Client.Renewals == 0 {
				t.Fatalf("degenerate class mix (%+v); the test needs hits, misses and renewals", ev.Client)
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

	ev := schedules{shape: sc, twice: true}.run(t)[0]
	allFired(t, ev)
	if log := strings.Join(ev.ChaosLog, "\n"); strings.Contains(log, "error") {
		t.Fatalf("redefine event failed:\n%s", log)
	}
	if ev.Completed == 0 || len(ev.Journal) == 0 {
		t.Fatalf("%d operations completed despite lane-confined lease hits, %d events sealed", ev.Completed, len(ev.Journal))
	}

	// The redefinition's callback barrier reached the shard0 holders: at
	// least one client observed its lease dropped out from under it.
	invalidated := 0
	for _, c := range ev.Topology.Clients[:sc.ClientsPerShard] {
		invalidated += c.Session.LeaseCacheStats().Invalidations
	}
	if invalidated == 0 {
		t.Fatal("redefinition invalidated no shard0 lease holder")
	}

	// The invariant itself is the harness's trace oracle: every lease
	// stamp spans at most the configured length, no hit outlives its
	// lease, and no hit backed by a pre-redefinition grant runs more than
	// one lease length past the redefinition's commit. Here, that it was
	// held to the lease, and that any stale window is within it.
	if ev.Bound != sc.Lease || ev.WidestStale > sc.Lease {
		t.Fatalf("bound %v, widest stale window %v, want both within the lease %v", ev.Bound, ev.WidestStale, sc.Lease)
	}

	// The paper testbed runs through the same Run: a faulted paced run,
	// fs1 unreplicated or three members, equals its sequential reference.
	policy := client.DefaultRetryPolicy()
	for _, replicas := range []int{0, 3} {
		paper := Scenario{Kind: Paper, Users: []string{"mann"}, Seed: 1, Retry: &policy, Replicas: replicas,
			Requests: 100, FlushEvery: 25, Faults: chaos.TwoOutages("fs1"), Sequential: true}
		if _, ev := mustRun(t, paper); len(ev.ChaosLog) < 2 {
			t.Fatalf("paper run, %d replicas: fired %d events", replicas, len(ev.ChaosLog))
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
		if ev.Bound != tc.want {
			t.Fatalf("head-1/%d: bound %v, want %v", tc.every, ev.Bound, tc.want)
		}
	}
}
