package experiments

// A17 measures the lease-coherent name-cache hierarchy (PROTOCOL.md
// §13): clients hold lease-stamped resolutions, the prefix server
// invalidates holders by callback barrier before a redefinition
// returns, and an optional intermediate cache tier amortizes upstream
// leases into bounded sub-leases. Three legs:
//
//   - a hit-rate sweep over lease length, with and without the tier,
//     each point run through both the sequential driver and the
//     conservative engine and deep-compared (the coherence protocol
//     must not perturb the equivalence guarantee A16 established);
//   - the A14 outage pattern (two crash/restart cycles of the shared
//     prefix host) with leases replacing the periodic blind flush,
//     plus a mid-run redefinition fired at a quiescent cut — the
//     recorded trace must satisfy the lease staleness invariant
//     (trace.Check #7);
//   - a partition leg: the prefix host is cut off and the name is
//     redefined while its lease holders are unreachable, so the
//     callback barrier reaches nobody and the stale windows the trace
//     records must be non-empty yet bounded by the lease length — the
//     degraded-mode guarantee the hierarchy exists for.
//
// Everything here is virtual time: the documents are byte-identical
// across runs and pinned by golden-guard.

import (
	"fmt"
	"time"

	"repro/internal/chaos"
	"repro/internal/rig"
)

// a17 shapes. The sweep reuses the A16 topology; the chaos legs stretch
// the request quota so the run horizon covers the fault schedule (leases
// make the workload far cheaper than the flush-driven shape).
const (
	a17ClientsPerShard = 4
	a17Shards          = 4
	a17Requests        = 40
	a17Seed            = 7
	a17ChaosRequests   = 150
	a17ChaosLease      = 80 * time.Millisecond
)

// a17LeaseSweep is the lease-length sweep.
var a17LeaseSweep = []time.Duration{20 * time.Millisecond, 80 * time.Millisecond, 320 * time.Millisecond}

// a17SweepScenario is one sweep point: the A16 topology with leases in
// place of the blind flush, double-run against the sequential reference.
func a17SweepScenario(lease time.Duration, tier bool) rig.Scenario {
	return rig.Scenario{
		Kind:            rig.SharedPrefix,
		Shards:          a17Shards,
		ClientsPerShard: a17ClientsPerShard,
		Requests:        a17Requests,
		Seed:            a17Seed,
		Lease:           lease,
		CacheTier:       tier,
		Sequential:      true,
	}
}

// a17ChaosScenario is a fault leg: the leased topology, traced, with the
// request quota stretched to cover the schedule. Each Redefine deletes
// and re-adds [shard0] at a quiescent cut — the mutation whose
// invalidation barrier (or, under partition, whose unreachable holders)
// the leg measures.
//
// The "crash" leg is the A14 outage pattern compressed to the lease-era
// horizon, with the redefinition fired between grants and the first
// outage: the callback barrier runs while every holder is reachable, so
// the trace must contain no stale window at all.
//
// The "partition" leg cuts the prefix host off and redefines [shard0]
// mid-partition: the admin session is co-resident with the server, so
// the mutation commits locally, but the callback barrier reaches no
// holder — every partitioned client keeps serving the old binding until
// its lease lapses. The stale windows must be non-empty (the callbacks
// demonstrably failed) yet bounded by the lease.
func a17ChaosScenario(kind string) rig.Scenario {
	sc := rig.Scenario{
		Kind:            rig.SharedPrefix,
		Shards:          a17Shards,
		ClientsPerShard: a17ClientsPerShard,
		Requests:        a17ChaosRequests,
		Seed:            a17Seed,
		Lease:           a17ChaosLease,
		Trace:           true,
		Sequential:      true,
	}
	switch kind {
	case "crash":
		sc.Faults = []chaos.Event{
			{At: 150 * time.Millisecond, Action: chaos.Redefine, Name: "shard0", Note: "redefine shard0"},
			{At: 300 * time.Millisecond, Action: chaos.Crash, Host: "nexus", Note: "first outage"},
			{At: 500 * time.Millisecond, Action: chaos.Restart, Host: "nexus"},
			{At: 700 * time.Millisecond, Action: chaos.Crash, Host: "nexus", Note: "second outage"},
			{At: 850 * time.Millisecond, Action: chaos.Restart, Host: "nexus"},
		}
	case "partition":
		sc.Faults = []chaos.Event{
			{At: 250 * time.Millisecond, Action: chaos.Partition, Host: "nexus", Group: 1, Note: "prefix host cut off"},
			{At: 300 * time.Millisecond, Action: chaos.Redefine, Name: "shard0", Note: "redefine shard0 behind the partition"},
			{At: 450 * time.Millisecond, Action: chaos.Heal},
		}
	}
	return sc
}

// a17Collect runs every leg once: the sweep legs read their makespan,
// and the fault legs' trace is the deliverable — their evidence holds the
// fired schedule and the stale windows rig.Run held to the lease.
func a17Collect() (Result, error) {
	var res Result
	for _, tier := range []bool{false, true} {
		for _, lease := range a17LeaseSweep {
			leg, err := runLeg(fmt.Sprintf("lease=%s tier=%v", ms(lease), tier), a17SweepScenario(lease, tier), makespan)
			if err != nil {
				return Result{}, fmt.Errorf("a17 lease=%v tier=%v: %w", lease, tier, err)
			}
			res.Legs = append(res.Legs, leg)
			ev := leg.Evidence
			tierNote := "no tier"
			if tier {
				tierNote = fmt.Sprintf("tier %d/%d hits", ev.Tier.Hits, ev.Tier.Hits+ev.Tier.Misses)
			}
			res.Rows = append(res.Rows, Row{
				Label:    leg.Label,
				Paper:    "-",
				Measured: fmt.Sprintf("%.1f%% client hits", 100*hitRate(ev.Client)),
				Note: fmt.Sprintf("≡ sequential; %d renewals; %s; %d upstream grants",
					ev.Client.Renewals, tierNote, ev.Prefix.Grants),
			})
		}
	}

	crash, err := runLeg("crash: redefine + A14 outages", a17ChaosScenario("crash"), nil)
	if err != nil {
		return Result{}, fmt.Errorf("a17 crash leg: %w", err)
	}
	switch ev := crash.Evidence; {
	case ev.StaleWindows != 0:
		return Result{}, fmt.Errorf("a17 crash leg: %d stale windows despite reachable holders", ev.StaleWindows)
	case ev.Client.Invalidations == 0:
		return Result{}, fmt.Errorf("a17 crash leg: redefinition invalidated no holder")
	case ev.Errors == 0:
		return Result{}, fmt.Errorf("a17 crash leg: outages were never client-visible")
	}
	res.Legs = append(res.Legs, crash)
	res.Rows = append(res.Rows, Row{
		Label:    "crash leg: redefine + A14 outages",
		Paper:    "-",
		Measured: "0 stale windows",
		Note: fmt.Sprintf("trace-checked (bound %s); %d holders invalidated; %d ops failed in outages",
			ms(a17ChaosLease), crash.Evidence.Client.Invalidations, crash.Evidence.Errors),
	})

	part, err := runLeg("partition: redefine behind partition", a17ChaosScenario("partition"), nil)
	if err != nil {
		return Result{}, fmt.Errorf("a17 partition leg: %w", err)
	}
	if part.Evidence.StaleWindows == 0 {
		return Result{}, fmt.Errorf("a17 partition leg: no stale window — the partition never bit")
	}
	res.Legs = append(res.Legs, part)
	res.Rows = append(res.Rows, Row{
		Label:    "partition leg: redefine behind partition",
		Paper:    "-",
		Measured: fmt.Sprintf("widest stale window %s", usms(part.Evidence.WidestStale.Microseconds())),
		Note: fmt.Sprintf("%d windows, all ≤ %s lease; callbacks reached no holder",
			part.Evidence.StaleWindows, ms(a17ChaosLease)),
	})
	return res, nil
}
