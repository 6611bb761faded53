package experiments

// A15 reruns A14's chaos leg — the identical crash/restart schedule,
// workload, pacing and seed — against the replicated rig
// (Config.Replicas = 3, PROTOCOL.md §11): three identically seeded
// read-only fs1 members, each registered as the storage service. In A14
// the fs1 host IS the fs1 service: the health report's availability is
// the service's. With replication the host still takes both scheduled
// outages, but the client's only exposure is the one send to the dead
// member — the kernel's dead-host detection — before its retry
// re-resolves [bin] by GetPid to the next live member, and every
// operation succeeds. Everything is virtual time, so BENCH_replica.json
// is byte-deterministic.

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/chaos"
	"repro/internal/client"
	"repro/internal/rig"
	"repro/internal/vtime"
)

// a15RetryPolicy is the fast recovery policy replicated runs use: a
// short first backoff, so the retry that re-resolves the name by GetPid
// follows the failed send closely. A14's default policy (50 ms base)
// would park the client for no gain: a live member is always there.
func a15RetryPolicy() client.RetryPolicy {
	return client.RetryPolicy{MaxAttempts: 6, BaseDelay: 10 * time.Millisecond, MaxDelay: 80 * time.Millisecond}
}

// a15Collect runs the replicated chaos leg once. Its leg reads the
// completed operations, the client's backoff downtime, the slowest
// operation (slowest_op_ns) and each crash's failover (failover<i>_ns:
// the latency of the first operation issued after crash i); its series
// holds the registry counters and the health report.
func a15Collect() (Result, error) {
	// The workload is byte-for-byte A14's: FS2 still carries the
	// standard-programs mirror (it just never gets the traffic now — the
	// other fs1 members are lower hosts in GetPid order).
	const ops = a14ChaosOps
	sc := a14ChaosScenario(3)
	var crashes []vtime.Time
	for _, ev := range sc.Faults {
		if ev.Action == chaos.Crash {
			crashes = append(crashes, ev.At)
		}
	}
	var failovers []time.Duration
	var slowest time.Duration
	timed := func(s *client.Session, i int) error {
		start := s.Proc().Now()
		err := rig.OpenClose("[bin]hello")(s, i)
		d := s.Proc().Now() - start
		slowest = max(slowest, d)
		if n := len(failovers); n < len(crashes) && start >= crashes[n] {
			failovers = append(failovers, d)
		}
		return err
	}
	ev, snap, health, err := a14ChaosLoad(sc, timed)
	if err != nil {
		return Result{}, fmt.Errorf("a15: %w", err)
	}
	if ev.Completed != ops {
		return Result{}, fmt.Errorf("a15: %d/%d operations failed under replication", ops-ev.Completed, ops)
	}
	fs1, err := fs1Health(health)
	if err != nil {
		return Result{}, fmt.Errorf("a15: %w", err)
	}
	downtime := time.Duration(total(snap, "client_backoff_ns_total"))
	rd := reads{"completed": float64(ev.Completed), "downtime_ns": float64(downtime), "slowest_op_ns": float64(slowest)}
	for i, d := range failovers {
		rd[fmt.Sprintf("failover%d_ns", i)] = float64(d)
	}
	leg := Leg{
		Label:    "replicated fs1: three members under the A14 crash/restart schedule",
		Scenario: &sc,
		Series: &Series{
			Counters: counterPoints(snap, "chaos_events_total", "client_ops_total",
				"client_op_failures_total", "client_retries_total", "client_rebinds_total",
				"client_failovers_total", "kernel_send_failures_total"),
			Health: health,
		},
		Reads: rd,
	}

	// Availability is client-observed: 1 − backoff downtime/horizon, in
	// the microseconds the health report keeps.
	availability := 1 - float64(downtime.Microseconds())/float64(health.HorizonUS)
	slices.Sort(failovers)
	var p50, p99 time.Duration
	if n := len(failovers); n > 0 {
		p50, p99 = failovers[n/2], failovers[n-1]
	}
	rows := []Row{
		{Label: "client-observed availability", Paper: "-",
			Measured: fmt.Sprintf("%.3f", availability),
			Note:     "1 − backoff downtime/horizon; the unreplicated A14 service measured 0.667"},
		{Label: "operation success under chaos", Paper: "-",
			Measured: fmt.Sprintf("%d/%d", ev.Completed, ops),
			Note:     "every op retried through to a live member; A14 succeeded 1.00 only via the FS2 copy"},
		{Label: "failover latency, p50 / p99", Paper: "-",
			Measured: usms(p50.Microseconds()) + " / " + usms(p99.Microseconds()),
			Note:     fmt.Sprintf("first op after each of %d crashes: dead-host detection + GetPid re-resolution", len(failovers))},
		{Label: "slowest operation", Paper: "-",
			Measured: usms(slowest.Microseconds()),
			Note:     "no op waits longer than one detection plus one re-resolution"},
		{Label: "fs1 host availability", Paper: "-",
			Measured: fmt.Sprintf("%.3f", fs1.Availability),
			Note:     "the host still takes both scheduled outages — the service no longer cares"},
	}
	return Result{Legs: []Leg{leg}, Rows: rows}, nil
}
