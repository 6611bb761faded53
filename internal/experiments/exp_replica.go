package experiments

// A15 reruns A14's chaos leg — the identical crash/restart schedule,
// workload, pacing and seed — against the read-only replicated rig
// (Config.Replicas = 3, PROTOCOL.md §11). In A14 the fs1 host IS the
// fs1 service: the health report's availability is the service's. With
// replication the host still takes both scheduled outages, but
// the service fails over — the client's only exposure is the
// stale-cache send to the dead leader front plus the short leaderless
// window, and every operation succeeds. Everything is virtual time, so
// BENCH_replica.json is byte-deterministic.

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/client"
	"repro/internal/metrics"
)

// a15RetryPolicy is the fast recovery policy replicated runs use:
// elections complete within tens of virtual milliseconds, so short
// backoffs keep the leaderless window — the only client-visible
// downtime — small. A14's default policy (50 ms base) would park the
// client past whole elections.
func a15RetryPolicy() client.RetryPolicy {
	return client.RetryPolicy{MaxAttempts: 6, BaseDelay: 10 * time.Millisecond, MaxDelay: 80 * time.Millisecond}
}

// ReplicaDoc is the BENCH_replica.json schema.
type ReplicaDoc struct {
	Tool        string `json:"tool"`
	Description string `json:"description"`

	OpsTotal  int `json:"ops_total"`
	OpsFailed int `json:"ops_failed"`

	// Availability is client-observed: 1 − backoff-downtime/horizon.
	Availability float64 `json:"availability"`
	// HostAvailability is the fs1 host's share of the horizon spent up —
	// replication does nothing for the host, only for the service.
	HostAvailability float64 `json:"host_availability"`
	DowntimeUS       int64   `json:"downtime_us"`
	HorizonUS        int64   `json:"horizon_us"`

	FailoverP50US int64   `json:"failover_p50_us"`
	FailoverP99US int64   `json:"failover_p99_us"`
	FailoversUS   []int64 `json:"failovers_us"`

	// Events is the replication group's event log: elections, crash
	// notices, rejoins, snapshot syncs and leadership transfers, with
	// exact virtual timestamps. Byte-identical across runs.
	Events []string `json:"events"`

	Counters []metrics.CounterPoint `json:"counters,omitempty"`
	Health   *metrics.HealthReport  `json:"health,omitempty"`
}

// a15Collect runs the replicated chaos leg once, producing both the
// JSON document and the experiment rows from the same data.
func a15Collect() (*ReplicaDoc, []Row, error) {
	// The workload is byte-for-byte A14's: FS2 still carries the
	// standard-programs mirror (it just never gets the traffic now — the
	// group's own standbys are closer in GetPid order).
	const ops = a14ChaosOps
	r, ok, horizon, err := a14ChaosLoad(a14ChaosScenario(3))
	if err != nil {
		return nil, nil, err
	}

	sum := r.ResilienceSummary()
	snap := r.Metrics.Snapshot().Deterministic()
	health := metrics.Health(snap, r.Sampler.Samples(), horizon, 0.90)
	fs1, err := fs1Health(health)
	if err != nil {
		return nil, nil, fmt.Errorf("a15: %w", err)
	}
	if ok != ops {
		return nil, nil, fmt.Errorf("a15: %d/%d operations failed under replication", ops-ok, ops)
	}

	doc := &ReplicaDoc{
		Tool:        "vbench -replica",
		Description: "consensus-replicated fs1 under the A14 crash/restart schedule: client-observed availability and failover latency",
		OpsTotal:    ops,
		OpsFailed:   ops - ok,
		DowntimeUS:  sum.Client.Downtime.Microseconds(),
		HorizonUS:   horizon.Microseconds(),
		Events:      r.FSR.Group.Events(),
		Counters: counterPoints(snap, "chaos_events_total", "client_ops_total",
			"client_op_failures_total", "client_retries_total", "client_rebinds_total",
			"client_failovers_total", "kernel_send_failures_total"),
		Health:           health,
		HostAvailability: fs1.Availability,
	}
	doc.Availability = 1 - float64(doc.DowntimeUS)/float64(doc.HorizonUS)
	for _, d := range r.FSR.Group.Failovers() {
		doc.FailoversUS = append(doc.FailoversUS, d.Microseconds())
	}
	if n := len(doc.FailoversUS); n > 0 {
		sorted := append([]int64(nil), doc.FailoversUS...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		doc.FailoverP50US = sorted[n/2]
		doc.FailoverP99US = sorted[n-1]
	}

	rows := []Row{
		{Label: "client-observed availability", Paper: "-",
			Measured: fmt.Sprintf("%.3f", doc.Availability),
			Note:     "1 − backoff downtime/horizon; the unreplicated A14 service measured 0.667"},
		{Label: "operation success under chaos", Paper: "-",
			Measured: fmt.Sprintf("%d/%d", ok, ops),
			Note:     "every op retried through to a live leader; A14 succeeded 1.00 only via the FS2 copy"},
		{Label: "failover latency, p50 / p99", Paper: "-",
			Measured: usms(doc.FailoverP50US) + " / " + usms(doc.FailoverP99US),
			Note:     fmt.Sprintf("%d crash-triggered elections (seeded timeouts + election round)", len(doc.FailoversUS))},
		{Label: "fs1 host availability", Paper: "-",
			Measured: fmt.Sprintf("%.3f", doc.HostAvailability),
			Note:     "the host still takes both scheduled outages — the service no longer cares"},
	}
	return doc, rows, nil
}
