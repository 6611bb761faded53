package experiments

import (
	"errors"
	"fmt"

	"repro/internal/chaos"
	"repro/internal/client"
	"repro/internal/metrics"
	"repro/internal/proto"
	"repro/internal/rig"
	"repro/internal/vtime"
)

// A14 turns the paper's §3.1 point estimates into full latency
// distributions using the virtual-time metrics registry: the 2.56 ms
// remote transaction as a histogram median, the A11 team sweep as
// serve-latency percentiles, and an FS1 crash/restart schedule as a
// health/SLO report with availability windows and client-visible
// degradation intervals. Everything is virtual time, so the whole
// document (BENCH_metrics.json) is byte-deterministic.

// a14TeamSizes is the serve-latency team sweep (a subset of A11's).
var a14TeamSizes = []int{1, 2, 4}

// usms renders a microsecond quantity in the paper's milliseconds unit.
func usms(u int64) string { return vtime.Milliseconds(vtime.Time(u) * 1000) }

// histPoints returns every histogram point with the given name.
func histPoints(snap metrics.Snapshot, name string) []metrics.HistPoint {
	var out []metrics.HistPoint
	for _, h := range snap.Histograms {
		if h.Name == name {
			out = append(out, h)
		}
	}
	return out
}

// findHist locates one histogram point by name and labels.
func findHist(snap metrics.Snapshot, name string, l metrics.Labels) (metrics.HistPoint, bool) {
	for _, h := range snap.Histograms {
		if h.Name == name && h.Labels == l {
			return h, true
		}
	}
	return metrics.HistPoint{}, false
}

// counterPoints returns the counters whose names appear in names, in
// snapshot (sorted) order.
func counterPoints(snap metrics.Snapshot, names ...string) []metrics.CounterPoint {
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	var out []metrics.CounterPoint
	for _, c := range snap.Counters {
		if want[c.Name] {
			out = append(out, c)
		}
	}
	return out
}

// total sums snap's counters with the given name across labels.
func total(snap metrics.Snapshot, name string) uint64 {
	return metrics.Sample{Counters: snap.Counters}.Total(name)
}

// a14Uncontended reruns the E1 remote transaction with the registry
// watching: one client, 100 32-byte Send-Receive-Reply transactions to
// an echo process on the file-server host. Every transaction costs the
// same, so the send_latency histogram is degenerate and its median is
// the paper's 2.56 ms exactly.
func a14Uncontended() (Leg, metrics.HistPoint, error) {
	sc := a14Scenario(0)
	r, err := rig.New(sc)
	if err != nil {
		return Leg{}, metrics.HistPoint{}, err
	}
	echo, err := startEcho(r.FS1Host)
	if err != nil {
		return Leg{}, metrics.HistPoint{}, err
	}
	cli, err := r.WS[0].Host.NewProcess("echo-client")
	if err != nil {
		return Leg{}, metrics.HistPoint{}, err
	}
	const trials = 100
	if _, err := echoTimes(cli, echo.PID(), trials); err != nil {
		return Leg{}, metrics.HistPoint{}, err
	}
	snap := r.Metrics.Snapshot().Deterministic()
	p, ok := findHist(snap, "send_latency", metrics.Labels{Server: "echo", Op: proto.OpEcho.String()})
	if !ok {
		return Leg{}, metrics.HistPoint{}, fmt.Errorf("a14: no send_latency{echo,%s} histogram", proto.OpEcho)
	}
	if p.Count != trials {
		return Leg{}, metrics.HistPoint{}, fmt.Errorf("a14: send_latency count = %d, want %d", p.Count, trials)
	}
	return Leg{
		Label:    "uncontended remote transaction: 1 client, 100 x 32-byte echo, separate hosts",
		Scenario: &sc,
		Series: &Series{
			Histograms: histPoints(snap, "send_latency"),
			Counters: counterPoints(snap, "kernel_sends_total", "kernel_replies_total",
				"wire_frames_total", "wire_bytes_total"),
		},
	}, p, nil
}

// a14Scenario is the paper testbed with one workstation and the given
// file-server team size.
func a14Scenario(team int) rig.Scenario {
	return rig.Scenario{Kind: rig.Paper, Users: []string{"mann"}, Seed: 1, ReadAhead: true, FileServerTeam: team}
}

// a14Team drives the A11 cache-hit phase (8 co-resident clients
// repeatedly querying a deep path) at the given file-server team size
// and returns the serve-latency distribution the registry collected.
func a14Team(team int) (Leg, metrics.HistPoint, error) {
	sc := a14Scenario(team)
	r, err := rig.New(sc)
	if err != nil {
		return Leg{}, metrics.HistPoint{}, err
	}
	clients, err := a11HotPhase(r, r.Sampler.AdvanceTo)
	if err != nil {
		return Leg{}, metrics.HistPoint{}, err
	}
	if err := noErrors(rig.RunWorkload(clients), fmt.Sprintf("a14 team=%d", team)); err != nil {
		return Leg{}, metrics.HistPoint{}, err
	}
	snap := r.Metrics.Snapshot().Deterministic()
	// The client-observed transaction latency (send_latency) carries the
	// contention story: with one serving process requests queue behind its
	// clock, with a team they overlap. serve_latency (per-request service
	// time on the worker) stays flat by construction and is kept in the
	// document for that contrast.
	lbl := metrics.Labels{Server: r.FS1.Proc().Name(), Op: proto.OpQueryObject.String()}
	p, ok := findHist(snap, "send_latency", lbl)
	if !ok {
		return Leg{}, metrics.HistPoint{}, fmt.Errorf("a14 team=%d: no send_latency histogram for %+v", team, lbl)
	}
	return Leg{
		Label:    fmt.Sprintf("contended queries: %d clients, file-server team=%d", a11HotClients, team),
		Scenario: &sc,
		Series: &Series{
			Histograms: append(histPoints(snap, "send_latency"), histPoints(snap, "serve_latency")...),
			Counters: counterPoints(snap, "server_requests_total", "server_handoffs_total",
				"kernel_forwards_total"),
			RequestsPerTick: metrics.CounterSeries(r.Sampler.Samples(), "server_requests_total"),
		},
	}, p, nil
}

// a14Chaos runs the A10 failover workload (dynamic [bin] binding, FS2
// replica, recovery policy on) under the fixed crash/restart schedule
// and derives the health report: FS1's availability windows must match
// the schedule, and the degraded intervals must cover the outages the
// client actually felt. The client runs the invalidate-and-retry name
// cache and flushes it periodically (fresh program instances start with
// empty caches), so each FS1 outage catches a cached resolution stale —
// without the cache, the dynamic binding re-resolves per use and the
// client never touches the dead pid.
func a14Chaos() (Leg, error) {
	sc := a14ChaosScenario(0)
	ev, snap, health, err := a14ChaosLoad(sc, rig.OpenClose("[bin]hello"))
	if err != nil {
		return Leg{}, err
	}
	return Leg{
		Label:    "chaos: FS1 crash/restart schedule, dynamic binding + retry, FS2 replica",
		Scenario: &sc,
		Series: &Series{
			Histograms: histPoints(snap, "send_latency"),
			Counters: counterPoints(snap, "chaos_events_total", "client_ops_total",
				"client_op_failures_total", "client_retries_total", "client_rebinds_total",
				"client_failovers_total", "prefix_forwards_total", "prefix_rebinds_total",
				"prefix_dead_targets_total", "kernel_send_failures_total"),
			RequestsPerTick: metrics.CounterSeries(ev.Topology.Sampler.Samples(), "client_ops_total"),
			FailuresPerTick: metrics.CounterSeries(ev.Topology.Sampler.Samples(), "client_op_failures_total"),
			Health:          health,
		},
		Reads: reads{"completed": float64(ev.Completed)},
	}, nil
}

// a14ChaosOps is the chaos leg's operation count.
const a14ChaosOps = 150

// a14ChaosScenario is the chaos leg's rig: recovery on, the name cache
// flushed every 25 operations, the two-outage fs1 schedule. With replicas
// > 1 it is A15's, replicated that many ways under the fast policy.
func a14ChaosScenario(replicas int) rig.Scenario {
	policy := client.DefaultRetryPolicy()
	if replicas > 1 {
		policy = a15RetryPolicy()
	}
	return rig.Scenario{
		Kind: rig.Paper, Users: []string{"mann"}, Seed: 1, ReadAhead: true, Retry: &policy, Replicas: replicas,
		Requests: a14ChaosOps, FlushEvery: 25, Faults: chaos.TwoOutages("fs1"),
	}
}

// a14ChaosLoad boots sc and paces the A10 failover shape through it
// (dynamic [bin] binding, FS2 mirror, name cache on), byte for byte the
// same for A14 and A15: the evidence, the registry's deterministic
// snapshot, its health report at the horizon, and the run's verdict.
// op opens and closes [bin]hello; A15's also times it.
func a14ChaosLoad(sc rig.Scenario, op func(*client.Session, int) error) (ev rig.Evidence, snap metrics.Snapshot, health *metrics.HealthReport, err error) {
	r, err := rig.New(sc)
	if err == nil {
		err = r.MirrorBinOnFS2()
	}
	if err != nil {
		return ev, snap, nil, err
	}
	s := r.WS[0].Session
	s.EnableNameCache(true)
	r.Clients[0].Op = op
	_, ev, err = r.Run()
	snap = r.Metrics.Snapshot().Deterministic()
	return ev, snap, metrics.Health(snap, r.Sampler.Samples(), s.Proc().Now(), 0.90), err
}

// fs1Health finds the fs1 host's entry in a health report.
func fs1Health(h *metrics.HealthReport) (*metrics.ServerHealth, error) {
	for i := range h.Servers {
		if h.Servers[i].Host == "fs1" {
			return &h.Servers[i], nil
		}
	}
	return nil, errors.New("health report has no fs1 entry")
}

// a14Collect runs every leg once, producing the legs and the experiment
// rows from the same data.
func a14Collect() (Result, error) {
	var res Result
	uleg, up, err := a14Uncontended()
	if err != nil {
		return Result{}, err
	}
	res.Legs = append(res.Legs, uleg)
	res.Rows = append(res.Rows,
		Row{Label: "remote transaction, median", Paper: "2.56 ms", Measured: usms(up.P50US),
			Note: "send_latency{echo,Echo} over 100 transactions"},
		Row{Label: "remote transaction, p99 / max", Paper: "-",
			Measured: usms(up.P99US) + " / " + usms(up.MaxUS),
			Note:     "uncontended: the distribution is degenerate"},
	)

	for _, team := range a14TeamSizes {
		leg, p, err := a14Team(team)
		if err != nil {
			return Result{}, err
		}
		res.Legs = append(res.Legs, leg)
		res.Rows = append(res.Rows, Row{
			Label:    fmt.Sprintf("team=%d query latency, p50 / p99", team),
			Paper:    a11Paper(team, "serializes", "overlaps"),
			Measured: usms(p.P50US) + " / " + usms(p.P99US),
			Note:     fmt.Sprintf("send_latency{fs1,QueryObject}, %d requests, 8 clients", p.Count),
		})
	}

	cleg, err := a14Chaos()
	if err != nil {
		return Result{}, err
	}
	res.Legs = append(res.Legs, cleg)
	health := cleg.Series.Health
	fs1, err := fs1Health(health)
	if err != nil {
		return Result{}, fmt.Errorf("a14: %w", err)
	}
	res.Rows = append(res.Rows,
		Row{Label: "fs1 availability under chaos", Paper: "-",
			Measured: fmt.Sprintf("%.3f", fs1.Availability),
			Note: fmt.Sprintf("%d outages, %d degraded windows, SLO %.0f%%",
				len(fs1.Outages), len(health.Degraded), health.SLO*100)},
		Row{Label: "operation success under chaos", Paper: "-",
			Measured: fmt.Sprintf("%.2f", cleg.Reads["completed"]/a14ChaosOps),
			Note:     "dynamic binding + retry cache-free failover to FS2"},
	)
	return res, nil
}
