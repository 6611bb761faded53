package rig

// The fault tests' one harness. A scenario shape runs over a range of
// seeds, each seed's schedule the shape's own Faults plus what
// chaos.Generate draws from a profile, and every run is held to check —
// the oracle stack Run applies. The tests below are its callers: each
// adds only what its own schedule must show.

import (
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/client"
	"repro/internal/trace"
)

// schedules is one scenario shape over a seed range.
type schedules struct {
	shape   Scenario
	profile chaos.Profile
	// from and to bound the seeds, inclusive. The zero range is the one
	// seed 0, which a zero profile leaves with the shape's own Faults.
	from, to int64
	// netSeed makes each seed the scenario's Seed as well.
	netSeed bool
	// setup, when set, prepares the booted topology before it is driven,
	// for a run Run cannot express: Boot, setup, (*Topology).Run. It has
	// no Sequential reference.
	setup func(*Topology)
	// twice runs each seed again: both runs must agree in result, chaos
	// log, sealed journal, registry snapshot and trace shape.
	twice bool
}

// run runs every seed and returns each one's evidence. It fails the test
// on the first seed that violates an oracle or does not replay, and on a
// range whose schedules never bit: no event fired, or no operation
// failed or was recovered.
func (s schedules) run(t *testing.T) []Evidence {
	t.Helper()
	var evs []Evidence
	fired, bit := 0, 0
	for seed := s.from; seed <= s.to; seed++ {
		sc := s.shape
		sc.Faults = append(slices.Clone(sc.Faults), chaos.Generate(seed, s.profile)...)
		if s.netSeed {
			sc.Seed = seed
		}
		res, ev := s.once(t, seed, sc)
		if s.twice {
			res2, ev2 := s.once(t, seed, sc)
			if what := differs(res, res2, ev, ev2); what != "" {
				t.Fatalf("seed %d: two runs differ in their %s", seed, what)
			}
		}
		fired += len(ev.ChaosLog)
		bit += ev.Errors + int(recovered(ev.Topology, "retries"))
		evs = append(evs, ev)
	}
	if fired == 0 || bit == 0 {
		t.Fatalf("schedules never bit: %d events fired, %d operations failed or recovered", fired, bit)
	}
	return evs
}

// once runs one seed's scenario and fails the test on its verdict.
func (s schedules) once(t *testing.T, seed int64, sc Scenario) (*WorkloadResult, Evidence) {
	t.Helper()
	var res *WorkloadResult
	var ev Evidence
	var err error
	if s.setup == nil {
		res, ev, err = Run(sc)
	} else {
		var top *Topology
		if top, err = sc.Boot(); err == nil {
			s.setup(top)
			res, ev, err = top.Run()
		}
	}
	if err != nil {
		t.Fatalf("seed %d: %v\n%s", seed, err, strings.Join(ev.ChaosLog, "\n"))
	}
	return res, ev
}

// differs names what two runs of one seed disagree on, or "".
func differs(ra, rb *WorkloadResult, a, b Evidence) string {
	for _, c := range []struct {
		what string
		x, y any
	}{
		{"result", ra, rb},
		{"chaos log", a.ChaosLog, b.ChaosLog},
		{"sealed journal", a.Journal, b.Journal},
		{"registry snapshot", a.Topology.Metrics.Snapshot().Deterministic(), b.Topology.Metrics.Snapshot().Deterministic()},
		{"trace shape", traceShape(a.Topology), traceShape(b.Topology)},
	} {
		if !reflect.DeepEqual(c.x, c.y) {
			return c.what
		}
	}
	return ""
}

// traceShape counts a topology's retained spans by kind and failure
// class (nil untraced).
func traceShape(t *Topology) map[string]int {
	if t.Tracer == nil {
		return nil
	}
	h := make(map[string]int)
	for _, sp := range t.Tracer.Snapshot() {
		h[string(sp.Kind)+"/"+sp.Err]++
	}
	return h
}

// allFired fails the test unless the run outlasted its schedule.
func allFired(t *testing.T, ev Evidence) {
	t.Helper()
	if len(ev.ChaosLog) != len(ev.Topology.sc.Faults) {
		t.Fatalf("fired %d of %d events:\n%s", len(ev.ChaosLog), len(ev.Topology.sc.Faults), strings.Join(ev.ChaosLog, "\n"))
	}
}

// TestRunVerdict: Run returns the first oracle a run violates, and so
// does (*Topology).Run on a topology booted and set up by hand (a mirror
// and a name cache, as the paced experiments do). A fault naming no host
// or no action was not carried out; a failed redefine and a restart of a
// live host are logged outcomes the run goes on from, and an event's
// note is free text the verdict does not read. The oracles no plain data
// can violate are held to evidence tampered after a clean run.
func TestRunVerdict(t *testing.T) {
	for _, tc := range []struct {
		name   string
		fault  *chaos.Event
		setup  bool // boot, set up, then (*Topology).Run
		tamper func(*Evidence)
		want   string // a substring of the verdict; "" for none
	}{
		{name: "clean"},
		{name: "clean, set up", setup: true},
		{name: "crash of an unknown host", fault: &chaos.Event{Action: chaos.Crash, Host: "nowhere"}, want: "host=nowhere unknown"},
		{name: "crash of an unknown host, set up", setup: true, fault: &chaos.Event{Action: chaos.Crash, Host: "nowhere"}, want: "host=nowhere unknown"},
		{name: "partition of an unknown host", fault: &chaos.Event{Action: chaos.Partition, Host: "nowhere", Group: 1}, want: "host=nowhere unknown"},
		{name: "restart of an unknown host", fault: &chaos.Event{Action: chaos.Restart, Host: "nowhere"}, want: "host=nowhere unknown"},
		{name: "unknown action", fault: &chaos.Event{Action: chaos.Redefine + 1}, want: "unknown action"},
		{name: "restart of a live fs1", fault: &chaos.Event{Action: chaos.Restart, Host: "fs1", Note: "unknown to none"}},
		{name: "failed redefine", fault: &chaos.Event{Action: chaos.Redefine, Name: "nothing"}},
		{name: "lost operation", tamper: func(ev *Evidence) { ev.Completed-- }, want: "lost"},
		{name: "failure without faults", tamper: func(ev *Evidence) { ev.Completed, ev.Errors = ev.Completed-1, 1 }, want: "without faults"},
		{name: "trace", tamper: func(ev *Evidence) { ev.TraceErr = errors.New("span leaked") }, want: "span leaked"},
	} {
		sc := Scenario{Kind: Paper, Users: []string{"mann"}, Seed: 1, Requests: 10}
		if tc.fault != nil {
			sc.Faults = []chaos.Event{*tc.fault}
		}
		var ev Evidence
		var err error
		if tc.setup {
			r := mustNew(t, sc)
			if err := r.MirrorBinOnFS2(); err != nil {
				t.Fatal(err)
			}
			r.WS[0].Session.EnableNameCache(true)
			_, ev, err = r.Run()
		} else {
			_, ev, err = Run(sc)
		}
		if tc.tamper != nil && err == nil {
			tc.tamper(&ev)
			err = ev.Topology.check(ev)
		}
		if (err == nil) != (tc.want == "") || err != nil && !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: verdict %v, want %q\n%s", tc.name, err, tc.want, strings.Join(ev.ChaosLog, "\n"))
		}
	}
}

// TestFaultedRunEqualsSequential runs generated fault schedules — outages
// of the prefix host and of every shard, and frame-loss pulses — with the
// sequential reference: a one-lane run whose fences fire the same events
// at the same quiescent cuts must agree with the engine in result,
// latencies, cache counters, chaos log and sealed journal.
func TestFaultedRunEqualsSequential(t *testing.T) {
	sc := sharedPrefixShape
	sc.Sequential = true
	schedules{shape: sc, from: 1, to: 20, profile: chaos.Profile{
		Duration:           600 * time.Millisecond,
		Hosts:              []string{"nexus", "shard0", "shard1", "shard2", "shard3"},
		MeanOutageEvery:    200 * time.Millisecond,
		OutageLength:       100 * time.Millisecond,
		MeanLossPulseEvery: 150 * time.Millisecond,
		LossPulseLength:    50 * time.Millisecond,
		LossRate:           0.2,
	}}.run(t)
}

// TestGeneratedReplicatedSchedules runs generated crash/restart and loss
// schedules over fs1's three members, each seed its own network seed too:
// on every schedule the trace holds its invariants, every live member
// still holds the seed image, and every operation either completed or
// failed. Some schedule crashes a member and some client retries.
func TestGeneratedReplicatedSchedules(t *testing.T) {
	policy := replicaRetryPolicy()
	crashes, retries := 0, uint64(0)
	for _, ev := range (schedules{from: 1, to: 20, netSeed: true,
		shape: Scenario{Kind: Paper, Users: []string{"mann"}, ReadAhead: true, Replicas: 3,
			Trace: true, Retry: &policy, Requests: 60, FlushEvery: 10},
		profile: chaos.Profile{
			Duration:           600 * time.Millisecond,
			Hosts:              []string{"fs1", "fs1b", "fs1c"},
			MeanOutageEvery:    150 * time.Millisecond,
			OutageLength:       100 * time.Millisecond,
			MeanLossPulseEvery: 300 * time.Millisecond,
			LossPulseLength:    50 * time.Millisecond,
			LossRate:           0.9,
		}}).run(t) {
		crashes += strings.Count(strings.Join(ev.ChaosLog, "\n"), "crash")
		retries += recovered(ev.Topology, "retries")
	}
	if crashes == 0 || retries == 0 {
		t.Fatalf("%d crashes and %d retries: the schedules tested no recovery", crashes, retries)
	}
}

// TestShardedUnderChaos runs the A14 crash schedule (two outages, 500 ms
// each) against the topology's shared prefix host — the server every
// lane's cache misses depend on, the role fs1 plays in A14 — while the
// lanes execute concurrently. Events fire at global fences (quiescent
// cuts), so two runs agree byte-for-byte, and the outages are
// client-visible (cache flushes during an outage hit a dead or empty
// prefix host).
func TestShardedUnderChaos(t *testing.T) {
	sc := sharedPrefixShape
	sc.Faults = chaos.TwoOutages("nexus")
	schedules{shape: sc, twice: true}.run(t)
}

// TestShardedPartitionMidFlight: a network partition fires mid-flight on
// a sharded run — the prefix host is cut off while concurrent lanes
// stream cache hits and periodically miss across the wire — and the
// copy-on-write partition map plus fence ordering keep the run race-free
// (this test runs under -race in make check) and byte-deterministic.
func TestShardedPartitionMidFlight(t *testing.T) {
	sc := sharedPrefixShape
	sc.Faults = []chaos.Event{
		{At: 150 * time.Millisecond, Action: chaos.Partition, Host: "nexus", Group: 1, Note: "prefix host cut off"},
		{At: 350 * time.Millisecond, Action: chaos.Heal},
	}
	ev := schedules{shape: sc, twice: true}.run(t)[0]
	allFired(t, ev)
	if ev.Completed == 0 {
		t.Fatal("no operations completed despite lane-confined cache hits")
	}
}

// chaosTrace is the A10 chaos schedule — fs1 outages plus near-total
// loss pulses, the profile that provokes retransmit exhaustion and
// rebinds — over a traced, resilient rig with its name cache on.
func chaosTrace() schedules {
	policy := client.DefaultRetryPolicy()
	return schedules{from: 2026, to: 2026,
		shape: Scenario{Kind: Paper, Users: []string{"mann"}, Seed: 7, Retry: &policy, Trace: true, Requests: 120},
		profile: chaos.Profile{
			Duration:           2 * time.Second,
			Hosts:              []string{"fs1"},
			MeanOutageEvery:    500 * time.Millisecond,
			OutageLength:       200 * time.Millisecond,
			MeanLossPulseEvery: 900 * time.Millisecond,
			LossPulseLength:    120 * time.Millisecond,
			LossRate:           0.9,
		},
		setup: func(r *Topology) { r.WS[0].Session.EnableNameCache(true) },
	}
}

// TestTraceUnderChaos asserts the recovery machinery is visible in the
// trace: retries appear as extra attempt spans under their client-op
// root, each preceded by backoff and rebind spans, failed attempts carry
// a failure classification, and despite crashes and packet loss no span
// leaks (the harness's trace oracle enforces that under -race).
func TestTraceUnderChaos(t *testing.T) {
	ev := chaosTrace().run(t)[0]
	allFired(t, ev)
	r := ev.Topology
	spans := r.Tracer.Snapshot()
	ops, retries := int(recovered(r, "ops")), int(recovered(r, "retries"))
	if retries == 0 {
		t.Fatal("chaos schedule provoked no retries; the trace assertions below would be vacuous")
	}
	byID := make(map[trace.SpanID]trace.Span, len(spans))
	for _, sp := range spans {
		byID[sp.ID] = sp
	}
	attempts, backoffs, rebinds, failedAttempts := 0, 0, 0, 0
	for _, sp := range spans {
		switch sp.Kind {
		case trace.KindAttempt, trace.KindBackoff, trace.KindRebind:
			if p := byID[sp.Parent]; p.Kind != trace.KindClientOp {
				t.Fatalf("%s span %d parents under %q, want client-op", sp.Kind, sp.ID, p.Kind)
			}
		}
		switch sp.Kind {
		case trace.KindAttempt:
			attempts++
			if sp.Err != "" {
				failedAttempts++
			}
		case trace.KindBackoff:
			backoffs++
		case trace.KindRebind:
			rebinds++
		}
	}
	// One attempt per op plus one per retry; one backoff and one rebind
	// per retry.
	if want := ops + retries; attempts != want {
		t.Fatalf("attempt spans = %d, want %d (ops %d + retries %d)", attempts, want, ops, retries)
	}
	if backoffs != retries || rebinds != retries {
		t.Fatalf("backoff/rebind spans = %d/%d, want %d each", backoffs, rebinds, retries)
	}
	if failedAttempts == 0 {
		t.Fatal("no attempt span carries a failure classification")
	}
	// Host crashes must be distinguishable from the trace alone: some
	// span records the host-down class, and the dying server teams left
	// classified server-exit events.
	if !slices.ContainsFunc(spans, func(sp trace.Span) bool {
		return sp.Err == "host-down" || sp.Err == "unreachable" || sp.Err == "nonexistent-process"
	}) {
		t.Fatalf("no transport-failure classification in trace; classes = %v", traceShape(r))
	}
	if countKind(spans, trace.KindServerExit) == 0 {
		t.Fatal("no server-exit event recorded for the crashed file server")
	}
}

// TestTraceUnderChaosDeterministic runs the chaos trace twice: same
// seeds, same schedule — identical registry snapshots, span counts and
// failure classification histograms.
func TestTraceUnderChaosDeterministic(t *testing.T) {
	s := chaosTrace()
	s.twice = true
	allFired(t, s.run(t)[0])
}

// TestChaosScheduleDeterministic: two runs of one generated schedule and
// seed over one rig configuration produce byte-identical event logs,
// success counts and registry snapshots — the virtual-time substrate's
// core guarantee, and the property make check's -count=2 leg protects.
func TestChaosScheduleDeterministic(t *testing.T) {
	policy := client.DefaultRetryPolicy()
	ev := schedules{from: 99, to: 99, twice: true,
		shape: Scenario{Kind: Paper, Users: []string{"mann"}, Seed: 7, Retry: &policy, Requests: 120},
		profile: chaos.Profile{
			Duration:           2 * time.Second,
			Hosts:              []string{"fs1"},
			MeanOutageEvery:    500 * time.Millisecond,
			OutageLength:       150 * time.Millisecond,
			MeanLossPulseEvery: 700 * time.Millisecond,
			LossPulseLength:    100 * time.Millisecond,
			LossRate:           0.25,
		},
		setup: func(r *Topology) {
			r.Clients[0].Op = func(s *client.Session, _ int) error {
				_, err := s.ReadFile("[bin]hello")
				return err
			}
		},
	}.run(t)[0]
	allFired(t, ev)
	if recovered(ev.Topology, "ops") == 0 {
		t.Fatal("workload recorded no operations")
	}
}
