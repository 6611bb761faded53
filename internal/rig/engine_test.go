package rig

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/kernel"
)

// sharedPrefixShape is the topology the engine tests drive: enough
// clients per shard to contend on each shard server's clock, a central
// prefix server every cache miss must cross the wire to reach, and a
// periodic cache flush so Shared re-resolutions recur throughout the
// run instead of clustering at iteration 0.
var sharedPrefixShape = SharedPrefixConfig{
	Shards: 4, ClientsPerShard: 4, Requests: 40, Seed: 7, FlushEvery: 6,
}

func buildSharedPrefix(t *testing.T, team int) *SharedPrefixWorkload {
	t.Helper()
	cfg := sharedPrefixShape
	cfg.Team = team
	sw, err := NewSharedPrefixWorkload(cfg)
	if err != nil {
		t.Fatalf("build shared-prefix workload: %v", err)
	}
	return sw
}

// cacheTotals sums hits and misses across the workload's sessions —
// the test's proof that both operation classes actually ran.
func cacheTotals(sw *SharedPrefixWorkload) (hits, misses int) {
	for _, c := range sw.Clients {
		st := c.Session.LeaseCacheStats()
		hits += st.Hits
		misses += st.Misses
	}
	return hits, misses
}

// TestShardedEquivalence asserts the tentpole guarantee on the topology
// the pre-engine driver could not parallelize: the conservative engine's
// WorkloadResult is deeply equal to the sequential driver's on the
// shared-prefix topology, across team sizes, with both operation classes
// exercised. make check runs it under -race at GOMAXPROCS=1 and at the
// machine's CPU count.
func TestShardedEquivalence(t *testing.T) {
	for _, team := range []int{1, 2, 4} {
		seqTop := buildSharedPrefix(t, team)
		seq := RunWorkload(seqTop.Clients)
		want := sharedPrefixShape.Shards * sharedPrefixShape.ClientsPerShard * sharedPrefixShape.Requests
		if seq.Requests != want {
			t.Fatalf("team %d: sequential driver issued %d requests, want %d", team, seq.Requests, want)
		}
		for i, c := range seq.Clients {
			if c.Errors != 0 {
				t.Fatalf("team %d: sequential client %d saw %d errors", team, i, c.Errors)
			}
		}
		parTop := buildSharedPrefix(t, team)
		par := RunWorkloadEngine(parTop.Clients, EngineOptions{})
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("team %d: sharded result differs from sequential\nseq: %+v\npar: %+v", team, seq, par)
		}
		if seq.Throughput() != par.Throughput() {
			t.Fatalf("team %d: throughput differs: %v vs %v", team, seq.Throughput(), par.Throughput())
		}
		hits, misses := cacheTotals(parTop)
		if hits == 0 || misses == 0 {
			t.Fatalf("team %d: degenerate class mix (hits=%d misses=%d); the test needs both", team, hits, misses)
		}
	}
}

// nexusChaosSchedule is the A14 crash/restart schedule (two outages,
// 500 ms each, at the same virtual times) aimed at the topology's
// shared prefix host: the server every lane's cache misses depend on,
// the role fs1 plays in A14.
func nexusChaosSchedule() []chaos.Event {
	return []chaos.Event{
		{At: 300 * time.Millisecond, Action: chaos.Crash, Host: "nexus", Note: "first outage"},
		{At: 800 * time.Millisecond, Action: chaos.Restart, Host: "nexus"},
		{At: 1600 * time.Millisecond, Action: chaos.Crash, Host: "nexus", Note: "second outage"},
		{At: 2100 * time.Millisecond, Action: chaos.Restart, Host: "nexus"},
	}
}

// chaosRun drives the shared-prefix workload through the conservative
// engine with the A14 schedule wired in as fences.
func chaosRun(t *testing.T, requests int) (*SharedPrefixWorkload, *chaos.Engine, *WorkloadResult) {
	t.Helper()
	cfg := sharedPrefixShape
	cfg.Requests = requests
	sw, err := NewSharedPrefixWorkload(cfg)
	if err != nil {
		t.Fatalf("build shared-prefix workload: %v", err)
	}
	eng := chaos.New(sw.Kernel, nexusChaosSchedule())
	res := RunWorkloadEngine(sw.Clients, EngineOptions{Fences: ChaosFences(eng)})
	return sw, eng, res
}

// TestShardedUnderChaos runs the A14 crash schedule on the sharded
// engine: the central prefix host crashes and restarts mid-run while the
// lanes execute concurrently. Events fire at global fences (quiescent
// cuts), so two runs must agree byte-for-byte — same per-client stats,
// same fired-event log — and the outages must be client-visible (cache
// flushes during an outage hit a dead or empty prefix host).
func TestShardedUnderChaos(t *testing.T) {
	const requests = 40
	_, eng1, res1 := chaosRun(t, requests)
	_, eng2, res2 := chaosRun(t, requests)
	if !reflect.DeepEqual(res1, res2) {
		t.Fatalf("sharded chaos run not deterministic\nrun1: %+v\nrun2: %+v", res1, res2)
	}
	if !reflect.DeepEqual(eng1.Log(), eng2.Log()) {
		t.Fatalf("chaos logs differ:\n%v\nvs\n%v", eng1.Log(), eng2.Log())
	}
	if eng1.Fired() == 0 {
		t.Fatal("no chaos events fired; schedule missed the workload horizon")
	}
	errs := 0
	for _, c := range res1.Clients {
		errs += c.Errors
	}
	if errs == 0 {
		t.Fatal("prefix-host outages were never client-visible (no errors recorded)")
	}
}

// TestShardedPartitionMidFlight is the satellite regression test: a
// network partition fires mid-flight on a sharded run — the prefix host
// is cut off while concurrent lanes stream cache hits and periodically
// miss across the wire — and the copy-on-write partition map plus fence
// ordering must keep the run race-free (this test runs under -race in
// make check) and byte-deterministic.
func TestShardedPartitionMidFlight(t *testing.T) {
	schedule := []chaos.Event{
		{At: 150 * time.Millisecond, Action: chaos.Partition, Host: "nexus", Group: 1, Note: "prefix host cut off"},
		{At: 350 * time.Millisecond, Action: chaos.Heal},
	}
	run := func() (*chaos.Engine, *WorkloadResult) {
		sw, err := NewSharedPrefixWorkload(sharedPrefixShape)
		if err != nil {
			t.Fatalf("build shared-prefix workload: %v", err)
		}
		eng := chaos.New(sw.Kernel, schedule)
		res := RunWorkloadEngine(sw.Clients, EngineOptions{Fences: ChaosFences(eng)})
		return eng, res
	}
	eng1, res1 := run()
	eng2, res2 := run()
	if !reflect.DeepEqual(res1, res2) {
		t.Fatalf("partition run not deterministic\nrun1: %+v\nrun2: %+v", res1, res2)
	}
	if !reflect.DeepEqual(eng1.Log(), eng2.Log()) {
		t.Fatalf("chaos logs differ:\n%v\nvs\n%v", eng1.Log(), eng2.Log())
	}
	if eng1.Fired() != 2 {
		t.Fatalf("fired %d events, want 2 (partition + heal)", eng1.Fired())
	}
	errs, completed := 0, 0
	for _, c := range res1.Clients {
		errs += c.Errors
		completed += c.Completed
	}
	if errs == 0 {
		t.Fatal("partition was never client-visible (no errors recorded)")
	}
	if completed == 0 {
		t.Fatal("no operations completed despite lane-confined cache hits")
	}
}

// TestTickOnlyUngated pins the one difference between the two ways the
// pick-min loop runs: the ungated sequential driver pumps each client's
// Tick after every iteration, and a lane under an engine.Sync never does
// (observers are pumped by fences there).
func TestTickOnlyUngated(t *testing.T) {
	count := func(drive func([]*WorkloadClient) *WorkloadResult) (ticks, requests int) {
		sw := buildSharedPrefix(t, 1)
		for _, c := range sw.Clients {
			c.Tick = func(time.Duration) { ticks++ }
		}
		return ticks, drive(sw.Clients).Requests
	}
	if ticks, requests := count(RunWorkload); ticks != requests || requests == 0 {
		t.Fatalf("sequential driver: %d ticks for %d requests", ticks, requests)
	}
	gated := func(cs []*WorkloadClient) *WorkloadResult { return RunWorkloadEngine(cs, EngineOptions{}) }
	if ticks, requests := count(gated); ticks != 0 || requests == 0 {
		t.Fatalf("engine driver: %d ticks for %d requests, want none", ticks, requests)
	}
}

// TestConfinedOnLocalRoute is the shard-label proof's truth table.
func TestConfinedOnLocalRoute(t *testing.T) {
	sw := buildSharedPrefix(t, 1)
	unlabeled := sw.PrefixHost
	to := func(pid kernel.PID, ok bool) routeFunc {
		return func(*client.Session, int) (core.ContextPair, bool) {
			return core.ContextPair{Server: pid}, ok
		}
	}
	for _, tc := range []struct {
		name  string
		host  *kernel.Host
		route routeFunc
		want  engine.Class
	}{
		{"no route", sw.Hosts[0], to(sw.Shards[0].PID(), false), engine.Shared},
		{"unlabeled server host", sw.Hosts[0], to(sw.Prefix.PID(), true), engine.Shared},
		{"unlabeled client host", unlabeled, to(sw.Prefix.PID(), true), engine.Shared},
		{"unknown server", sw.Hosts[0], to(kernel.NilPID, true), engine.Shared},
		{"foreign shard", sw.Hosts[0], to(sw.Shards[1].PID(), true), engine.Shared},
		{"co-shard", sw.Hosts[0], to(sw.Shards[0].PID(), true), engine.Confined},
	} {
		classify := confinedOnLocalRoute(sw.Kernel, tc.host, tc.route)
		if got := classify(sw.Clients[0].Session, 0); got != tc.want {
			t.Errorf("%s: classified %v, want %v", tc.name, got, tc.want)
		}
	}
}
