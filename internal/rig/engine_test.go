package rig

import (
	"reflect"
	"runtime"
	"sync"
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
var sharedPrefixShape = Scenario{
	Kind: SharedPrefix, Shards: 4, ClientsPerShard: 4, Requests: 40, Seed: 7, FlushEvery: 6,
}

func buildSharedPrefix(t *testing.T) *Topology {
	t.Helper()
	sw, err := sharedPrefixShape.Boot()
	if err != nil {
		t.Fatalf("build shared-prefix workload: %v", err)
	}
	return sw
}

// mustRun runs sc and fails the test if it cannot boot.
func mustRun(t *testing.T, sc Scenario) (*WorkloadResult, Evidence) {
	t.Helper()
	res, ev, err := Run(sc)
	if err != nil {
		t.Fatalf("run %s scenario: %v", sc.Kind, err)
	}
	return res, ev
}

// TestShardedEquivalence asserts the tentpole guarantee on the topology
// the pre-engine driver could not parallelize: the conservative engine's
// WorkloadResult is deeply equal to the sequential driver's on the
// shared-prefix topology, across team sizes, with both operation classes
// exercised. make check runs it under -race at the machine's CPU count and
// at GOMAXPROCS=2, where four lanes fold onto two goroutines that really
// run at once (at one P the engine run is a single goroutine).
func TestShardedEquivalence(t *testing.T) {
	for _, team := range []int{1, 2, 4} {
		sc := sharedPrefixShape
		sc.FileServerTeam, sc.Sequential = team, true
		res, ev := mustRun(t, sc)
		if want := sc.Shards * sc.ClientsPerShard * sc.Requests; res.Requests != want {
			t.Fatalf("team %d: issued %d requests, want %d", team, res.Requests, want)
		}
		if ev.Errors != 0 {
			t.Fatalf("team %d: %d errors", team, ev.Errors)
		}
		if !ev.EqualToSequential {
			t.Fatalf("team %d: sharded result differs from sequential\npar: %+v", team, res)
		}
		if ev.Client.Hits == 0 || ev.Client.Misses == 0 {
			t.Fatalf("team %d: degenerate class mix (%+v); the test needs both", team, ev.Client)
		}
	}
}

// TestShardedUnderChaos runs the A14 crash schedule (two outages, 500 ms
// each) against the topology's shared prefix host — the server every
// lane's cache misses depend on, the role fs1 plays in A14 — while the
// lanes execute concurrently. Events fire at global fences (quiescent
// cuts), so two runs must agree byte-for-byte — same per-client stats,
// same fired-event log — and the outages must be client-visible (cache
// flushes during an outage hit a dead or empty prefix host).
func TestShardedUnderChaos(t *testing.T) {
	sc := sharedPrefixShape
	sc.Faults = chaos.TwoOutages("nexus")
	res1, ev1 := mustRun(t, sc)
	res2, ev2 := mustRun(t, sc)
	if !reflect.DeepEqual(res1, res2) {
		t.Fatalf("sharded chaos run not deterministic\nrun1: %+v\nrun2: %+v", res1, res2)
	}
	if !reflect.DeepEqual(ev1.ChaosLog, ev2.ChaosLog) {
		t.Fatalf("chaos logs differ:\n%v\nvs\n%v", ev1.ChaosLog, ev2.ChaosLog)
	}
	if len(ev1.ChaosLog) == 0 {
		t.Fatal("no chaos events fired; schedule missed the workload horizon")
	}
	if ev1.Errors == 0 {
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
	sc := sharedPrefixShape
	sc.Faults = []chaos.Event{
		{At: 150 * time.Millisecond, Action: chaos.Partition, Host: "nexus", Group: 1, Note: "prefix host cut off"},
		{At: 350 * time.Millisecond, Action: chaos.Heal},
	}
	res1, ev1 := mustRun(t, sc)
	res2, ev2 := mustRun(t, sc)
	if !reflect.DeepEqual(res1, res2) {
		t.Fatalf("partition run not deterministic\nrun1: %+v\nrun2: %+v", res1, res2)
	}
	if !reflect.DeepEqual(ev1.ChaosLog, ev2.ChaosLog) {
		t.Fatalf("chaos logs differ:\n%v\nvs\n%v", ev1.ChaosLog, ev2.ChaosLog)
	}
	if len(ev1.ChaosLog) != 2 {
		t.Fatalf("fired %d events, want 2 (partition + heal)", len(ev1.ChaosLog))
	}
	if ev1.Errors == 0 {
		t.Fatal("partition was never client-visible (no errors recorded)")
	}
	if ev1.Completed == 0 {
		t.Fatal("no operations completed despite lane-confined cache hits")
	}
}

// TestFaultedRunEqualsSequential runs generated fault schedules — outages
// of the prefix host and of every shard, and frame-loss pulses — with the
// sequential reference: a one-lane run whose fences fire the same events
// at the same quiescent cuts must agree with the engine in result,
// latencies, cache counters, chaos log and sealed journal.
func TestFaultedRunEqualsSequential(t *testing.T) {
	profile := chaos.Profile{
		Duration:           600 * time.Millisecond,
		Hosts:              []string{"nexus", "shard0", "shard1", "shard2", "shard3"},
		MeanOutageEvery:    200 * time.Millisecond,
		OutageLength:       100 * time.Millisecond,
		MeanLossPulseEvery: 150 * time.Millisecond,
		LossPulseLength:    50 * time.Millisecond,
		LossRate:           0.2,
	}
	fired, failed := 0, 0
	for seed := int64(1); seed <= 20; seed++ {
		sc := sharedPrefixShape
		sc.Sequential, sc.Faults = true, chaos.Generate(seed, profile)
		_, ev := mustRun(t, sc)
		if !ev.EqualToSequential {
			t.Fatalf("seed %d: faulted run differs from its sequential reference\nlog: %v", seed, ev.ChaosLog)
		}
		fired += len(ev.ChaosLog)
		failed += ev.Errors
	}
	t.Logf("%d events fired, %d operations failed", fired, failed)
	if fired == 0 || failed == 0 {
		t.Fatalf("schedules never bit: %d events fired, %d operations failed", fired, failed)
	}
}

// TestEngineFoldsLanesOntoProcessors runs eight lanes on 1, 2, 3 (an
// uneven fold) and 8 processors: the result equals the sequential
// reference at each, and the driver adds no more goroutines than
// min(GOMAXPROCS, lanes).
func TestEngineFoldsLanesOntoProcessors(t *testing.T) {
	sc := sharedPrefixShape
	sc.Shards, sc.ClientsPerShard, sc.Requests, sc.Sequential = 8, 2, 20, true
	for _, procs := range []int{1, 2, 3, 8} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			if _, ev := mustRun(t, sc); !ev.EqualToSequential {
				t.Fatalf("GOMAXPROCS=%d: engine result differs from sequential", procs)
			}
			top, err := sc.Boot()
			if err != nil {
				t.Fatal(err)
			}
			var mu sync.Mutex
			most := 0
			for _, c := range top.Clients {
				op := c.Op
				c.Op = func(s *client.Session, iter int) error {
					n := runtime.NumGoroutine()
					mu.Lock()
					most = max(most, n)
					mu.Unlock()
					return op(s, iter)
				}
			}
			base := runtime.NumGoroutine()
			RunWorkloadEngine(top.Clients, EngineOptions{})
			if added, want := most-base, min(procs, sc.Shards); added > want {
				t.Fatalf("GOMAXPROCS=%d: driver added %d goroutines, want at most %d", procs, added, want)
			}
		}()
	}
}

// TestConfinedOnLocalRoute is the shard-label proof's truth table.
func TestConfinedOnLocalRoute(t *testing.T) {
	sw := buildSharedPrefix(t)
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
