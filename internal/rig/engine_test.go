package rig

import (
	"runtime"
	"sync"
	"testing"

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

// mustRun runs sc and fails the test if it cannot boot or violates an
// oracle (Run).
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
		if _, ev := mustRun(t, sc); ev.Client.Hits == 0 || ev.Client.Misses == 0 {
			t.Fatalf("team %d: degenerate class mix (%+v); the test needs both", team, ev.Client)
		}
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
			mustRun(t, sc)
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
