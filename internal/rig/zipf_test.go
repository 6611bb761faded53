package rig

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/popgen"
	"repro/internal/raceflag"
	"repro/internal/trace"
)

func zipfTestConfig() ZipfConfig {
	return ZipfConfig{
		Population:      500,
		Skew:            0.99,
		PopSeed:         1,
		Shards:          3,
		ClientsPerShard: 2,
		Arrivals:        40,
		Interarrival:    2 * time.Millisecond,
		Lease:           80 * time.Millisecond,
		Seed:            42,
	}
}

// TestZipfWorkloadSmoke boots the population topology and runs it
// sequentially: every arrival resolves (the whole population is bound),
// latencies are positive and completions respect the arrival schedule.
func TestZipfWorkloadSmoke(t *testing.T) {
	zw, err := NewZipfWorkload(zipfTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	res := RunWorkload(zw.Clients)
	if res.Requests != 3*2*40 {
		t.Fatalf("ran %d requests, want %d", res.Requests, 3*2*40)
	}
	for i, st := range res.Clients {
		if st.Errors != 0 {
			t.Fatalf("client %d: %d errors", i, st.Errors)
		}
		if st.Completed != 40 {
			t.Fatalf("client %d completed %d, want 40", i, st.Completed)
		}
	}
	hits := 0
	for _, s := range zw.Sessions() {
		st := s.LeaseCacheStats()
		hits += st.Hits + st.NegativeHits
		if st.NegativeHits != 0 {
			t.Fatalf("negative hits on a fully-bound population: %+v", st)
		}
	}
	if hits == 0 {
		t.Fatal("zipf head never hit the lease cache")
	}
	for c := range zw.Latencies {
		for i, lat := range zw.Latencies[c] {
			if lat <= 0 {
				t.Fatalf("client %d op %d: non-positive open-loop latency %v", c, i, lat)
			}
		}
	}
	first, last := zw.OpenLoopSpan()
	if first <= 0 || last <= first {
		t.Fatalf("bad open-loop span [%v, %v]", first, last)
	}
}

// TestOpenLoopEquivalence is the sharded-equivalence gate for the
// open-loop Zipf workload, flat and with the ncache tier interposed: the
// conservative-engine run equals the sequential run — same per-client
// stats, same per-op open-loop latencies, same cache counters.
func TestOpenLoopEquivalence(t *testing.T) {
	for _, tier := range []bool{false, true} {
		res, ev := mustRun(t, Scenario{
			Kind: Zipf, Population: 500, Skew: 0.99, PopSeed: 1,
			Shards: 3, ClientsPerShard: 2, Requests: 40, Interarrival: 2 * time.Millisecond,
			Lease: 80 * time.Millisecond, CacheTier: tier, Seed: 42, Sequential: true,
		})
		if len(ev.Topology.Latencies) != 3*2 {
			t.Fatalf("tier=%v: ran %d requests over %d latency rows", tier, res.Requests, len(ev.Topology.Latencies))
		}
	}
}

// TestOpenLoopArriveHonored pins the driver contract for open-loop
// clients: an operation never starts before its scheduled arrival, so
// completion is always at or after arrival + service, and a client left
// idle between sparse arrivals does not compress the schedule.
func TestOpenLoopArriveHonored(t *testing.T) {
	cfg := zipfTestConfig()
	cfg.Shards = 1
	cfg.ClientsPerShard = 1
	cfg.Arrivals = 10
	cfg.Interarrival = 50 * time.Millisecond // far sparser than service time
	zw, err := NewZipfWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	RunWorkload(zw.Clients)
	sched, lats := zw.Schedule[0], zw.Latencies[0]
	for i := range sched {
		if lats[i] <= 0 {
			t.Fatalf("op %d: latency %v", i, lats[i])
		}
		// With arrivals far apart the client is idle at each arrival:
		// latency is pure service time, far below the interarrival gap.
		if lats[i] >= cfg.Interarrival {
			t.Fatalf("op %d: latency %v should be far below the %v gap", i, lats[i], cfg.Interarrival)
		}
	}
}

// TestZipfConfigValidation pins the constructor's error contract.
func TestZipfConfigValidation(t *testing.T) {
	base := zipfTestConfig()
	bad := func(name string, mutate func(*ZipfConfig)) {
		cfg := base
		mutate(&cfg)
		if _, err := NewZipfWorkload(cfg); err == nil {
			t.Fatalf("%s: config accepted", name)
		}
	}
	bad("zero population", func(c *ZipfConfig) { c.Population = 0 })
	bad("population below shards", func(c *ZipfConfig) { c.Population = 2 })
	bad("zero lease", func(c *ZipfConfig) { c.Lease = 0 })
	bad("zero interarrival", func(c *ZipfConfig) { c.Interarrival = 0 })
	bad("mismatched shared population", func(c *ZipfConfig) {
		c.Pop = popgen.NewPopulation(10, c.Skew, c.PopSeed)
	})
}

// TestZipfStats covers the result accessors on a real run.
func TestZipfStats(t *testing.T) {
	zw, err := NewZipfWorkload(zipfTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	res := RunWorkload(zw.Clients)
	if res.Throughput() <= 0 {
		t.Fatalf("throughput %v", res.Throughput())
	}
	for _, st := range res.Clients {
		if st.MeanLatency() <= 0 {
			t.Fatalf("mean latency %v", st.MeanLatency())
		}
	}
	if (ClientStats{}).MeanLatency() != 0 {
		t.Fatal("mean latency of an empty client")
	}
	if (&WorkloadResult{}).Throughput() != 0 {
		t.Fatal("throughput of an empty result")
	}
}

// TestBoundNameFootprint is the ceiling on what a bound name keeps alive
// (the paper's whole prefix server was 2.6 KB of data, §6; ROADMAP item
// 3): the resolve_miss shape — 10⁵ names, skew 0.5, leases too short to
// hit — booted and driven until about half the names have been leased,
// then the live heap and object count the repository holds for it, per
// bound name, the generated population excluded as input. The ceilings
// sit 10% above what the pointer-free index arena, the flat reverse
// index, the kernel group table and the 16-byte table entry measure
// together (199 B in 1.24 objects); the pointer-node index measured
// 269 B in 3.33, and before the reverse index, the group table and the
// entry were flattened, 377 B in 4.17.
func TestBoundNameFootprint(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector's shadow allocations are not the repository's")
	}
	const names, maxBytes, maxObjects = 100_000, 219, 1.37
	pop := popgen.NewPopulation(names, 0.5, 1)
	heap := func() (m runtime.MemStats) {
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m
	}
	before := heap()
	zw, err := NewZipfWorkload(ZipfConfig{Population: names, Skew: 0.5, Pop: pop, Shards: 4, ClientsPerShard: 2,
		Arrivals: 12_500, Interarrival: 56 * time.Millisecond, Lease: 20 * time.Millisecond, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if res := RunWorkload(zw.Clients); res.Requests != 100_000 {
		t.Fatalf("ran %d requests", res.Requests)
	}
	after := heap()
	// A client's first lease of a name is a miss of its cache, and only
	// the two clients of a name's shard ever lease it.
	firsts := 0
	for _, s := range zw.Sessions() {
		firsts += s.LeaseCacheStats().Misses
	}
	if firsts < names/2 {
		t.Fatalf("%d first leases: the run leased too few names to price their holder groups", firsts)
	}
	bytes := float64(after.HeapAlloc-before.HeapAlloc) / names
	objects := float64(after.HeapObjects-before.HeapObjects) / names
	t.Logf("%d names, %d first leases: %.0f live bytes in %.2f live objects per bound name", names, firsts, bytes, objects)
	if bytes > maxBytes || objects > maxObjects {
		t.Fatalf("a bound name keeps %.0f bytes in %.2f objects alive, ceilings %d and %.2f", bytes, objects, maxBytes, maxObjects)
	}
	runtime.KeepAlive(zw)
}

// TestNameRatesCoverHottestNames: at population scale the prefix
// server's churn estimators are those of its hottest names, because they
// ride the hot-name sketch's entries — not those of whichever names
// happened to resolve first. resolve_miss's skew over 10⁴ names, sampled
// as resolve_observed is, so the sketch is installed.
func TestNameRatesCoverHottestNames(t *testing.T) {
	_, ev := mustRun(t, Scenario{Kind: Zipf, Population: 10_000, Skew: 0.5, PopSeed: 1,
		Shards: 4, ClientsPerShard: 2, Requests: 3000, Interarrival: 56 * time.Millisecond,
		Lease: 5 * time.Millisecond, Seed: 11,
		TraceSample: &trace.SampleConfig{HeadEvery: 32, SlowOver: 50 * time.Millisecond}})
	pfx := ev.Topology.Prefix
	rated := make(map[string]bool)
	for _, it := range pfx.NameRates() {
		rated[it.Name] = true
	}
	top := pfx.TopNames()
	if len(top) < 10 {
		t.Fatalf("sketch holds %d names, want at least 10", len(top))
	}
	covered := 0
	for _, it := range top[:10] {
		if rated[it.Name] {
			covered++
		}
	}
	if covered != 10 {
		t.Fatalf("NameRates covers %d of the 10 hottest names", covered)
	}
}
