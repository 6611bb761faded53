// Population-scale Zipf resolution workload (PROTOCOL.md §14): the
// open-loop counterpart of the shared-prefix topology, driving
// resolution against a prefix table of 10³–10⁶ names instead of one
// hot name per shard.
//
// One central prefix server holds a popgen population, every name bound
// statically to one of the shard file servers (round-robin by
// popularity rank). Each shard hosts co-resident clients that draw
// Zipf-distributed ranks over the whole population, snapped to the
// nearest co-shard rank — popularity skew is preserved, the resolution
// control plane (misses, lease grants) is fully shared at the central
// server, but the resolved data route always lands on the co-resident
// shard server. That last property is the engine-equivalence invariant
// sharedprefix.go established: a shard's file server receives traffic
// from its own lane only, so lease-hit operations proved Confined can
// run ahead without reordering any server another lane observes. The
// head of the popularity distribution lives in client lease caches
// while the tail misses to the prefix server (or the interposed ncache
// tier). Arrivals
// are open-loop: each client follows a pre-generated virtual-time
// arrival schedule (WorkloadClient.Arrive), and the recorded latency of
// an operation is completion minus scheduled arrival — queueing delay
// included — which is the population-scale latency a closed think loop
// structurally cannot observe.
package rig

import (
	"fmt"
	"time"

	"repro/internal/client"
	"repro/internal/popgen"
	"repro/internal/prefix"
	"repro/internal/trace"
)

// ZipfConfig shapes a population-scale resolution workload.
type ZipfConfig struct {
	// Population is the number of names bound on the prefix server.
	Population int
	// Skew is the Zipf popularity exponent (0 = uniform; may be < 1).
	Skew float64
	// Pop, when non-nil, supplies a pre-generated population (so
	// several legs over the same population share one generation pass).
	// It must have been built with NewPopulation(Population, Skew, seed
	// PopSeed).
	Pop *popgen.Population
	// PopSeed selects the population's name-shape stream.
	PopSeed uint64
	// Shards is the number of file-server shards (= engine lanes).
	Shards int
	// ClientsPerShard is the number of co-resident clients per shard.
	ClientsPerShard int
	// Arrivals is each client's open-loop arrival quota.
	Arrivals int
	// Interarrival is the mean per-client virtual inter-arrival gap.
	Interarrival time.Duration
	// Lease is the prefix server's lease length (must be positive: the
	// workload resolves through the lease cache).
	Lease time.Duration
	// CacheTier interposes the shared ncache tier on the prefix host.
	CacheTier bool
	// AutoTuneMax, when positive, auto-tunes per-name lease lengths in
	// [Lease, AutoTuneMax] (PROTOCOL.md §15) instead of granting the
	// fixed Lease.
	AutoTuneMax time.Duration
	// Seed drives the network's deterministic RNG.
	Seed int64
	// Trace installs a domain tracer on the kernel and network.
	Trace bool
	// TraceSample, when non-nil, installs the tracer in sampled mode
	// (PROTOCOL.md §15): O(k) retained spans at any population. Implies
	// Trace.
	TraceSample *trace.SampleConfig
}

// ZipfWorkload is the booted population-scale topology.
type ZipfWorkload struct {
	*topology
	// Pop is the bound population (rank order).
	Pop *popgen.Population
	// Draws[c][i] is client c's i-th drawn name in bracketed syntax.
	Draws [][]string
	// Schedule[c][i] is client c's i-th scheduled virtual arrival.
	Schedule [][]time.Duration
	// Latencies[c][i] is the open-loop latency (virtual completion
	// minus scheduled arrival) of client c's i-th operation, filled in
	// as the workload runs.
	Latencies [][]time.Duration
}

// Sessions returns the clients' naming sessions in client order.
func (zw *ZipfWorkload) Sessions() []*client.Session {
	out := make([]*client.Session, len(zw.Clients))
	for i, c := range zw.Clients {
		out[i] = c.Session
	}
	return out
}

// OpenLoopSpan returns the workload's observed span: the first
// scheduled arrival and the latest virtual completion.
func (zw *ZipfWorkload) OpenLoopSpan() (first, last time.Duration) {
	for c := range zw.Schedule {
		for i, arr := range zw.Schedule[c] {
			if (c == 0 && i == 0) || arr < first {
				first = arr
			}
			if done := arr + zw.Latencies[c][i]; done > last {
				last = done
			}
		}
	}
	return first, last
}

// NewZipfWorkload boots the topology: one prefix host carrying the full
// population (plus the optional ncache tier), Shards file-server hosts
// with ClientsPerShard lease-caching clients each, and per-client draw
// and arrival schedules pre-generated on deterministic streams keyed by
// global client index — so the sequential and sharded-engine drivers
// consume identical workloads.
func NewZipfWorkload(cfg ZipfConfig) (*ZipfWorkload, error) {
	if cfg.Population <= 0 || cfg.Population < cfg.Shards {
		return nil, fmt.Errorf("zipf workload: population %d must be positive and no smaller than %d shards", cfg.Population, cfg.Shards)
	}
	if cfg.Lease <= 0 {
		return nil, fmt.Errorf("zipf workload: lease length must be positive")
	}
	if cfg.Interarrival <= 0 {
		return nil, fmt.Errorf("zipf workload: interarrival must be positive")
	}
	pop := cfg.Pop
	if pop == nil {
		pop = popgen.NewPopulation(cfg.Population, cfg.Skew, cfg.PopSeed)
	} else if len(pop.Names) != cfg.Population || pop.Skew != cfg.Skew {
		return nil, fmt.Errorf("zipf workload: supplied population is %d names skew %v, config wants %d skew %v",
			len(pop.Names), pop.Skew, cfg.Population, cfg.Skew)
	}

	t, err := bootTopology("zipf workload", "pop", true, SharedPrefixConfig{
		Shards: cfg.Shards, ClientsPerShard: cfg.ClientsPerShard, Requests: cfg.Arrivals,
		Seed: cfg.Seed, Lease: cfg.Lease, CacheTier: cfg.CacheTier, AutoTuneMax: cfg.AutoTuneMax,
		Trace: cfg.Trace, TraceSample: cfg.TraceSample,
	})
	if err != nil {
		return nil, err
	}
	// Bind the whole population: rank r lives on shard r mod Shards, so
	// every shard carries its share of the popularity head and tail.
	for r, name := range pop.Names {
		if err := t.Prefix.Define(name, t.Shards[r%cfg.Shards].RootPair()); err != nil {
			return nil, fmt.Errorf("rank %d (%q): %w", r, name, err)
		}
	}

	nclients := cfg.Shards * cfg.ClientsPerShard
	zw := &ZipfWorkload{
		topology:  t,
		Pop:       pop,
		Draws:     make([][]string, nclients),
		Schedule:  make([][]time.Duration, nclients),
		Latencies: make([][]time.Duration, nclients),
	}
	err = t.addClients(func(shard, ci int) (*WorkloadClient, routeFunc) {
		// Draw and arrival streams are keyed by global client index:
		// identical across hierarchy variants and driver engines.
		sampler := pop.Sampler(uint64(ci) + 1)
		draws := make([]string, cfg.Arrivals)
		for i := range draws {
			// Snap the drawn rank to this shard's congruence class: rank
			// r and its snapped neighbor have near-identical popularity,
			// so the skew survives, and every draw's binding is the
			// co-resident shard server (see the package comment for why
			// equivalence needs this).
			r := sampler.NextRank()
			idx := r - r%cfg.Shards + shard
			if idx >= cfg.Population {
				idx -= cfg.Shards
			}
			draws[i] = prefix.Quote(pop.Names[idx])
		}
		sched := popgen.Arrivals(cfg.Arrivals, 0, cfg.Interarrival, uint64(ci)+1)
		lats := make([]time.Duration, cfg.Arrivals)
		zw.Draws[ci], zw.Schedule[ci], zw.Latencies[ci] = draws, sched, lats
		return &WorkloadClient{
			Arrive: func(iter int) time.Duration { return sched[iter] },
			Op: func(s *client.Session, iter int) error {
				_, err := s.MapContext(draws[iter])
				lats[iter] = s.Proc().Now() - sched[iter]
				return err
			},
		}, t.cachedRoute(func(iter int) string { return draws[iter] })
	})
	if err != nil {
		return nil, err
	}
	return zw, nil
}
