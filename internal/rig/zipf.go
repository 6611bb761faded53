// Population-scale Zipf resolution workload (PROTOCOL.md §14), the Zipf
// scenario Kind: the open-loop counterpart of the shared-prefix
// topology, driving resolution against a prefix table of 10³–10⁶ names
// instead of one hot name per shard.
//
// One central prefix server holds a popgen population, every name bound
// statically to one of the shard file servers (round-robin by
// popularity rank). Each shard hosts co-resident clients that draw
// Zipf-distributed ranks over the whole population, snapped to the
// nearest co-shard rank — popularity skew is preserved, the resolution
// control plane (misses, lease grants) is fully shared at the central
// server, but the resolved data route always lands on the co-resident
// shard server. That last property is the engine-equivalence invariant
// the shared-prefix topology established: a shard's file server
// receives traffic from its own lane only, so lease-hit operations
// proved Confined can run ahead without reordering any server another
// lane observes. The head of the popularity distribution lives in client
// lease caches while the tail misses to the prefix server (or the
// interposed ncache tier). Arrivals are open-loop: each client follows a pre-generated virtual-time
// arrival schedule (WorkloadClient.Arrive), and the recorded latency of
// an operation is completion minus scheduled arrival — queueing delay
// included — which is the population-scale latency a closed think loop
// structurally cannot observe.
package rig

import (
	"fmt"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/popgen"
	"repro/internal/prefix"
	"repro/internal/trace"
)

// ZipfConfig is the Zipf Scenario under the field names the repository
// benchmark constructs it by (bench/README.md); each field is the
// Scenario's of the same name, Arrivals its Requests.
type ZipfConfig struct {
	Population      int
	Skew            float64
	Pop             *popgen.Population
	PopSeed         uint64
	Shards          int
	ClientsPerShard int
	Arrivals        int
	Interarrival    time.Duration
	Lease           time.Duration
	CacheTier       bool
	Seed            int64
	TraceSample     *trace.SampleConfig
}

// ZipfWorkload is the booted population-scale topology.
type ZipfWorkload = Topology

// NewZipfWorkload boots the Zipf scenario cfg describes.
func NewZipfWorkload(cfg ZipfConfig) (*ZipfWorkload, error) {
	return Scenario{
		Kind: Zipf, Shards: cfg.Shards, ClientsPerShard: cfg.ClientsPerShard, Requests: cfg.Arrivals,
		Seed: cfg.Seed, Lease: cfg.Lease, CacheTier: cfg.CacheTier, TraceSample: cfg.TraceSample,
		Population: cfg.Population, Skew: cfg.Skew, PopSeed: cfg.PopSeed, Interarrival: cfg.Interarrival,
		Pop: cfg.Pop,
	}.Boot()
}

// OpenLoopSpan returns a Zipf workload's observed span: the first
// scheduled arrival and the latest virtual completion.
func (t *Topology) OpenLoopSpan() (first, last time.Duration) {
	for c := range t.Schedule {
		for i, arr := range t.Schedule[c] {
			if (c == 0 && i == 0) || arr < first {
				first = arr
			}
			if done := arr + t.Latencies[c][i]; done > last {
				last = done
			}
		}
	}
	return first, last
}

// checkZipf validates the fields only the Zipf kind reads, then the
// sharded counts.
func (sc *Scenario) checkZipf() error {
	if sc.Population <= 0 || sc.Population < sc.Shards {
		return fmt.Errorf("zipf workload: population %d must be positive and no smaller than %d shards", sc.Population, sc.Shards)
	}
	if sc.Lease <= 0 {
		return fmt.Errorf("zipf workload: lease length must be positive")
	}
	if sc.Interarrival <= 0 {
		return fmt.Errorf("zipf workload: interarrival must be positive")
	}
	if pop := sc.Pop; pop != nil && (len(pop.Names) != sc.Population || pop.Skew != sc.Skew) {
		return fmt.Errorf("zipf workload: supplied population is %d names skew %v, scenario wants %d skew %v",
			len(pop.Names), pop.Skew, sc.Population, sc.Skew)
	}
	return sc.checkSharded()
}

// addZipfClients binds the whole population on the prefix server and
// adds lease-caching clients whose per-client draw and arrival schedules
// are pre-generated on deterministic streams keyed by global client
// index — so the sequential and sharded-engine drivers consume identical
// workloads.
func (t *Topology) addZipfClients() error {
	sc := t.sc
	pop := sc.Pop
	if pop == nil {
		pop = popgen.NewPopulation(sc.Population, sc.Skew, sc.PopSeed)
	}
	// Bind the whole population: rank r lives on shard r mod Shards, so
	// every shard carries its share of the popularity head and tail.
	roots := make([]core.ContextPair, sc.Shards)
	for i := range roots {
		roots[i] = t.Shards[i].RootPair()
	}
	if err := t.Prefix.DefineAll(pop.Names, func(r int) core.ContextPair { return roots[r%sc.Shards] }); err != nil {
		return fmt.Errorf("bind population: %w", err)
	}

	nclients := sc.Shards * sc.ClientsPerShard
	t.Schedule = make([][]time.Duration, nclients)
	t.Latencies = make([][]time.Duration, nclients)
	return t.addClients(func(shard, ci int) (*WorkloadClient, routeFunc) {
		// Draw and arrival streams are keyed by global client index:
		// identical across hierarchy variants and driver engines.
		sampler := pop.Sampler(uint64(ci) + 1)
		draws := make([]string, sc.Requests)
		for i := range draws {
			// Snap the drawn rank to this shard's congruence class: rank
			// r and its snapped neighbor have near-identical popularity,
			// so the skew survives, and every draw's binding is the
			// co-resident shard server (see the package comment for why
			// equivalence needs this).
			r := sampler.NextRank()
			idx := r - r%sc.Shards + shard
			if idx >= sc.Population {
				idx -= sc.Shards
			}
			draws[i] = prefix.Quote(pop.Names[idx])
		}
		sched := popgen.Arrivals(sc.Requests, 0, sc.Interarrival, uint64(ci)+1)
		lats := make([]time.Duration, sc.Requests)
		t.Schedule[ci], t.Latencies[ci] = sched, lats
		return &WorkloadClient{
			Arrive: func(iter int) time.Duration { return sched[iter] },
			Op: func(s *client.Session, iter int) error {
				_, err := s.MapContext(draws[iter])
				lats[iter] = s.Proc().Now() - sched[iter]
				return err
			},
		}, t.cachedRoute(func(iter int) string { return draws[iter] })
	})
}
