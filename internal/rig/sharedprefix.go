// Shared-prefix-server workload topology: the rig PR 4's parallel
// driver could not go wide on, and the conservative engine's reason to
// exist.
//
// Every shard keeps its file server and clients co-resident (as in
// shards.go), but name resolution is centralized: one prefix server on
// its own host maps every shard's context prefix. A client's first use
// of its prefix walks the shared wire to that server — substrate state
// whose outcome depends on operation order, so those requests are
// classified Shared and commit in global virtual-time order. Once the
// client's name cache holds the resolution, requests route directly to
// the co-resident shard server — provably lane-confined (the classifier
// checks the cached route's host shard label rather than assuming
// co-residency) — and the lanes genuinely overlap. The topology thereby
// exercises both halves of the conservative protocol in one workload,
// with the paper's own mechanism (the §2.3 per-client name cache)
// deciding which half each request falls in.
package rig

import (
	"fmt"
	"time"

	"repro/internal/client"
	"repro/internal/trace"
)

// SharedPrefixConfig shapes a shared-prefix workload.
type SharedPrefixConfig struct {
	// Shards is the number of file-server shards (= engine lanes).
	Shards int
	// ClientsPerShard is the number of co-resident clients per shard.
	ClientsPerShard int
	// Requests is each client's quota of Query iterations.
	Requests int
	// Team is each shard file server's team size (0/1 = single process).
	Team int
	// Seed drives the network's deterministic RNG.
	Seed int64
	// FlushEvery, when positive, flushes each client's name cache every
	// FlushEvery iterations (fresh program instances start cold, §2.3),
	// forcing periodic Shared re-resolutions through the prefix server.
	// Zero means only iteration 0 misses. It is the pre-lease compat
	// knob: with Lease set, flushes are skipped — lease coherence makes
	// the blind flush redundant (PROTOCOL.md §13).
	FlushEvery int
	// Lease, when positive, replaces the invalidate-and-retry name cache
	// with the lease-coherent hierarchy: the prefix server grants leases
	// of this length, clients run the lease cache with callback
	// invalidation, and expired entries revalidate instead of flushing.
	Lease time.Duration
	// CacheTier, when true (requires Lease), interposes a shared ncache
	// tier co-resident with the prefix host: clients address the tier,
	// which holds upstream leases and re-grants bounded sub-leases.
	CacheTier bool
	// AutoTuneMax, when positive (requires Lease, which becomes the
	// floor), replaces the fixed lease length with the per-name
	// auto-tuner (PROTOCOL.md §15): grants grow from Lease toward this
	// cap while a name's redefinition rate stays low, and reset to the
	// floor when it churns.
	AutoTuneMax time.Duration
	// Trace installs a domain tracer on the kernel and network. Tracing
	// charges zero virtual time, so traced runs measure identically.
	Trace bool
	// TraceSample, when non-nil, installs the tracer in sampled mode
	// (PROTOCOL.md §15). Implies Trace.
	TraceSample *trace.SampleConfig
}

// SharedPrefixWorkload is the booted topology.
type SharedPrefixWorkload struct {
	*topology
}

// NewSharedPrefixWorkload boots the topology: one prefix host, Shards
// file-server hosts with ClientsPerShard co-resident clients each, every
// shard's root bound to the context prefix [shard<i>] on the central
// prefix server, and every client running the invalidate-and-retry name
// cache (or, with Lease, the lease cache). Clients carry Lane = shard
// index and a classifier that proves cache-hit queries lane-confined via
// the host shard labels.
func NewSharedPrefixWorkload(cfg SharedPrefixConfig) (*SharedPrefixWorkload, error) {
	t, err := bootTopology("shared-prefix workload", "bench", true, cfg)
	if err != nil {
		return nil, err
	}
	if err := t.seedHotPath(); err != nil {
		return nil, err
	}
	for s, fs := range t.Shards {
		if err := t.Prefix.Define(fmt.Sprintf("shard%d", s), fs.RootPair()); err != nil {
			return nil, fmt.Errorf("shard %d prefix: %w", s, err)
		}
	}
	err = t.addClients(func(shard, _ int) (*WorkloadClient, routeFunc) {
		name := fmt.Sprintf("[shard%d]%s", shard, ShardHotPath)
		return &WorkloadClient{
			Op: func(s *client.Session, iter int) error {
				if t.flushes(iter) {
					s.FlushNameCache()
				}
				_, err := s.Query(name)
				return err
			},
		}, t.cachedRoute(func(int) string { return name })
	})
	if err != nil {
		return nil, err
	}
	return &SharedPrefixWorkload{t}, nil
}
