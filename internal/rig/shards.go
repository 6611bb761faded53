// Sharded workload topologies.
//
// Every sharded workload has the same shape: independent file-server
// shards, each on its own host (labelled with its shard index) with its
// clients co-resident, one engine lane per shard. What varies is how
// names reach the shard server. NewShardedWorkload queries it directly:
// every request is a local hop that never touches the shared-wire
// ledger, the loss RNG, or another lane's servers. sharedprefix.go and
// zipf.go put one central prefix server (optionally fronted by an ncache
// tier) on a further host, so resolutions cross the shared wire until a
// client's cache holds the route. This file holds the one builder that
// boots all of them and the one classifier that proves an operation
// lane-confined.
package rig

import (
	"fmt"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fileserver"
	"repro/internal/flight"
	"repro/internal/kernel"
	"repro/internal/ncache"
	"repro/internal/netsim"
	"repro/internal/prefix"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// ShardHotPath is the deep name the sharded workload queries: seven
// components of context lookup plus the final object, the same shape the
// A11 team experiment uses for its hot phase.
const ShardHotPath = "deep/a/b/c/d/e/f/hot.dat"

// topology is the booted substrate every sharded workload embeds.
type topology struct {
	Kernel *kernel.Kernel
	Net    *netsim.Network
	// PrefixHost and Prefix are the central "nexus" prefix server (nil
	// for NewShardedWorkload, whose clients name their shard directly).
	PrefixHost *kernel.Host
	Prefix     *prefix.Server
	// Tier is the shared intermediate cache (nil unless CacheTier).
	Tier *ncache.Tier
	// Tracer is the installed tracer (nil unless Trace).
	Tracer *trace.Tracer
	// Flight is the workload's always-on flight recorder (PROTOCOL.md
	// §15); seal it at fences with SealFlightAtFences.
	Flight  *flight.Recorder
	Hosts   []*kernel.Host
	Shards  []*fileserver.FileServer
	Clients []*WorkloadClient

	cfg SharedPrefixConfig
	// owner names the servers' owner, the sessions' user and the client
	// processes ("bench0-1").
	owner string
	// resolver is the process clients address prefixed names to: the
	// prefix server, the tier in front of it, or NilPID without either.
	resolver kernel.PID
}

// bootTopology boots kernel and network, installs the flight recorder
// and the optional tracer, starts the optional prefix server (fixed or
// auto-tuned lease) and cache tier on the "nexus" host, and starts one
// file server per shard host. SharedPrefixConfig is the general shape:
// ShardConfig is its prefix-less subset and ZipfConfig maps onto it with
// Arrivals as Requests. Clients are added by addClients once the caller
// has bound whatever its workload resolves.
func bootTopology(what, owner string, withPrefix bool, cfg SharedPrefixConfig) (*topology, error) {
	if cfg.Shards <= 0 || cfg.ClientsPerShard <= 0 || cfg.Requests <= 0 {
		return nil, fmt.Errorf("%s: shards, clients and requests must be positive", what)
	}
	if cfg.CacheTier && cfg.Lease <= 0 {
		return nil, fmt.Errorf("%s: CacheTier requires Lease", what)
	}
	if cfg.Lease > 0 {
		// Lease coherence retires the blind flush: expiry and callbacks
		// bound staleness instead (PROTOCOL.md §13).
		cfg.FlushEvery = 0
	}
	net := netsim.New(vtime.DefaultModel(), cfg.Seed)
	k := kernel.New(net)
	t := &topology{Kernel: k, Net: net, Flight: flight.New(1 << 14), cfg: cfg, owner: owner}
	k.SetFlight(t.Flight)
	if cfg.TraceSample != nil {
		t.Tracer = trace.NewSampled(*cfg.TraceSample)
	} else if cfg.Trace {
		t.Tracer = trace.New()
	}
	if t.Tracer != nil {
		k.SetTracer(t.Tracer)
		net.SetRecorder(t.Tracer)
	}

	if withPrefix {
		t.PrefixHost = k.NewHost("nexus")
		var popts []prefix.Option
		if cfg.Lease > 0 && cfg.AutoTuneMax > 0 {
			popts = append(popts, prefix.WithLeaseAutoTune(cfg.Lease, cfg.AutoTuneMax))
		} else if cfg.Lease > 0 {
			popts = append(popts, prefix.WithLease(cfg.Lease))
		}
		ps, err := prefix.Start(t.PrefixHost, owner, popts...)
		if err != nil {
			return nil, fmt.Errorf("prefix server: %w", err)
		}
		t.Prefix = ps
		// Clients address the resolver: the prefix server itself, or —
		// with the cache tier interposed — the co-resident ncache front,
		// which forwards everything it cannot answer from its own leases.
		t.resolver = ps.PID()
		if cfg.CacheTier {
			tier, err := ncache.Start(t.PrefixHost, "ncache", ps.PID(), cfg.Lease)
			if err != nil {
				return nil, fmt.Errorf("cache tier: %w", err)
			}
			t.Tier = tier
			t.resolver = tier.PID()
		}
	}

	for s := 0; s < cfg.Shards; s++ {
		host := k.NewHost(fmt.Sprintf("shard%d", s))
		host.SetShard(s)
		var opts []fileserver.Option
		if cfg.Team > 1 {
			opts = append(opts, fileserver.WithTeam(cfg.Team))
		}
		fs, err := fileserver.Start(host, fmt.Sprintf("fs%d", s), opts...)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", s, err)
		}
		t.Hosts = append(t.Hosts, host)
		t.Shards = append(t.Shards, fs)
	}
	return t, nil
}

// seedHotPath writes ShardHotPath on every shard file server.
func (t *topology) seedHotPath() error {
	payload := make([]byte, 512)
	for i := range payload {
		payload[i] = byte(i)
	}
	for s, fs := range t.Shards {
		if _, err := fs.MkdirAll("/deep/a/b/c/d/e/f", t.owner); err != nil {
			return fmt.Errorf("shard %d: %w", s, err)
		}
		if err := fs.WriteFile("/"+ShardHotPath, t.owner, payload); err != nil {
			return fmt.Errorf("shard %d: %w", s, err)
		}
	}
	return nil
}

// routeFunc predicts where a client's iteration iter will be sent
// without performing it: the (server, context) pair, or false when the
// operation must first resolve through the shared prefix server.
type routeFunc func(s *client.Session, iter int) (core.ContextPair, bool)

// addClients boots ClientsPerShard processes on every shard host, each
// with a session rooted at its co-resident file server and addressing
// the topology's resolver. A client gets exactly one cache: the lease
// cache when the prefix server grants leases, else the
// invalidate-and-retry name cache (none without a prefix server). mk
// supplies what differs per workload — the Op, its arrival process, and
// the route probe the classifier proves local; shard and ci are the
// client's lane and global index.
func (t *topology) addClients(mk func(shard, ci int) (*WorkloadClient, routeFunc)) error {
	for s, host := range t.Hosts {
		for c := 0; c < t.cfg.ClientsPerShard; c++ {
			proc, err := host.NewProcess(fmt.Sprintf("%s%d-%d", t.owner, s, c))
			if err != nil {
				return fmt.Errorf("shard %d client %d: %w", s, c, err)
			}
			sess := client.New(proc, t.resolver, t.Shards[s].RootPair(), t.owner)
			if t.cfg.Lease > 0 {
				if err := sess.EnableLeaseCache(); err != nil {
					return fmt.Errorf("shard %d client %d lease cache: %w", s, c, err)
				}
			} else if t.Prefix != nil {
				sess.EnableNameCache(true)
			}
			wc, route := mk(s, s*t.cfg.ClientsPerShard+c)
			wc.Session, wc.Requests, wc.Lane = sess, t.cfg.Requests, s
			wc.Classify = confinedOnLocalRoute(t.Kernel, host, route)
			t.Clients = append(t.Clients, wc)
		}
	}
	return nil
}

// cachedRoute is the route probe for a client querying name(iter)
// through its one cache. Clients probe at their own clock: the driver has
// already advanced it to the operation's effective start, the engine
// publishes that instant as the operation's key, and the session
// re-checks validity at the same clock on entry (client.LeasedRoute), so
// classifier and operation agree on expiry exactly; a lapsed or absent
// entry must resolve over the shared wire. Name-cache clients flush
// every FlushEvery iterations (flushes, below), and an iteration that
// flushes re-resolves whatever the cache holds now.
func (t *topology) cachedRoute(name func(iter int) string) routeFunc {
	return func(s *client.Session, iter int) (core.ContextPair, bool) {
		if t.flushes(iter) {
			return core.ContextPair{}, false
		}
		return s.LeasedRoute(name(iter), s.Proc().Now())
	}
}

// flushes reports whether a name-cache client drops its cache before
// iteration iter.
func (t *topology) flushes(iter int) bool {
	return t.cfg.FlushEvery > 0 && iter > 0 && iter%t.cfg.FlushEvery == 0
}

// confinedOnLocalRoute classifies a client's next operation for the
// engine: Confined exactly when route predicts a server whose host
// carries the same shard label as the client's own host (a local hop
// touching no cross-lane substrate), Shared otherwise. The shard-label
// proof keeps the classifier honest if a topology is ever rewired: an
// unlabeled or foreign host never classifies as confined.
func confinedOnLocalRoute(k *kernel.Kernel, clientHost *kernel.Host, route routeFunc) func(*client.Session, int) engine.Class {
	return func(s *client.Session, iter int) engine.Class {
		pair, ok := route(s, iter)
		if !ok {
			return engine.Shared
		}
		h := k.HostOf(pair.Server)
		if h == nil || h.Shard() < 0 || h.Shard() != clientHost.Shard() {
			return engine.Shared
		}
		return engine.Confined
	}
}

// ShardedWorkload is a self-contained multi-shard benchmark topology.
type ShardedWorkload struct {
	*topology
}

// ShardConfig shapes a sharded workload.
type ShardConfig struct {
	// Shards is the number of independent file-server shards (= lanes).
	Shards int
	// ClientsPerShard is the number of co-resident clients per shard.
	ClientsPerShard int
	// Requests is each client's quota of Query iterations.
	Requests int
	// Team is each shard file server's team size (0/1 = single process).
	Team int
	// Seed drives the network's deterministic RNG.
	Seed int64
}

// NewShardedWorkload boots the sharded topology: Shards hosts, each
// running one file server seeded with the deep hot path, plus
// ClientsPerShard client processes on the same host whose Op queries
// ShardHotPath relative to their own server's root. Clients carry Lane =
// shard index, so RunWorkloadEngine runs one goroutine-lane per shard
// and RunWorkload reproduces the same result sequentially.
func NewShardedWorkload(cfg ShardConfig) (*ShardedWorkload, error) {
	t, err := bootTopology("sharded workload", "bench", false, SharedPrefixConfig{
		Shards: cfg.Shards, ClientsPerShard: cfg.ClientsPerShard, Requests: cfg.Requests,
		Team: cfg.Team, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	if err := t.seedHotPath(); err != nil {
		return nil, err
	}
	err = t.addClients(func(shard, _ int) (*WorkloadClient, routeFunc) {
		root := t.Shards[shard].RootPair()
		return &WorkloadClient{
			Op: func(s *client.Session, iter int) error {
				_, err := s.Query(ShardHotPath)
				return err
			},
		}, func(*client.Session, int) (core.ContextPair, bool) { return root, true }
	})
	if err != nil {
		return nil, err
	}
	return &ShardedWorkload{t}, nil
}
