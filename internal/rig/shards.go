// Sharded workload topologies.
//
// Every sharded workload has the same shape: independent file-server
// shards, each on its own host (labelled with its shard index) with its
// clients co-resident, one engine lane per shard. What varies is how
// names reach the shard server — the Scenario's Kind (scenario.go).
// Direct clients query it by a name relative to its own root: every
// request is a local hop that never touches the shared-wire ledger, the
// loss RNG, or another lane's servers. SharedPrefix and Zipf (zipf.go)
// put one central prefix server (optionally fronted by an ncache tier)
// on a further host. A client's first use of a prefix walks the shared
// wire to that server — substrate state whose outcome depends on
// operation order, so those requests are classified Shared and commit in
// global virtual-time order. Once the client's cache holds the
// resolution, requests route directly to the co-resident shard server —
// provably lane-confined (the classifier checks the cached route's host
// shard label rather than assuming co-residency) — and the lanes
// genuinely overlap: both halves of the conservative protocol in one
// workload, with the paper's own mechanism (the §2.3 per-client name
// cache) deciding which half each request falls in. This file holds the
// one builder that boots all of them and the one classifier that proves
// an operation lane-confined.
package rig

import (
	"fmt"
	"time"

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

// Topology is a booted Scenario: the substrate, its servers and the
// clients ready to drive.
type Topology struct {
	Kernel *kernel.Kernel
	Net    *netsim.Network
	// PrefixHost and Prefix are the central "nexus" prefix server (nil
	// for Direct, whose clients name their shard directly).
	PrefixHost *kernel.Host
	Prefix     *prefix.Server
	// Tier is the shared intermediate cache (nil unless CacheTier).
	Tier *ncache.Tier
	// Tracer is the installed tracer (nil unless Trace).
	Tracer *trace.Tracer
	// Flight is the workload's always-on flight recorder (PROTOCOL.md
	// §15); Run seals it at every fence.
	Flight  *flight.Recorder
	Hosts   []*kernel.Host
	Shards  []*fileserver.FileServer
	Clients []*WorkloadClient

	// Zipf only: Schedule[c][i] is client c's i-th scheduled virtual
	// arrival and Latencies[c][i] that operation's open-loop latency
	// (virtual completion minus scheduled arrival), filled in as the
	// workload runs.
	Schedule  [][]time.Duration
	Latencies [][]time.Duration

	sc Scenario
	// owner names the servers' owner, the sessions' user and the client
	// processes ("bench0-1").
	owner string
	// resolver is the process clients address prefixed names to: the
	// prefix server, the tier in front of it, or NilPID without either.
	resolver kernel.PID
}

// Sessions returns the clients' naming sessions in client order.
func (t *Topology) Sessions() []*client.Session {
	out := make([]*client.Session, len(t.Clients))
	for i, c := range t.Clients {
		out[i] = c.Session
	}
	return out
}

// Boot boots the scenario's topology without running it: kernel and
// network, the flight recorder and the optional tracer, the prefix
// server (fixed or auto-tuned lease) and cache tier on the "nexus" host
// for every Kind but Direct, one file server per shard host, whatever
// the Kind's clients resolve bound or seeded, and the clients
// themselves, each carrying Lane = shard index and a classifier that
// proves cache-hit operations lane-confined via the host shard labels —
// so RunWorkloadEngine runs one goroutine-lane per shard and
// RunWorkload reproduces the same result sequentially. Faults and
// Sequential are Run's business and are ignored here.
func (sc Scenario) Boot() (*Topology, error) {
	kind, ok := kinds[sc.Kind]
	if !ok {
		return nil, fmt.Errorf("rig: unknown scenario kind %q", sc.Kind)
	}
	what, owner := string(sc.Kind)+" workload", kind.owner
	if sc.Kind == Zipf {
		if err := sc.checkZipf(); err != nil {
			return nil, err
		}
	}
	if sc.Shards <= 0 || sc.ClientsPerShard <= 0 || sc.Requests <= 0 {
		return nil, fmt.Errorf("%s: shards, clients and requests must be positive", what)
	}
	if sc.CacheTier && sc.Lease <= 0 {
		return nil, fmt.Errorf("%s: CacheTier requires Lease", what)
	}
	if sc.Lease > 0 {
		// Lease coherence retires the blind flush: expiry and callbacks
		// bound staleness instead (PROTOCOL.md §13).
		sc.FlushEvery = 0
	}
	net := netsim.New(vtime.DefaultModel(), sc.Seed)
	k := kernel.New(net)
	t := &Topology{Kernel: k, Net: net, Flight: flight.New(1 << 14), sc: sc, owner: owner}
	k.SetFlight(t.Flight)
	if sc.TraceSample != nil {
		t.Tracer = trace.NewSampled(*sc.TraceSample)
	} else if sc.Trace {
		t.Tracer = trace.New()
	}
	if t.Tracer != nil {
		k.SetTracer(t.Tracer)
		net.SetRecorder(t.Tracer)
	}

	if sc.Kind != Direct {
		t.PrefixHost = k.NewHost("nexus")
		var popts []prefix.Option
		if sc.Lease > 0 && sc.AutoTuneMax > 0 {
			popts = append(popts, prefix.WithLeaseAutoTune(sc.Lease, sc.AutoTuneMax))
		} else if sc.Lease > 0 {
			popts = append(popts, prefix.WithLease(sc.Lease))
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
		if sc.CacheTier {
			tier, err := ncache.Start(t.PrefixHost, "ncache", ps.PID(), sc.Lease)
			if err != nil {
				return nil, fmt.Errorf("cache tier: %w", err)
			}
			t.Tier = tier
			t.resolver = tier.PID()
		}
	}

	for s := 0; s < sc.Shards; s++ {
		host := k.NewHost(fmt.Sprintf("shard%d", s))
		host.SetShard(s)
		var opts []fileserver.Option
		if sc.Team > 1 {
			opts = append(opts, fileserver.WithTeam(sc.Team))
		}
		fs, err := fileserver.Start(host, fmt.Sprintf("fs%d", s), opts...)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", s, err)
		}
		t.Hosts = append(t.Hosts, host)
		t.Shards = append(t.Shards, fs)
	}
	if err := kind.addClients(t); err != nil {
		return nil, err
	}
	return t, nil
}

// kinds gives each Kind the owner its servers, sessions and client
// processes are named for, and the step that binds or seeds what its
// clients resolve and then adds them.
var kinds = map[Kind]struct {
	owner      string
	addClients func(*Topology) error
}{
	Direct:       {"bench", (*Topology).addDirectClients},
	SharedPrefix: {"bench", (*Topology).addSharedPrefixClients},
	Zipf:         {"pop", (*Topology).addZipfClients},
}

// seedHotPath writes ShardHotPath on every shard file server.
func (t *Topology) seedHotPath() error {
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
func (t *Topology) addClients(mk func(shard, ci int) (*WorkloadClient, routeFunc)) error {
	for s, host := range t.Hosts {
		for c := 0; c < t.sc.ClientsPerShard; c++ {
			proc, err := host.NewProcess(fmt.Sprintf("%s%d-%d", t.owner, s, c))
			if err != nil {
				return fmt.Errorf("shard %d client %d: %w", s, c, err)
			}
			sess := client.New(proc, t.resolver, t.Shards[s].RootPair(), t.owner)
			if t.sc.Lease > 0 {
				if err := sess.EnableLeaseCache(); err != nil {
					return fmt.Errorf("shard %d client %d lease cache: %w", s, c, err)
				}
			} else if t.Prefix != nil {
				sess.EnableNameCache(true)
			}
			wc, route := mk(s, s*t.sc.ClientsPerShard+c)
			wc.Session, wc.Requests, wc.Lane = sess, t.sc.Requests, s
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
func (t *Topology) cachedRoute(name func(iter int) string) routeFunc {
	return func(s *client.Session, iter int) (core.ContextPair, bool) {
		if t.flushes(iter) {
			return core.ContextPair{}, false
		}
		return s.LeasedRoute(name(iter), s.Proc().Now())
	}
}

// flushes reports whether a name-cache client drops its cache before
// iteration iter.
func (t *Topology) flushes(iter int) bool {
	return t.sc.FlushEvery > 0 && iter > 0 && iter%t.sc.FlushEvery == 0
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

// addDirectClients seeds the deep hot path on every shard and adds
// clients whose Op queries ShardHotPath relative to their own server's
// root.
func (t *Topology) addDirectClients() error {
	if err := t.seedHotPath(); err != nil {
		return err
	}
	return t.addClients(func(shard, _ int) (*WorkloadClient, routeFunc) {
		root := t.Shards[shard].RootPair()
		return &WorkloadClient{
			Op: func(s *client.Session, iter int) error {
				_, err := s.Query(ShardHotPath)
				return err
			},
		}, func(*client.Session, int) (core.ContextPair, bool) { return root, true }
	})
}

// addSharedPrefixClients seeds the hot path, binds every shard's root to
// the context prefix [shard<i>] on the central prefix server, and adds
// clients querying [shard<own>]ShardHotPath through their one cache.
func (t *Topology) addSharedPrefixClients() error {
	if err := t.seedHotPath(); err != nil {
		return err
	}
	for s, fs := range t.Shards {
		if err := t.Prefix.Define(fmt.Sprintf("shard%d", s), fs.RootPair()); err != nil {
			return fmt.Errorf("shard %d prefix: %w", s, err)
		}
	}
	return t.addClients(func(shard, _ int) (*WorkloadClient, routeFunc) {
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
}
