// Sharded workload topologies.
//
// Every sharded workload has the same shape: independent file-server
// shards, each on its own host (labelled with its shard index) with its
// clients co-resident, one engine lane per shard, and one central prefix
// server (optionally fronted by an ncache tier) on a further host. What
// varies is what the clients resolve — the Scenario's Kind (scenario.go):
// SharedPrefix one hot name per shard, Zipf (zipf.go) a population. A
// client's first use of a prefix walks the shared wire to that server —
// substrate state whose outcome depends on operation order, so those
// requests are classified Shared and commit in global virtual-time order.
// Once the client's cache holds the resolution, requests route directly
// to the co-resident shard server — provably lane-confined (the
// classifier checks the cached route's host shard label rather than
// assuming co-residency) — and the lanes genuinely overlap: both halves
// of the conservative protocol in one workload, with the paper's own
// mechanism (the §2.3 per-client name cache) deciding which half each
// request falls in. This file holds the one step that boots all of them
// and the one classifier that proves an operation lane-confined.
package rig

import (
	"fmt"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fileserver"
	"repro/internal/kernel"
	"repro/internal/ncache"
	"repro/internal/prefix"
)

// ShardHotPath is the deep name the sharded workload queries: seven
// components of context lookup plus the final object, the same shape the
// A11 team experiment uses for its hot phase.
const ShardHotPath = "deep/a/b/c/d/e/f/hot.dat"

// checkSharded validates the counts every sharded kind needs, refuses
// the Paper kind's fields, and applies the lease rule: lease coherence
// retires the blind flush, because expiry and callbacks bound staleness
// instead (PROTOCOL.md §13).
func (sc *Scenario) checkSharded() error {
	what := string(sc.Kind) + " workload"
	if sc.Shards <= 0 || sc.ClientsPerShard <= 0 || sc.Requests <= 0 {
		return fmt.Errorf("%s: shards, clients and requests must be positive", what)
	}
	if sc.CacheTier && sc.Lease <= 0 {
		return fmt.Errorf("%s: CacheTier requires Lease", what)
	}
	if sc.Lease > 0 {
		sc.FlushEvery = 0
	}
	return sc.ignores("Replicas Baseline Users", sc.Replicas > 1, sc.Baseline, len(sc.Users) > 0)
}

// sharded is a sharded kind's boot step: the prefix server (fixed or
// auto-tuned lease) and the optional cache tier on the "nexus" host, one
// file server per shard host, then add — which binds or seeds what the
// Kind's clients resolve and adds them, each carrying Lane = shard index
// and a classifier that proves cache-hit operations lane-confined via the
// host shard labels — so RunWorkloadEngine runs one engine lane per
// shard, folded onto at most GOMAXPROCS goroutines, and RunWorkload
// reproduces the same result sequentially.
func sharded(add func(*Topology) error) func(*Topology) error {
	return func(t *Topology) error {
		t.PrefixHost = t.Kernel.NewHost("nexus")
		ps, err := prefix.Start(t.PrefixHost, t.owner, t.prefixOpts()...)
		if err != nil {
			return fmt.Errorf("prefix server: %w", err)
		}
		t.Prefix = ps
		// Clients address the resolver: the prefix server itself, or —
		// with the cache tier interposed — the co-resident ncache front,
		// which forwards everything it cannot answer from its own leases.
		t.resolver = ps.PID()
		if t.sc.CacheTier {
			tier, err := ncache.Start(t.PrefixHost, "ncache", ps.PID(), t.sc.Lease)
			if err != nil {
				return fmt.Errorf("cache tier: %w", err)
			}
			t.Tier = tier
			t.resolver = tier.PID()
		}

		for s := 0; s < t.sc.Shards; s++ {
			host := t.Kernel.NewHost(fmt.Sprintf("shard%d", s))
			host.SetShard(s)
			var opts []fileserver.Option
			if t.sc.FileServerTeam > 1 {
				opts = append(opts, fileserver.WithTeam(t.sc.FileServerTeam))
			}
			fs, err := fileserver.Start(host, fmt.Sprintf("fs%d", s), opts...)
			if err != nil {
				return fmt.Errorf("shard %d: %w", s, err)
			}
			t.Hosts = append(t.Hosts, host)
			t.Shards = append(t.Shards, fs)
		}
		return add(t)
	}
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
// invalidate-and-retry name cache. mk supplies what differs per workload
// — the Op, its arrival process, and the route probe the classifier
// proves local; shard and ci are the client's lane and global index.
func (t *Topology) addClients(mk func(shard, ci int) (*WorkloadClient, routeFunc)) error {
	for s, host := range t.Hosts {
		for c := 0; c < t.sc.ClientsPerShard; c++ {
			proc, err := host.NewProcess(fmt.Sprintf("%s%d-%d", t.owner, s, c))
			if err != nil {
				return fmt.Errorf("shard %d client %d: %w", s, c, err)
			}
			sess := t.session(proc, t.resolver, t.Shards[s].RootPair(), t.owner)
			if t.sc.Lease > 0 {
				if err := sess.EnableLeaseCache(); err != nil {
					return fmt.Errorf("shard %d client %d lease cache: %w", s, c, err)
				}
			} else {
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
