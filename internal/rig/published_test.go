package rig

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/client"
	"repro/internal/kernel"
	"repro/internal/lease"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/vtime"
)

// TestPublishedSeriesCountOnce: a series read from a count its emitter
// keeps means what it meant when every event also added to it. Emitters
// under one key are summed, a registry installed after traffic counts
// from its install (the wire and a forward alike), a re-created server
// does not count its requests twice, and first events racing an
// install neither lose an event nor count one twice.
func TestPublishedSeriesCountOnce(t *testing.T) {
	holder := metrics.Labels{Server: "holder", Class: "client"}
	hitsOf := func(c *lease.Cache) uint64 { return c.Snapshot()[lease.Hit] }

	t.Run("two meters under one key", func(t *testing.T) {
		k := kernel.New(netsim.New(vtime.DefaultModel(), 1))
		reg := metrics.New()
		k.SetMetrics(reg)
		p, err := k.NewHost("ws").NewProcess("holder")
		if err != nil {
			t.Fatal(err)
		}
		caches := []*lease.Cache{lease.NewCache(lease.NewMeter(k, "client", "holder")), lease.NewCache(lease.NewMeter(k, "client", "holder"))}
		for i, c := range caches {
			c.Store("n", lease.Entry{Expire: lease.Never})
			for j := 0; j < 2+i; j++ {
				c.Lookup(p, "n", 0)
			}
		}
		if got, want := countOf(reg, "lease_hits_total", holder), hitsOf(caches[0])+hitsOf(caches[1]); got != want || want != 5 {
			t.Fatalf("lease_hits_total = %d, the two meters counted %d hits (want 5)", got, want)
		}
	})

	t.Run("registry installed after traffic", func(t *testing.T) {
		r := mustNew(t, DefaultConfig())
		s, ps := r.WS[0].Session, r.WS[0].Prefix
		read := func(n int) {
			for i := 0; i < n; i++ {
				s.FlushNameCache()
				if _, err := s.ReadFile("[bin]hello"); err != nil {
					t.Fatal(err)
				}
			}
		}
		// The boot registry is removed, traffic runs with none, then a
		// fresh one is installed: the wire and the forward count from its
		// install alike.
		r.Kernel.SetMetrics(nil)
		r.Net.SetMetrics(nil)
		frames0 := r.Net.Stats().Packets
		read(2)
		reg := metrics.New()
		frames1, forwards1 := r.Net.Stats().Packets, ps.Stats().Forwards
		r.Kernel.SetMetrics(reg)
		r.Net.SetMetrics(reg)
		read(3)
		forwarded := metrics.Labels{Server: "context-prefix[mann]"}
		if got, want := countOf(reg, "wire_frames_total", metrics.Labels{}), r.Net.Stats().Packets-frames1; got != want || want == 0 {
			t.Errorf("wire_frames_total = %d, %d frames since install", got, want)
		}
		if got, want := countOf(reg, "prefix_forwards_total", forwarded), ps.Stats().Forwards-forwards1; got != want || want == 0 {
			t.Errorf("prefix_forwards_total = %d, %d forwards since install", got, want)
		}
		if got := countOf(r.Metrics, "wire_frames_total", metrics.Labels{}); got != frames0 {
			t.Errorf("the removed registry reads %d frames, %d were carried while it was installed", got, frames0)
		}
	})

	t.Run("fs1 crashed and re-created", func(t *testing.T) {
		r := mustNew(t, DefaultConfig())
		s := r.WS[0].Session
		read := func() {
			s.FlushNameCache()
			if _, err := s.ReadFile("[bin]hello"); err != nil {
				t.Fatal(err)
			}
		}
		const fs1 = "fileserver[fs1]"
		read()
		before := requestsOf(r.Metrics, fs1)
		faultFS1(t, r, chaos.Crash, chaos.Restart)
		read()
		after := requestsOf(r.Metrics, fs1)
		if after <= before || before == 0 {
			t.Fatalf("fs1 answered %d requests before its crash and %d in all", before, after)
		}
		snap := r.Metrics.Snapshot()
		for _, h := range snap.Histograms {
			if h.Name != "serve_latency" || h.Labels.Server != fs1 {
				continue
			}
			if got := countOf(r.Metrics, "server_requests_total", h.Labels); got != h.Count {
				t.Errorf("server_requests_total%+v = %d, serve_latency counted %d", h.Labels, got, h.Count)
			}
		}
	})

	t.Run("racing first events", func(t *testing.T) {
		const goroutines, each = 4, 50
		k := kernel.New(netsim.New(vtime.DefaultModel(), 1))
		host := k.NewHost("ws")
		procs := make([]*kernel.Process, goroutines)
		for i := range procs {
			p, err := host.NewProcess(fmt.Sprintf("holder%d", i))
			if err != nil {
				t.Fatal(err)
			}
			procs[i] = p
		}
		for round := 0; round < 20; round++ {
			c := lease.NewCache(lease.NewMeter(k, "client", "holder"))
			c.Store("n", lease.Entry{Expire: lease.Never})
			k.SetMetrics(nil)
			c.Lookup(procs[0], "n", 0) // under no registry: the meter's alone
			reg := metrics.New()
			k.SetMetrics(reg)
			start := make(chan struct{})
			var wg sync.WaitGroup
			for _, p := range procs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					for i := 0; i < each; i++ {
						c.Lookup(p, "n", 0)
					}
				}()
			}
			close(start)
			wg.Wait()
			if got, recorded := countOf(reg, "lease_hits_total", holder), hitsOf(c)-1; got != recorded || recorded != goroutines*each {
				t.Fatalf("round %d: lease_hits_total = %d, %d hits recorded under the registry", round, got, recorded)
			}
		}
	})
}

// countOf reads the counter name{l} from a snapshot of reg.
func countOf(reg *metrics.Registry, name string, l metrics.Labels) uint64 {
	for _, c := range reg.Snapshot().Counters {
		if c.Name == name && c.Labels == l {
			return c.Value
		}
	}
	return 0
}

// requestsOf sums server_requests_total over server's ops.
func requestsOf(reg *metrics.Registry, server string) (n uint64) {
	for _, c := range reg.Snapshot().Counters {
		if c.Name == "server_requests_total" && c.Labels.Server == server {
			n += c.Value
		}
	}
	return n
}

// TestRemovedRegistryStopsCounting: a registry counts what happens while
// it is installed. Removed, every series it lists stops where it stood —
// a forward's as much as the wire's; replaced, it stops and its successor
// counts the events from the swap on.
func TestRemovedRegistryStopsCounting(t *testing.T) {
	t.Run("removed", func(t *testing.T) {
		r := mustNew(t, DefaultConfig())
		s, ps := r.WS[0].Session, r.WS[0].Prefix
		read := func(n int) {
			for i := 0; i < n; i++ {
				s.FlushNameCache()
				if _, err := s.ReadFile("[bin]hello"); err != nil {
					t.Fatal(err)
				}
			}
		}
		forwarded := metrics.Labels{Server: "context-prefix[mann]"}
		read(1)
		r.Kernel.SetMetrics(nil)
		r.Net.SetMetrics(nil)
		before := r.Metrics.Snapshot()
		read(3)
		if got := countOf(r.Metrics, "prefix_forwards_total", forwarded); got != 1 || ps.Stats().Forwards != 4 {
			t.Errorf("the removed registry reads %d forwards, want the 1 of its install; the server forwarded %d",
				got, ps.Stats().Forwards)
		}
		if after := r.Metrics.Snapshot(); !reflect.DeepEqual(after.Deterministic(), before.Deterministic()) {
			t.Errorf("the removed registry's snapshot moved:\n%+v\n%+v", before.Counters, after.Counters)
		}
	})

	t.Run("swapped", func(t *testing.T) {
		sw, err := Scenario{Kind: SharedPrefix, Shards: 2, ClientsPerShard: 3, Requests: 8, Seed: 11,
			Lease: 500 * time.Millisecond, CacheTier: true}.Boot()
		if err != nil {
			t.Fatal(err)
		}
		install := func(reg *metrics.Registry) {
			sw.Kernel.SetMetrics(reg)
			sw.Net.SetMetrics(reg)
		}
		counts := func(reg *metrics.Registry) (hits, forwards uint64) {
			s := metrics.Sample{Counters: reg.Snapshot().Counters}
			return s.Total("lease_hits_total"), s.Total("ncache_forwards_total")
		}
		hitsNow := func() (n uint64) {
			for _, wc := range sw.Clients {
				n += uint64(wc.Session.LeaseCacheStats().Hits)
			}
			return n + sw.Tier.Stats().Hits
		}
		proc, err := sw.Hosts[0].NewProcess("plain")
		if err != nil {
			t.Fatal(err)
		}
		plain := client.New(proc, sw.Tier.PID(), sw.Shards[0].RootPair(), "plain")
		drive := func() {
			RunWorkload(sw.Clients)
			if _, err := plain.Query("[shard0]" + ShardHotPath); err != nil { // forwarded by the tier
				t.Fatal(err)
			}
		}
		a, b := metrics.New(), metrics.New()
		install(a)
		drive()
		hitsA, forwardsA := counts(a)
		hits0, forwards0 := hitsNow(), sw.Tier.Stats().Forwards
		if hitsA != hits0 || forwardsA != forwards0 || hitsA == 0 || forwardsA == 0 {
			t.Fatalf("A counts %d lease hits and %d tier forwards; the emitters counted %d and %d",
				hitsA, forwardsA, hits0, forwards0)
		}
		install(b)
		drive()
		if hits, forwards := counts(a); hits != hitsA || forwards != forwardsA {
			t.Errorf("A, replaced, went on to %d lease hits and %d tier forwards from %d and %d",
				hits, forwards, hitsA, forwardsA)
		}
		hits, forwards := counts(b)
		if want := hitsNow() - hits0; hits != want || want == 0 {
			t.Errorf("B counts %d lease hits, %d since the swap", hits, want)
		}
		if want := sw.Tier.Stats().Forwards - forwards0; forwards != want || want == 0 {
			t.Errorf("B counts %d tier forwards, %d since the swap", forwards, want)
		}
	})
}
