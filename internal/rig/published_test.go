package rig

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/chaos"
	"repro/internal/kernel"
	"repro/internal/lease"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/vtime"
)

// TestPublishedSeriesCountOnce: a series that reads a count its emitter
// keeps means what it meant when every event also added to it. Sources
// under one key are summed, a registry installed after traffic counts
// from its install (the wire) or from its first event (a forward), a
// re-created server does not publish its requests twice, and racing first
// events neither lose an event nor count one twice.
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
		caches := []*lease.Cache{lease.NewCache(lease.NewMeter("client", "holder")), lease.NewCache(lease.NewMeter("client", "holder"))}
		for i, c := range caches {
			c.Store("n", lease.Entry{Expire: lease.Never})
			for j := 0; j < 2+i; j++ {
				c.Lookup(p, "n", 0)
			}
		}
		if got, want := reg.Counter("lease_hits_total", holder).Value(), hitsOf(caches[0])+hitsOf(caches[1]); got != want || want != 5 {
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
		// fresh one is installed.
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
		if got, want := reg.Counter("wire_frames_total", metrics.Labels{}).Value(), r.Net.Stats().Packets-frames1; got != want || want == 0 {
			t.Errorf("wire_frames_total = %d, %d frames since install", got, want)
		}
		if got, want := reg.Counter("prefix_forwards_total", forwarded).Value(), ps.Stats().Forwards-forwards1; got != want || want == 0 {
			t.Errorf("prefix_forwards_total = %d, %d forwards since install", got, want)
		}
		if got := r.Metrics.Counter("wire_frames_total", metrics.Labels{}).Value(); got != frames0 {
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
			if got := r.Metrics.Counter("server_requests_total", h.Labels).Value(); got != h.Count {
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
			c := lease.NewCache(lease.NewMeter("client", "holder"))
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
			if got, recorded := reg.Counter("lease_hits_total", holder).Value(), hitsOf(c)-1; got != recorded || recorded != goroutines*each {
				t.Fatalf("round %d: lease_hits_total = %d, %d hits recorded under the registry", round, got, recorded)
			}
		}
	})
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
