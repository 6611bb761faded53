package client

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/prefix"
	"repro/internal/proto"
	"repro/internal/vtime"
)

// toy is a one-context server: it maps any name to (itself, ctx 1), and
// answers every other request OK — or, once stale is set, with Timeout
// (the bounded-time answer for a dead forward target) and that target's
// pid in F[1], which no client may read.
type toy struct {
	proc  *kernel.Process
	stale atomic.Uint32
}

func (ty *toy) pair() core.ContextPair { return core.ContextPair{Server: ty.proc.PID(), Ctx: 1} }

func spawnToy(t *testing.T, host *kernel.Host, name string) *toy {
	t.Helper()
	p, err := host.NewProcess(name)
	if err != nil {
		t.Fatal(err)
	}
	ty := &toy{proc: p}
	p.Serve(func(msg *proto.Message, from kernel.PID) {
		reply := proto.NewReply(proto.ReplyOK)
		if msg.Op == proto.OpMapContext {
			proto.SetMapContextReply(reply, uint32(p.PID()), 1)
		} else if pid := ty.stale.Load(); pid != 0 {
			reply.Op = proto.ReplyTimeout
			reply.F[1] = pid
		}
		_ = p.Reply(reply, from)
	})
	t.Cleanup(p.Destroy)
	return ty
}

// rebindRig boots a prefix server with [a] bound to a toy server, and a
// resilient session whose current context is that server, entered by
// the name "[a]", on a kernel whose registry counts its recovery.
func rebindRig(t *testing.T) (*Session, *kernel.Host, *toy) {
	t.Helper()
	k := kernel.New(netsim.New(vtime.DefaultModel(), 1))
	k.SetMetrics(metrics.New())
	host := k.NewHost("ws")
	ps, err := prefix.Start(host, "u")
	if err != nil {
		t.Fatal(err)
	}
	a := spawnToy(t, host, "a")
	if err := ps.Define("a", a.pair()); err != nil {
		t.Fatal(err)
	}
	proc, err := host.NewProcess("prog")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(proc.Destroy)
	s := New(proc, ps.PID(), a.pair(), "u")
	s.SetCurrentName("[a]")
	s.EnableResilience(RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond})
	return s, host, a
}

// recovery reads the session's retries, rebinds and failovers from the
// counters its recovery policy keeps.
func recovery(s *Session) [3]uint64 {
	r := s.recovery
	return [3]uint64{r.retries.Value(), r.rebinds.Value(), r.failovers.Value()}
}

// TestRebindIgnoresDeadHint: a retryable Timeout names no successor, and
// the client reads nothing from it, not even a dead pid left in F[1].
// The retry drops the cached entry and re-resolves the name through the
// prefix server, which now binds it to the new server.
func TestRebindIgnoresDeadHint(t *testing.T) {
	s, host, a := rebindRig(t)
	b, dead := spawnToy(t, host, "b"), spawnToy(t, host, "dead")
	s.EnableNameCache(true)
	if err := s.Remove("[a]x"); err != nil { // warm: [a] cached as a
		t.Fatal(err)
	}
	if err := s.DeleteName("a"); err != nil {
		t.Fatal(err)
	}
	if err := s.AddName("a", b.pair()); err != nil {
		t.Fatal(err)
	}
	dead.proc.Destroy()
	a.stale.Store(uint32(dead.proc.PID()))
	if err := s.Remove("[a]x"); err != nil {
		t.Fatalf("op after Timeout: %v", err)
	}
	if st := recovery(s); st != [3]uint64{1, 1, 1} {
		t.Fatalf("retries, rebinds, failovers = %v, want one each", st)
	}
	if cs := s.LeaseCacheStats(); cs.Misses != 2 || cs.Hits != 1 {
		t.Fatalf("cache %+v, want the warm miss, the hit Timeout answered, and the re-resolving miss", cs)
	}
	if got, ok := s.LeasedRoute("[a]x", 0); !ok || got != b.pair() {
		t.Fatalf("route %v, %v: re-resolution must name b, never the dead pid", got, ok)
	}
}

// TestRebindCountsOnlyRealDrops: between attempts the cached resolution
// is dropped, and that is a rebind only when there was one to drop — the
// naive cache's stale entry the first time, nothing after.
func TestRebindCountsOnlyRealDrops(t *testing.T) {
	s, _, a := rebindRig(t)
	s.EnableNameCache(false)
	if err := s.Remove("[a]x"); err != nil {
		t.Fatal(err)
	}
	a.proc.Destroy()
	if err := s.Remove("[a]x"); !errors.Is(err, kernel.ErrNonexistentProcess) {
		t.Fatalf("op on a dead binding: %v", err)
	}
	if st, failed := recovery(s), s.recovery.opFailures.Value(); st[0] != 3 || st[1] != 1 || failed != 1 {
		t.Fatalf("retries, rebinds, failovers = %v, %d failed; want three retries but only the first rebind counted", st, failed)
	}
	if cs := s.LeaseCacheStats(); cs.Stale != 1 {
		t.Fatalf("cache %+v, want the one stale use", cs)
	}
	if _, ok := s.LeasedRoute("[a]x", 0); ok {
		t.Fatal("stale entry survived the rebind")
	}
}

// TestRebindRemapsCurrentContext: when the current context's server
// dies, a relative name's retry re-maps the context from the name it was
// entered by — and leaves a live context alone. With a cache that holds
// the dead pair for that name, the re-map drops it and resolves afresh
// rather than sending to it.
func TestRebindRemapsCurrentContext(t *testing.T) {
	t.Run("uncached", func(t *testing.T) { rebindRemapsCurrentContext(t, nil) })
	t.Run("naive cache", func(t *testing.T) { rebindRemapsCurrentContext(t, []bool{false}) })
	t.Run("retrying cache", func(t *testing.T) { rebindRemapsCurrentContext(t, []bool{true}) })
}

func rebindRemapsCurrentContext(t *testing.T, cache []bool) {
	s, host, a := rebindRig(t)
	s.rebind("x")
	if st := recovery(s); st[1] != 0 || s.Current() != a.pair() {
		t.Fatalf("rebind of a live context: %v, current %v", st, s.Current())
	}
	for _, retry := range cache {
		s.EnableNameCache(retry)
		if _, err := s.MapContext("[a]"); err != nil { // warm: [a] cached as a
			t.Fatal(err)
		}
	}

	b := spawnToy(t, host, "b")
	a.proc.Destroy()
	if err := s.DeleteName("a"); err != nil {
		t.Fatal(err)
	}
	if err := s.AddName("a", b.pair()); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove("x"); err != nil {
		t.Fatalf("relative op after its context's server died: %v", err)
	}
	if s.Current() != b.pair() {
		t.Fatalf("current context %v, want it re-mapped to %v", s.Current(), b.pair())
	}
	if st := recovery(s); st[1] != 1 || st[2] != 1 {
		t.Fatalf("retries, rebinds, failovers = %v, want one rebind, one failover", st)
	}
	if cs := s.LeaseCacheStats(); cs.Stale != 0 {
		t.Fatalf("cache %+v: the re-map sent to the dead pair", cs)
	}

	// With no name to re-map from, there is nothing to rebind.
	s.SetCurrentName("")
	b.proc.Destroy()
	s.rebind("x")
	if st := recovery(s); st[1] != 1 {
		t.Fatalf("nameless context rebound: %v", st)
	}
}
