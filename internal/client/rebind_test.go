package client

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/netsim"
	"repro/internal/prefix"
	"repro/internal/proto"
	"repro/internal/vtime"
)

// toy is a one-context server: it maps any name to (itself, ctx 1), and
// answers every other request OK — or, once deposed, with a NotLeader
// redirect naming its successor.
type toy struct {
	proc      *kernel.Process
	successor atomic.Uint32
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
		} else if hint := ty.successor.Load(); hint != 0 {
			reply.Op = proto.ReplyNotLeader
			proto.SetLeaderHint(reply, hint)
		}
		_ = p.Reply(reply, from)
	})
	t.Cleanup(p.Destroy)
	return ty
}

// rebindRig boots a prefix server with [a] bound to a toy server, and a
// resilient session whose current context is that server, entered by
// the name "[a]".
func rebindRig(t *testing.T) (*Session, *kernel.Host, *toy) {
	t.Helper()
	k := kernel.New(netsim.New(vtime.DefaultModel(), 1))
	host := k.NewHost("ws")
	ps, err := prefix.Start(host, "u")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ps.Proc().Destroy)
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

// TestRebindFollowsLeaderHint: a NotLeader redirect re-points whatever
// routed the failed attempt — the cached entry for a prefixed name, the
// current context for a relative one — at the named successor, and the
// retry goes straight there without re-resolving.
func TestRebindFollowsLeaderHint(t *testing.T) {
	for _, tc := range []struct {
		label, name string
		cached      bool
	}{
		{"cached prefixed name", "[a]x", true},
		{"relative name", "x", false},
	} {
		t.Run(tc.label, func(t *testing.T) {
			s, host, a := rebindRig(t)
			b := spawnToy(t, host, "b")
			s.EnableNameCache(true)
			if err := s.Remove(tc.name); err != nil { // warm: served by a
				t.Fatal(err)
			}
			a.successor.Store(uint32(b.proc.PID()))
			if err := s.Remove(tc.name); err != nil {
				t.Fatalf("redirected op: %v", err)
			}
			st := s.ResilienceStats()
			if st.Rebinds != 1 || st.Failovers != 1 || st.Retries != 1 {
				t.Fatalf("recovery %+v, want one retry, one rebind, one failover", st)
			}
			if s.leaderHint != kernel.NilPID {
				t.Fatal("leader hint not consumed")
			}
			if tc.cached {
				if got, ok := s.LeasedRoute(tc.name, 0); !ok || got.Server != b.proc.PID() || got.Ctx != 1 {
					t.Fatalf("cached route %v, %v; want the successor, same context", got, ok)
				}
				// The retry hit the re-pointed entry: it never re-resolved.
				if cs := s.LeaseCacheStats(); cs.Misses != 1 || cs.Hits != 2 {
					t.Fatalf("cache %+v, want the one warm miss and two hits", cs)
				}
			} else if s.Current().Server != b.proc.PID() || s.Current().Ctx != 1 {
				t.Fatalf("current context %v, want the successor", s.Current())
			}
		})
	}
}

// TestRebindIgnoresDeadHint: a redirect to a successor that is itself
// gone re-points nothing; the cached entry is dropped instead.
func TestRebindIgnoresDeadHint(t *testing.T) {
	s, host, a := rebindRig(t)
	b := spawnToy(t, host, "b")
	s.EnableNameCache(true)
	if err := s.Remove("[a]x"); err != nil {
		t.Fatal(err)
	}
	a.successor.Store(uint32(b.proc.PID()))
	b.proc.Destroy()
	if err := s.Remove("[a]x"); !errors.Is(err, proto.ErrNotLeader) {
		t.Fatalf("op against a leaderless group: %v", err)
	}
	if got, ok := s.LeasedRoute("[a]x", 0); !ok || got.Server != a.proc.PID() {
		t.Fatalf("route %v, %v: re-resolution must still name a, never the dead hint", got, ok)
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
	st := s.ResilienceStats()
	if st.Retries != 3 || st.Rebinds != 1 || st.OpsFailed != 1 {
		t.Fatalf("recovery %+v, want three retries but only the first rebind counted", st)
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
// entered by — and leaves a live context alone.
func TestRebindRemapsCurrentContext(t *testing.T) {
	s, host, a := rebindRig(t)
	s.rebind("x")
	if st := s.ResilienceStats(); st.Rebinds != 0 || s.Current() != a.pair() {
		t.Fatalf("rebind of a live context: %+v, current %v", st, s.Current())
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
	if st := s.ResilienceStats(); st.Rebinds != 1 || st.Failovers != 1 {
		t.Fatalf("recovery %+v, want one rebind, one failover", st)
	}

	// With no name to re-map from, there is nothing to rebind.
	s.SetCurrentName("")
	b.proc.Destroy()
	s.rebind("x")
	if st := s.ResilienceStats(); st.Rebinds != 1 {
		t.Fatalf("nameless context rebound: %+v", st)
	}
}
