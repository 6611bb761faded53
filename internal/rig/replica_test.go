package rig

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/replica"
)

// replicaRetryPolicy is the fast recovery policy replicated runs use:
// elections complete within tens of virtual milliseconds, so short
// backoffs keep the leaderless window — the only client-visible
// downtime — small (EXPERIMENTS.md A15).
func replicaRetryPolicy() client.RetryPolicy {
	return client.RetryPolicy{MaxAttempts: 6, BaseDelay: 10 * time.Millisecond, MaxDelay: 80 * time.Millisecond}
}

func TestReplicatedBoot(t *testing.T) {
	r := mustNew(t, Config{Users: []string{"mann"}, Seed: 1, ReadAhead: true, Replicas: 3})
	host, pid := r.FS1Group.Leader()
	if host != "fs1" || pid != r.FS1Group.MemberReplica("fs1").PID() || pid != r.BinCtx.Server {
		t.Fatalf("bootstrap leader = %s/%v, want fs1 slot 0 serving [bin]", host, pid)
	}
	for _, h := range []string{"fs1", "fs1b", "fs1c"} {
		if r.FS1Group.MemberReplica(h) == nil {
			t.Fatalf("no slot for %s", h)
		}
	}
	if r.FS1Group.MemberReplica("fs1d") != nil {
		t.Fatal("a fourth slot, want 3")
	}

	s := r.WS[0].Session
	data, err := s.ReadFile("[home]welcome.txt")
	if err != nil {
		t.Fatalf("ReadFile via replicated fronts: %v", err)
	}
	if !bytes.Contains(data, []byte("mann")) {
		t.Fatalf("welcome.txt = %q", data)
	}
	if _, err := s.Open("[bin]hello", proto.ModeRead); err != nil {
		t.Fatalf("Open [bin]hello: %v", err)
	}

	// The replicated service is read-only: a name-space mutation is
	// refused.
	if err := s.Remove("[home]notes/todo.txt"); !errors.Is(err, proto.ErrNoPermission) {
		t.Fatalf("Remove = %v, want ErrNoPermission", err)
	}
}

// TestReplicatedFailoverInFlight crashes the leader in the middle of a
// closed-loop workload: every operation must still succeed (retry, then
// GetPid re-resolution), and a mutation is refused before and after.
func TestReplicatedFailoverInFlight(t *testing.T) {
	policy := replicaRetryPolicy()
	r := mustNew(t, Config{Users: []string{"mann"}, Seed: 1, ReadAhead: true, Replicas: 3, Retry: &policy,
		Requests: 60, FlushEvery: 10, Faults: []chaos.Event{
			{At: 60 * time.Millisecond, Action: chaos.Crash, Host: "fs1"},
			{At: 400 * time.Millisecond, Action: chaos.Restart, Host: "fs1"},
		}})
	s := r.WS[0].Session
	s.EnableNameCache(true)
	// The replica safety oracle watches the group after every step.
	var fsSafe replica.Safety
	safe := func(step string) {
		t.Helper()
		if err := fsSafe.Check(r.FS1Group); err != nil {
			t.Fatalf("after %s: %v", step, err)
		}
	}
	safe("boot")

	if err := s.Remove("[home]notes/todo.txt"); !errors.Is(err, proto.ErrNoPermission) {
		t.Fatalf("Remove = %v, want ErrNoPermission", err)
	}
	safe("Remove")

	r.RunPaced(func(s *client.Session, i int) error {
		safe(fmt.Sprintf("the pump before op %d", i))
		if err := OpenClose("[bin]hello")(s, i); err != nil {
			t.Fatalf("op %d: open/close failed across failover: %v", i, err)
		}
		return nil
	})

	safe("the schedule")

	if n := recovered(r, "op_failures"); n != 1 {
		t.Fatalf("client_op_failures_total = %d, want 1: the refused Remove", n)
	}
	if len(r.FS1Group.Failovers()) == 0 {
		t.Fatalf("no failover recorded; events:\n%v", r.FS1Group.Events())
	}
	// The schedule's restart rejoined fs1 and transferred leadership back
	// to slot 0 (lowest live slot = the kernel's GetPid preference).
	if host, _ := r.FS1Group.Leader(); host != "fs1" {
		t.Fatalf("post-rejoin leader = %s, want fs1", host)
	}
	// The restarted fs1 took the image, and still refuses to change it.
	// [bin] and [home] are bound dynamically, so both reach the new front
	// (PROTOCOL.md §11.5).
	for _, name := range []string{"[bin]hello", "[home]welcome.txt"} {
		if err := s.Remove(name); !errors.Is(err, proto.ErrNoPermission) {
			t.Fatalf("Remove %s after failover = %v, want ErrNoPermission", name, err)
		}
		if _, err := s.ReadFile(name); err != nil {
			t.Fatalf("%s after the refused Remove and the failover: %v", name, err)
		}
	}
}

// TestReplicatedNamesFailOver: every name fs1's group serves survives
// its leader's crash. [bin] is bound to (storage service, well-known
// context), [storage] and [home] to (storage service, replicated context
// id): GetPid re-resolves each per use, so each reaches whichever front
// leads (PROTOCOL.md §11.5).
func TestReplicatedNamesFailOver(t *testing.T) {
	for _, name := range []string{"[home]welcome.txt", "[storage]users/mann/welcome.txt", "[bin]hello"} {
		t.Run(name, func(t *testing.T) {
			policy := replicaRetryPolicy()
			r := mustNew(t, Config{Users: []string{"mann"}, Seed: 1, ReadAhead: true, Replicas: 3, Retry: &policy,
				Requests: 30, FlushEvery: 10, Faults: []chaos.Event{
					{At: 60 * time.Millisecond, Action: chaos.Crash, Host: "fs1"},
				}})
			r.WS[0].Session.EnableNameCache(true)
			ok, eng := r.RunPaced(func(s *client.Session, _ int) error {
				_, err := s.ReadFile(name)
				return err
			})
			if ok != 30 {
				t.Fatalf("%d/30 reads succeeded; chaos log:\n%v\nevents:\n%s", ok, eng.Log(),
					strings.Join(r.FS1Group.Events(), "\n"))
			}
			if host, _ := r.FS1Group.Leader(); host == "fs1" {
				t.Fatal("fs1 still leads after its crash")
			}
		})
	}
}

// TestRejoinWhileLeaderless restarts the crashed leader's host before the
// failover election fires. The re-created fs1 holds an empty volume, so
// it must not stand: a synced standby is elected, then syncs fs1 and
// hands leadership back. Every open succeeds and Safety holds throughout.
func TestRejoinWhileLeaderless(t *testing.T) {
	policy := replicaRetryPolicy()
	r := mustNew(t, Config{Users: []string{"mann"}, Seed: 1, ReadAhead: true, Replicas: 3, Retry: &policy,
		Requests: 30, FlushEvery: 10, Faults: []chaos.Event{
			{At: 60 * time.Millisecond, Action: chaos.Crash, Host: "fs1"},
			{At: 62 * time.Millisecond, Action: chaos.Restart, Host: "fs1"},
		}})
	r.WS[0].Session.EnableNameCache(true)
	var safety replica.Safety
	ok, eng := r.RunPaced(func(s *client.Session, i int) error {
		if err := safety.Check(r.FS1Group); err != nil {
			t.Fatalf("the pump before op %d: %v\n%s", i, err, strings.Join(r.FS1Group.Events(), "\n"))
		}
		return OpenClose("[bin]hello")(s, i)
	})
	if err := safety.Check(r.FS1Group); err != nil {
		t.Fatal(err)
	}
	events := strings.Join(r.FS1Group.Events(), "\n")
	if ok != 30 {
		t.Fatalf("%d/30 operations succeeded; chaos log:\n%v\nevents:\n%s", ok, eng.Log(), events)
	}
	if host, _ := r.FS1Group.Leader(); host != "fs1" {
		t.Fatalf("leader at the end = %q, want fs1; events:\n%s", host, events)
	}
}

// TestReplicatedFrontsAreReadOnly: the file-server fronts refuse every
// mutation with NoPermission, on the leader and on a follower, before
// routing on leadership — a follower does not pass one on — while reads
// and MapContext still answer. The user's prefix server is not
// replicated, so it accepts a change to its own table. Safety holds
// after every row.
func TestReplicatedFrontsAreReadOnly(t *testing.T) {
	r := mustNew(t, Config{Users: []string{"mann"}, Seed: 1, ReadAhead: true, Replicas: 3})
	ws := r.WS[0]
	var safety replica.Safety
	type row struct {
		name string
		do   func() error
	}
	for slot, role := range []string{"leader", "follower"} {
		fs, pfx := r.FS1Group.MemberReplica(fsMemberHost(slot)).PID(), ws.Prefix.PID()
		proc, err := ws.Host.NewProcess("probe-" + role)
		if err != nil {
			t.Fatal(err)
		}
		// Unprefixed names go to this slot's file-server front, bracketed
		// ones through the workstation's prefix server.
		s := client.New(proc, pfx, core.ContextPair{Server: fs, Ctx: ws.HomeCtx.Ctx}, ws.User)
		open := func(name string, mode uint32) func() error {
			return func() error { _, err := s.Open(name, proto.ModeRead|mode); return err }
		}
		scratch := "scratch-" + role
		mutations := []row{
			{"remove", func() error { return s.Remove("notes/todo.txt") }},
			{"remove across the link out of the volume", func() error { return s.Remove("/shared/archive/2026/paper.mss") }},
			{"remove through the prefix server", func() error { return s.Remove("[home]notes/todo.txt") }},
			{"rename", func() error { return s.Rename("welcome.txt", "hello.txt") }},
			{"link", func() error { return s.Link("welcome.txt", "alias.txt") }},
			{"add context name", func() error { return s.AddLink("elsewhere", r.FS2.RootPair()) }},
			{"delete context name", func() error { return s.Unlink("/shared/archive") }},
			{"modify", func() error {
				return s.Modify("welcome.txt", proto.Descriptor{Tag: proto.TagFile, Name: "welcome.txt"})
			}},
			{"open for write", open("welcome.txt", proto.ModeWrite)},
			{"open to create", open("new.txt", proto.ModeCreate)},
			{"open to append", open("welcome.txt", proto.ModeAppend)},
			{"open to truncate", open("welcome.txt", proto.ModeTruncate)},
		}
		tableChanges := []row{
			{"define a prefix", func() error { return s.AddName(scratch, r.FS2.RootPair()) }},
			{"delete a prefix", func() error { return s.DeleteName(scratch) }},
			{"write the prefix directory", func() error {
				// Written records redefine prefixes one by one
				// (ListPrefixes is the read-only open of this directory).
				req := &proto.Message{Op: proto.OpCreateInstance}
				proto.SetCSName(req, uint32(core.CtxDefault), "")
				proto.SetOpenMode(req, proto.ModeDirectory|proto.ModeRead|proto.ModeWrite)
				rep, err := proc.Send(req, pfx)
				if err != nil {
					return err
				}
				return proto.ReplyError(rep.Op)
			}},
		}
		reads := []row{
			{"read a file", func() error { _, err := s.ReadFile("notes/todo.txt"); return err }},
			{"map a context", func() error { _, err := s.MapContext("notes"); return err }},
			{"query through the prefix server", func() error { _, err := s.Query("[bin]hello"); return err }},
			{"map a prefix", func() error { _, err := s.MapContext("[home]"); return err }},
			{"list the prefixes", func() error { _, err := s.ListPrefixes(); return err }},
		}
		check := func(c row, err error, refused bool) {
			t.Helper()
			if refused && !errors.Is(err, proto.ErrNoPermission) {
				t.Errorf("%s: %s = %v, want ErrNoPermission", role, c.name, err)
			} else if !refused && err != nil {
				t.Errorf("%s: %s: %v", role, c.name, err)
			}
			if err := safety.Check(r.FS1Group); err != nil {
				t.Fatalf("%s: after %s: %v", role, c.name, err)
			}
		}
		for _, c := range mutations {
			check(c, c.do(), true)
		}
		for _, c := range append(tableChanges, reads...) {
			check(c, c.do(), false)
		}
	}
}

// replicatedScenario runs a fixed crash/restart schedule against a
// replicated rig and returns everything determinism can be judged by.
func replicatedScenario(t *testing.T) (events []string, leader string, failed uint64) {
	t.Helper()
	policy := replicaRetryPolicy()
	r := mustNew(t, Config{Users: []string{"mann"}, Seed: 1, ReadAhead: true, Replicas: 3, Retry: &policy,
		Requests: 80, FlushEvery: 10, Faults: []chaos.Event{
			{At: 50 * time.Millisecond, Action: chaos.Crash, Host: "fs1"},
			{At: 300 * time.Millisecond, Action: chaos.Restart, Host: "fs1"},
			{At: 500 * time.Millisecond, Action: chaos.Crash, Host: "fs1b"},
			{At: 700 * time.Millisecond, Action: chaos.Restart, Host: "fs1b"},
		}})
	s := r.WS[0].Session
	s.EnableNameCache(true)
	r.RunPaced(OpenClose("[bin]hello"))
	leader, _ = r.FS1Group.Leader()
	return r.FS1Group.Events(), leader, recovered(r, "op_failures")
}

// TestReplicaDeterministic pins the replication machinery to the
// virtual clock: the same seed and schedule must produce byte-identical
// group event logs and the same leader, run after run.
func TestReplicaDeterministic(t *testing.T) {
	ev1, lead1, failed1 := replicatedScenario(t)
	ev2, lead2, failed2 := replicatedScenario(t)
	if !reflect.DeepEqual(ev1, ev2) {
		t.Fatalf("group event logs differ between runs:\n%v\n---\n%v", ev1, ev2)
	}
	if lead1 != lead2 {
		t.Fatalf("leaders differ: %s vs %s", lead1, lead2)
	}
	if failed1 != failed2 {
		t.Fatalf("failed-op counts differ: %d vs %d", failed1, failed2)
	}
	if failed1 != 0 {
		t.Fatalf("scenario failed %d ops, want 0", failed1)
	}
	if len(ev1) == 0 {
		t.Fatalf("scenario produced no group events")
	}
}

// TestBootedRigOwnsNoGoroutine: every server a rig boots — teams of any
// size, replica members — is a served process, so booting one leaves no
// goroutine behind, and its servers die inside the crashes that kill
// them without starting one.
func TestBootedRigOwnsNoGoroutine(t *testing.T) {
	teams := DefaultConfig()
	teams.FileServerTeam = 4
	replicated := DefaultConfig()
	replicated.Replicas = 3
	for _, c := range []struct {
		name string
		cfg  Config
	}{{"default", DefaultConfig()}, {"teams of 4", teams}, {"Replicas: 3", replicated}} {
		// Earlier tests' goroutines may still be winding down, so fewer
		// is fine; the parent's rigs added 13, 49 and 22.
		before := runtime.NumGoroutine()
		r := mustNew(t, c.cfg)
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("%s: %d goroutines after boot, %d before", c.name, after, before)
		}
		for _, h := range []string{"fs1", "fs2", "services"} {
			r.Kernel.HostByName(h).Crash()
		}
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("%s: %d goroutines after the crashes, %d before", c.name, after, before)
		}
	}
}
