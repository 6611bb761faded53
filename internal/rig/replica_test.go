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
	"repro/internal/kernel"
	"repro/internal/proto"
	"repro/internal/vtime"
)

// replicaRetryPolicy is the fast recovery policy replicated runs use
// (EXPERIMENTS.md A15): a short first backoff, so the retry that
// re-resolves a name by GetPid follows the failed send closely.
func replicaRetryPolicy() client.RetryPolicy {
	return client.RetryPolicy{MaxAttempts: 6, BaseDelay: 10 * time.Millisecond, MaxDelay: 80 * time.Millisecond}
}

// storagePID is the storage server GetPid answers the first workstation
// with: the lowest live host that registered the service.
func storagePID(t *testing.T, r *Rig) kernel.PID {
	t.Helper()
	pid, err := r.WS[0].Session.Proc().GetPid(kernel.ServiceStorage, kernel.ScopeBoth)
	if err != nil {
		t.Fatal(err)
	}
	return pid
}

// detection is what a send to a crashed host costs before it fails: the
// kernel's three retransmission timeouts, at the rigs' default model.
var detection = 3 * vtime.DefaultModel().RetransmitTimeout

func TestReplicatedBoot(t *testing.T) {
	r := mustNew(t, Config{Users: []string{"mann"}, Seed: 1, ReadAhead: true, Replicas: 3})
	if len(r.FS1Members) != 3 {
		t.Fatalf("%d members, want 3", len(r.FS1Members))
	}
	for i, fs := range r.FS1Members {
		if host := fs.Proc().Host().Name(); host != fsMemberHost(i) {
			t.Fatalf("member %d on %s, want %s", i, host, fsMemberHost(i))
		}
	}
	if r.FS1 != r.FS1Members[0] || r.BinCtx.Server != r.FS1.PID() {
		t.Fatalf("FS1 and [bin]'s static pair must name the fs1 member")
	}
	if pid := storagePID(t, r); pid != r.FS1.PID() {
		t.Fatalf("GetPid answers %v, want fs1's member %v", pid, r.FS1.PID())
	}
	if err := r.CheckFS1(); err != nil {
		t.Fatal(err)
	}

	s := r.WS[0].Session
	data, err := s.ReadFile("[home]welcome.txt")
	if err != nil {
		t.Fatalf("ReadFile via a replicated member: %v", err)
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

// TestReplicatedFailoverInFlight crashes fs1 in the middle of a
// closed-loop workload: every operation must still succeed (the send to
// the dead member fails, the retry re-resolves by GetPid), the members
// keep the seed image throughout, and a mutation is refused before and
// after.
func TestReplicatedFailoverInFlight(t *testing.T) {
	policy := replicaRetryPolicy()
	r := mustNew(t, Config{Users: []string{"mann"}, Seed: 1, ReadAhead: true, Replicas: 3, Retry: &policy,
		Requests: 60, FlushEvery: 10, Faults: []chaos.Event{
			{At: 60 * time.Millisecond, Action: chaos.Crash, Host: "fs1"},
			{At: 400 * time.Millisecond, Action: chaos.Restart, Host: "fs1"},
		}})
	s := r.WS[0].Session
	s.EnableNameCache(true)
	booted := r.FS1.PID()
	// The image oracle watches the members after every step.
	safe := func(step string) {
		t.Helper()
		if err := r.CheckFS1(); err != nil {
			t.Fatalf("after %s: %v", step, err)
		}
	}
	safe("boot")

	if err := s.Remove("[home]notes/todo.txt"); !errors.Is(err, proto.ErrNoPermission) {
		t.Fatalf("Remove = %v, want ErrNoPermission", err)
	}
	safe("Remove")

	var slowest time.Duration
	r.Clients[0].Op = func(s *client.Session, i int) error {
		safe(fmt.Sprintf("the pump before op %d", i))
		start := s.Proc().Now()
		if err := OpenClose("[bin]hello")(s, i); err != nil {
			t.Fatalf("op %d: open/close failed across failover: %v", i, err)
		}
		slowest = max(slowest, s.Proc().Now()-start)
		return nil
	}
	if _, _, err := r.Run(); err != nil {
		t.Fatal(err)
	}

	safe("the schedule")

	if n := recovered(r, "op_failures"); n != 1 {
		t.Fatalf("client_op_failures_total = %d, want 1: the refused Remove", n)
	}
	// The op that met the crash sent to the dead member and waited out
	// the kernel's detection.
	if slowest < detection {
		t.Fatalf("slowest op %v: no op met the crash (detection %v)", slowest, detection)
	}
	// The restart re-created fs1's member under a new pid, and GetPid
	// prefers it again: it is the lowest live member.
	if r.FS1.PID() == booted || r.FS1Members[0] != r.FS1 {
		t.Fatalf("fs1's member was not re-created (pid %v)", r.FS1.PID())
	}
	if pid := storagePID(t, r); pid != r.FS1.PID() {
		t.Fatalf("GetPid after the restart answers %v, want the new fs1 member %v", pid, r.FS1.PID())
	}
	// The restarted fs1 holds the seed image and still refuses to change
	// it. [bin] and [home] are bound dynamically, so both reach it.
	for _, name := range []string{"[bin]hello", "[home]welcome.txt"} {
		if err := s.Remove(name); !errors.Is(err, proto.ErrNoPermission) {
			t.Fatalf("Remove %s after failover = %v, want ErrNoPermission", name, err)
		}
		if _, err := s.ReadFile(name); err != nil {
			t.Fatalf("%s after the refused Remove and the failover: %v", name, err)
		}
	}
	safe("the refused Removes")
}

// TestReplicatedNamesFailOver: every name fs1's members serve survives
// fs1's crash. [bin] is bound to (storage service, well-known context),
// [storage] and [home] to (storage service, the members' context id):
// GetPid re-resolves each per use, so each reaches the lowest live
// member (PROTOCOL.md §11).
func TestReplicatedNamesFailOver(t *testing.T) {
	for _, name := range []string{"[home]welcome.txt", "[storage]users/mann/welcome.txt", "[bin]hello"} {
		t.Run(name, func(t *testing.T) {
			policy := replicaRetryPolicy()
			r := mustNew(t, Config{Users: []string{"mann"}, Seed: 1, ReadAhead: true, Replicas: 3, Retry: &policy,
				Requests: 30, FlushEvery: 10, Faults: []chaos.Event{
					{At: 60 * time.Millisecond, Action: chaos.Crash, Host: "fs1"},
				}})
			r.WS[0].Session.EnableNameCache(true)
			r.Clients[0].Op = func(s *client.Session, _ int) error {
				_, err := s.ReadFile(name)
				return err
			}
			if _, ev, err := r.Run(); err != nil || ev.Completed != 30 {
				t.Fatalf("%d/30 reads succeeded (%v); chaos log:\n%v", ev.Completed, err, ev.ChaosLog)
			}
			if pid := storagePID(t, r); pid != r.FS1Members[1].PID() {
				t.Fatalf("GetPid after fs1's crash answers %v, want fs1b's member %v", pid, r.FS1Members[1].PID())
			}
		})
	}
}

// TestElectionTieBreak: nothing elects which of several identical members
// serves. GetPid picks the lowest live member host, through every crash
// and restart: fs1, then fs1b once fs1 is down, fs1c once both are, and
// the re-created fs1 once it is back.
func TestElectionTieBreak(t *testing.T) {
	r := mustNew(t, Config{Users: []string{"mann"}, Seed: 1, ReadAhead: true, Replicas: 3})
	for _, step := range []struct {
		host   string
		action chaos.Action
		want   int // the member GetPid must answer with
	}{
		{"", 0, 0},
		{"fs1", chaos.Crash, 1},
		{"fs1b", chaos.Crash, 2},
		{"fs1", chaos.Restart, 0},
		{"fs1b", chaos.Restart, 0},
		{"fs1", chaos.Crash, 1},
	} {
		if step.host != "" {
			faultOn(t, r, step.host, step.action)
		}
		if pid, want := storagePID(t, r), r.FS1Members[step.want].PID(); pid != want {
			t.Fatalf("after %v %s: GetPid answers %v, want %s's member %v",
				step.action, step.host, pid, fsMemberHost(step.want), want)
		}
	}
}

// pacedRun is what a replicated run's determinism is judged by: every
// operation's latency, the latency of the first operation issued after
// each crash (its failover), and the failed operations.
type pacedRun struct {
	latencies []time.Duration
	failovers []time.Duration
	failed    uint64
}

// replicatedScenario runs a fixed crash/restart schedule against a
// replicated rig, timing each operation, held to Run's oracles.
func replicatedScenario(t *testing.T) pacedRun {
	t.Helper()
	policy := replicaRetryPolicy()
	faults := []chaos.Event{
		{At: 50 * time.Millisecond, Action: chaos.Crash, Host: "fs1"},
		{At: 300 * time.Millisecond, Action: chaos.Restart, Host: "fs1"},
		{At: 500 * time.Millisecond, Action: chaos.Crash, Host: "fs1b"},
		{At: 700 * time.Millisecond, Action: chaos.Restart, Host: "fs1b"},
	}
	var run pacedRun
	crashes := []vtime.Time{faults[0].At, faults[2].At}
	_, ev := schedules{setup: func(r *Topology) {
		r.WS[0].Session.EnableNameCache(true)
		r.Clients[0].Op = func(s *client.Session, i int) error {
			start := s.Proc().Now()
			err := OpenClose("[bin]hello")(s, i)
			d := s.Proc().Now() - start
			run.latencies = append(run.latencies, d)
			if len(run.failovers) < len(crashes) && start >= crashes[len(run.failovers)] {
				run.failovers = append(run.failovers, d)
			}
			return err
		}
	}}.once(t, 1, Scenario{Kind: Paper, Users: []string{"mann"}, Seed: 1, ReadAhead: true, Replicas: 3, Retry: &policy,
		Requests: 80, FlushEvery: 10, Faults: faults})
	run.failed = recovered(ev.Topology, "op_failures")
	return run
}

// TestElectionTimeoutDeterministic: a failover is no seeded timeout but
// the kernel's dead-host detection plus a GetPid re-resolution, so two
// runs of the same schedule read the same failover latencies. fs1's
// crash costs the op that meets it one detection and well under two;
// fs1b's costs nothing, because a flush had re-resolved [bin] to the
// restarted fs1, the lowest live member, before fs1b went down.
func TestElectionTimeoutDeterministic(t *testing.T) {
	first, second := replicatedScenario(t), replicatedScenario(t)
	if len(first.failovers) != 2 {
		t.Fatalf("failovers %v, want one per crash", first.failovers)
	}
	if !reflect.DeepEqual(first.failovers, second.failovers) {
		t.Fatalf("failover reads differ between runs: %v vs %v", first.failovers, second.failovers)
	}
	if d := first.failovers[0]; d < detection || d >= 2*detection {
		t.Fatalf("fs1's failover took %v, want one detection (%v) plus a re-resolution", d, detection)
	}
	if d := first.failovers[1]; d >= detection {
		t.Fatalf("fs1b's crash cost the client %v: it should have left fs1b already", d)
	}
}

// TestReplicaDeterministic pins the replicated rig to the virtual clock:
// the same seed and schedule must give the same latency for every
// operation, run after run, and fail none.
func TestReplicaDeterministic(t *testing.T) {
	first, second := replicatedScenario(t), replicatedScenario(t)
	if !reflect.DeepEqual(first.latencies, second.latencies) {
		t.Fatalf("per-op latencies differ between runs:\n%v\n---\n%v", first.latencies, second.latencies)
	}
	if first.failed != 0 || second.failed != 0 {
		t.Fatalf("failed ops %d and %d, want 0", first.failed, second.failed)
	}
	if len(first.latencies) != 80 {
		t.Fatalf("%d ops timed, want 80", len(first.latencies))
	}
}

// TestCrashRejoinSnapshotSync: a member re-created by a restart comes
// back cold under a new pid and re-runs the boot's seed, so it holds an
// image equal to its peers' — no snapshot crosses the wire — and serves
// reads and refuses mutations like them.
func TestCrashRejoinSnapshotSync(t *testing.T) {
	r := mustNew(t, Config{Users: []string{"mann"}, Seed: 1, ReadAhead: true, Replicas: 3})
	old := r.FS1Members[1]
	faultOn(t, r, "fs1b", chaos.Crash)
	if err := old.Proc().Err(); !errors.Is(err, kernel.ErrHostDown) {
		t.Fatalf("crashed member Err() = %v, want ErrHostDown", err)
	}
	if err := r.CheckFS1(); err != nil {
		t.Fatalf("a dead member is not compared: %v", err)
	}
	faultOn(t, r, "fs1b", chaos.Restart)
	reborn := r.FS1Members[1]
	if reborn == old || reborn.PID() == old.PID() || reborn.Proc().Err() != nil {
		t.Fatalf("fs1b's member was not re-created under a new pid (%v, was %v)", reborn.PID(), old.PID())
	}
	for _, peer := range []int{0, 2} {
		if !bytes.Equal(reborn.Image(), r.FS1Members[peer].Image()) {
			t.Fatalf("re-created member's image differs from %s's", fsMemberHost(peer))
		}
	}
	if err := r.CheckFS1(); err != nil {
		t.Fatal(err)
	}
	s := client.New(r.WS[0].Session.Proc(), r.WS[0].Prefix.PID(), reborn.RootPair(), "mann")
	if _, err := s.ReadFile("users/mann/welcome.txt"); err != nil {
		t.Fatalf("read from the re-created member: %v", err)
	}
	if err := s.Remove("users/mann/welcome.txt"); !errors.Is(err, proto.ErrNoPermission) {
		t.Fatalf("Remove on the re-created member = %v, want ErrNoPermission", err)
	}
}

// TestCheckFS1ReadsTheKernel: the fs1 oracle judges every file server
// the kernel reports live on a member host, not only the listed members.
// A restart hook run on a host that is up re-creates its member and
// orphans the old one; a storage server started beside a member, or in a
// dead member's place, is not the member either. Each is named by host
// though every listed image is the seed's, and the unreplicated fs1 is
// held to the same rule.
func TestCheckFS1ReadsTheKernel(t *testing.T) {
	restart := func(r *Rig, host string) error { return r.restartFS1(host) }
	beside := func(r *Rig, host string) error {
		_, err := startStorage(r.Kernel.HostByName(host))
		return err
	}
	for _, tc := range []struct {
		name     string
		replicas int
		host     string
		extra    func(*Rig, string) error
	}{
		{"restart of a live member", 3, "fs1b", restart},
		{"a storage server beside a member", 3, "fs1c", beside},
		{"restart of a live unreplicated fs1", 0, "fs1", restart},
		{"a storage server in a dead member's place", 3, "fs1b", func(r *Rig, host string) error {
			r.FS1Members[1].Proc().Destroy()
			return beside(r, host)
		}},
	} {
		r := mustNew(t, Config{Users: []string{"mann"}, Seed: 1, ReadAhead: true, Replicas: tc.replicas})
		if err := r.CheckFS1(); err != nil {
			t.Fatalf("%s: freshly booted: %v", tc.name, err)
		}
		if err := tc.extra(r, tc.host); err != nil {
			t.Fatal(err)
		}
		want := "host " + tc.host + " runs a file server that is not its member"
		if err := r.CheckFS1(); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: CheckFS1 = %v, want %q", tc.name, err, want)
		}
	}
}

// TestReplicatedMembersAreReadOnly: every member refuses every mutation
// of its volume with NoPermission — by name, through the prefix server
// or by identifier — while reads and MapContext still answer. A name
// that leads out of the volume is the server's that holds it: a remove
// across the link to fs2 reaches fs2, exactly as on an unreplicated fs1.
// The user's prefix server is not replicated, so it accepts a change to
// its own table. Every member keeps the seed image after every row.
func TestReplicatedMembersAreReadOnly(t *testing.T) {
	r := mustNew(t, Config{Users: []string{"mann"}, Seed: 1, ReadAhead: true, Replicas: 3})
	ws := r.WS[0]
	type row struct {
		name string
		do   func() error
	}
	todo, err := ws.Session.Query("[home]notes/todo.txt")
	if err != nil {
		t.Fatal(err)
	}
	for slot, member := range r.FS1Members[:2] {
		host, pfx := fsMemberHost(slot), ws.Prefix.PID()
		proc, err := ws.Host.NewProcess("probe-" + host)
		if err != nil {
			t.Fatal(err)
		}
		// Unprefixed names go to this member, bracketed ones through the
		// workstation's prefix server.
		s := client.New(proc, pfx, core.ContextPair{Server: member.PID(), Ctx: ws.HomeCtx.Ctx}, ws.User)
		open := func(name string, mode uint32) func() error {
			return func() error { _, err := s.Open(name, proto.ModeRead|mode); return err }
		}
		scratch := "scratch-" + host
		mutations := []row{
			{"remove", func() error { return s.Remove("notes/todo.txt") }},
			{"remove through the prefix server", func() error { return s.Remove("[home]notes/todo.txt") }},
			{"remove by UID", func() error {
				req := &proto.Message{Op: proto.OpRemoveByUID}
				req.F[3] = todo.ObjectID
				_, err := core.Transact(proc, member.PID(), req)
				return err
			}},
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
				t.Errorf("%s: %s = %v, want ErrNoPermission", host, c.name, err)
			} else if !refused && err != nil {
				t.Errorf("%s: %s: %v", host, c.name, err)
			}
			if err := r.CheckFS1(); err != nil {
				t.Fatalf("%s: after %s: %v", host, c.name, err)
			}
		}
		for _, c := range mutations {
			check(c, c.do(), true)
		}
		for _, c := range append(tableChanges, reads...) {
			check(c, c.do(), false)
		}
	}

	// Across the link out of the volume, fs2 decides: it is writable.
	s := client.New(ws.Session.Proc(), ws.Prefix.PID(), r.FS1.RootPair(), ws.User)
	if err := s.Remove("shared/archive/2026/paper.mss"); err != nil {
		t.Fatalf("remove across the link out of the volume: %v", err)
	}
	if _, err := s.Query("shared/archive/2026/paper.mss"); !errors.Is(err, proto.ErrNotFound) {
		t.Fatalf("fs2's file after the remove: %v, want ErrNotFound", err)
	}
	if err := r.CheckFS1(); err != nil {
		t.Fatalf("after the remove across the link: %v", err)
	}
}

// TestBootedRigOwnsNoGoroutine: every server a rig boots — teams of any
// size, replicated members — is a served process, so booting one leaves
// no goroutine behind, and its servers die inside the crashes that kill
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
