package rig

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/client"
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
	host, pid := r.FSR.Group.Leader()
	if host != "fs1" || pid != r.FSR.Members[0].Rep.PID() {
		t.Fatalf("bootstrap leader = %s/%v, want fs1 slot 0", host, pid)
	}
	if got := len(r.FSR.Members); got != 3 {
		t.Fatalf("fs members = %d, want 3", got)
	}
	if r.WS[0].PrefixRep == nil || len(r.WS[0].PrefixRep.Members) != 3 {
		t.Fatalf("prefix group missing or wrong size")
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

	// A name-space mutation must commit on a majority before the reply.
	if err := s.Remove("[home]notes/todo.txt"); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	for i, st := range r.FSR.Group.Statuses() {
		if st.Commit == 0 {
			t.Errorf("member %d commit = 0 after replicated Remove", i)
		}
	}
}

// TestReplicatedFailoverInFlight crashes the leader in the middle of a
// closed-loop workload: every operation must still succeed (retry +
// leader-hint rebinding), and the committed mutations must survive on
// the failed-over leader.
func TestReplicatedFailoverInFlight(t *testing.T) {
	policy := replicaRetryPolicy()
	r := mustNew(t, Config{Users: []string{"mann"}, Seed: 1, ReadAhead: true, Replicas: 3, Retry: &policy,
		Requests: 60, FlushEvery: 10, Faults: []chaos.Event{
			{At: 60 * time.Millisecond, Action: chaos.Crash, Host: "fs1"},
			{At: 400 * time.Millisecond, Action: chaos.Restart, Host: "fs1"},
		}})
	s := r.WS[0].Session
	s.EnableNameCache(true)
	// The replica safety oracle watches both groups after every step.
	var fsSafe, prefixSafe replica.Safety
	safe := func(step string) {
		t.Helper()
		if err := fsSafe.Check(r.FSR.Group); err != nil {
			t.Fatalf("after %s: %v", step, err)
		}
		if err := prefixSafe.Check(r.WS[0].PrefixRep.Group); err != nil {
			t.Fatalf("after %s: %v", step, err)
		}
	}
	safe("boot")

	// Pre-crash replicated mutation: the failed-over leader must have it.
	if err := s.Remove("[home]notes/todo.txt"); err != nil {
		t.Fatalf("Remove: %v", err)
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

	sum := r.ResilienceSummary()
	if sum.Client.OpsFailed != 0 {
		t.Fatalf("OpsFailed = %d, want 0", sum.Client.OpsFailed)
	}
	if len(r.FSR.Group.Failovers()) == 0 {
		t.Fatalf("no failover recorded; events:\n%v", r.FSR.Group.Events())
	}
	// The schedule's restart rejoined fs1 and transferred leadership back
	// to slot 0 (lowest live slot = the kernel's GetPid preference).
	if host, _ := r.FSR.Group.Leader(); host != "fs1" {
		t.Fatalf("post-rejoin leader = %s, want fs1", host)
	}
	// The pre-crash Remove survived the crash via the group log.
	if _, err := s.Open("[home]notes/todo.txt", proto.ModeRead); err == nil {
		t.Fatalf("todo.txt still opens after replicated Remove + failover")
	}
}

// replicatedScenario runs a fixed crash/restart schedule against a
// replicated rig and returns everything determinism can be judged by.
func replicatedScenario(t *testing.T) (events []string, statuses []replica.Status, failed int) {
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
	return r.FSR.Group.Events(), r.FSR.Group.Statuses(), r.ResilienceSummary().Client.OpsFailed
}

// TestReplicaDeterministic pins the replication machinery to the
// virtual clock: the same seed and schedule must produce byte-identical
// group event logs and identical member statuses, run after run.
func TestReplicaDeterministic(t *testing.T) {
	ev1, st1, failed1 := replicatedScenario(t)
	ev2, st2, failed2 := replicatedScenario(t)
	if !reflect.DeepEqual(ev1, ev2) {
		t.Fatalf("group event logs differ between runs:\n%v\n---\n%v", ev1, ev2)
	}
	if !reflect.DeepEqual(st1, st2) {
		t.Fatalf("member statuses differ: %+v vs %+v", st1, st2)
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

// TestReplicatedPrefixMemberRejoins restarts a prefix-group member
// through NewChaos while RunPaced drives the other user's workload.
// ws-cheriton carries slot 0 of cheriton's prefix group: its crash fails
// the group over to a standby, and its restart re-creates the member,
// rejoins it with the leader's table and hands leadership back. (The
// standbys' hosts, services and fs2, also run the groups' monitors, which
// NewGroup requires the schedule never to take down.)
func TestReplicatedPrefixMemberRejoins(t *testing.T) {
	policy := replicaRetryPolicy()
	r := mustNew(t, Config{Users: []string{"mann", "cheriton"}, Seed: 1, ReadAhead: true, Replicas: 3, Retry: &policy,
		Requests: 40, FlushEvery: 10, Faults: []chaos.Event{
			{At: 60 * time.Millisecond, Action: chaos.Crash, Host: "ws-cheriton"},
			{At: 250 * time.Millisecond, Action: chaos.Restart, Host: "ws-cheriton"},
		}})
	ws := r.WS[1]
	before := ws.PrefixRep.Members[0].Rep
	groups := []*replica.Group{r.FSR.Group, r.WS[0].PrefixRep.Group, ws.PrefixRep.Group}
	safety := make([]replica.Safety, len(groups))
	safe := func(step string) {
		t.Helper()
		for i, g := range groups {
			if err := safety[i].Check(g); err != nil {
				t.Fatalf("after %s: %v\n%v", step, err, g.Events())
			}
		}
	}
	ok, eng := r.RunPaced(func(s *client.Session, i int) error {
		safe(fmt.Sprintf("the pump before op %d", i))
		return OpenClose("[bin]hello")(s, i)
	})
	safe("the schedule")
	if ok != 40 {
		t.Fatalf("%d/40 operations succeeded; chaos log:\n%v", ok, eng.Log())
	}
	m := ws.PrefixRep.Members[0]
	if m.Rep == before || ws.PrefixRep.Group.MemberReplica("ws-cheriton") != m.Rep || ws.Prefix != m.Srv {
		t.Fatal("ws-cheriton's prefix member was not re-created into slot 0")
	}
	events := strings.Join(ws.PrefixRep.Group.Events(), "\n")
	for _, want := range []string{"rejoin       host=ws-cheriton", "sync         host=ws-cheriton"} {
		if !strings.Contains(events, want) {
			t.Fatalf("group events lack %q:\n%s", want, events)
		}
	}
	if host, _ := ws.PrefixRep.Group.Leader(); host != "ws-cheriton" {
		t.Fatalf("leader after rejoin = %s, want slot 0 back; events:\n%s", host, events)
	}
}
