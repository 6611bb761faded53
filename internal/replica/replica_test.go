package replica

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/kernel"
	"repro/internal/netsim"
	"repro/internal/proto"
	"repro/internal/vtime"
)

// nullSvc is a minimal replicated state: an opaque image, snapshotted
// verbatim.
type nullSvc struct {
	mu    sync.Mutex
	state []byte
}

func (s *nullSvc) Serve(p *kernel.Process, r *Replica, msg *proto.Message, from kernel.PID) {
	_ = p.Reply(proto.NewReply(proto.ReplyOK), from)
}

func (s *nullSvc) Snapshot() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]byte(nil), s.state...)
}

func (s *nullSvc) Restore(p *kernel.Process, data []byte) error {
	s.mu.Lock()
	s.state = append([]byte(nil), data...)
	s.mu.Unlock()
	return nil
}

// seedImage is every test member's boot image: larger than two snapshot
// chunks, so a sync installs it in three.
func seedImage() []byte {
	img := make([]byte, 2*snapChunk+100)
	for i := range img {
		img[i] = byte(i * 31)
	}
	return img
}

// testGroup boots an n-member group with nullSvc state machines.
// Member i lives on host "m<i>"; the monitor lives on "mon".
func testGroup(t *testing.T, seed int64, n int) (*kernel.Kernel, *Group, []*kernel.Host, []*nullSvc) {
	t.Helper()
	k := kernel.New(netsim.New(vtime.DefaultModel(), seed))
	mon := k.NewHost("mon")
	g, err := NewGroup(mon, Config{Name: "t", Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	hosts := make([]*kernel.Host, n)
	svcs := make([]*nullSvc, n)
	for i := 0; i < n; i++ {
		hosts[i] = k.NewHost(fmt.Sprintf("m%d", i))
		svc := &nullSvc{state: seedImage()}
		rep, err := Start(hosts[i], fmt.Sprintf("rep%d", i), svc)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Add(hosts[i].Name(), rep); err != nil {
			t.Fatal(err)
		}
		svcs[i] = svc
	}
	if err := g.Bootstrap(0); err != nil {
		t.Fatal(err)
	}
	return k, g, hosts, svcs
}

// safeAfter returns the step hook of a test that asserts the safety
// oracle after every step: it fails the test at the first violation.
func safeAfter(t *testing.T, g *Group) func(step string) {
	var s Safety
	return func(step string) {
		t.Helper()
		if err := s.Check(g); err != nil {
			t.Fatalf("after %s: %v", step, err)
		}
	}
}

// TestSafetyCatchesViolations: the oracle is not vacuous — a second
// leader of a term in the event log or in a member's state, and diverged
// state of synced members are each reported; a member the group does not
// count as synced is not compared.
func TestSafetyCatchesViolations(t *testing.T) {
	for _, c := range []struct {
		name    string
		corrupt func(g *Group, r *Replica, svc *nullSvc)
		want    string
	}{
		{"logged leader", func(g *Group, _ *Replica, _ *nullSvc) { g.logEvent(0, "leader", "host=m2 term=1") }, "led by"},
		{"second leader", func(_ *Group, r *Replica, _ *nullSvc) { r.role = RoleLeader }, "led by"},
		{"diverged state", func(_ *Group, _ *Replica, svc *nullSvc) { svc.state = svc.state[1:] }, "different state"},
		{"unsynced state", func(g *Group, _ *Replica, svc *nullSvc) {
			svc.state = nil
			g.members[1].synced = false
		}, ""},
	} {
		_, g, _, svcs := testGroup(t, 1, 3)
		var s Safety
		if err := s.Check(g); err != nil {
			t.Fatalf("%s: healthy group: %v", c.name, err)
		}
		r := g.MemberReplica("m1")
		g.mu.Lock()
		r.mu.Lock()
		c.corrupt(g, r, svcs[1])
		r.mu.Unlock()
		g.mu.Unlock()
		err := s.Check(g)
		if c.want == "" && err != nil {
			t.Fatalf("%s: Check = %v, want nil", c.name, err)
		}
		if c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)) {
			t.Fatalf("%s: Check = %v, want an error containing %q", c.name, err, c.want)
		}
	}
}

// TestElectionTieBreak pins the deterministic tie-break: when two live
// members draw the same quantized election timeout, the lowest slot
// stands first and wins. The seed is searched so the tie actually
// occurs at the term the failover election runs at.
func TestElectionTieBreak(t *testing.T) {
	// After Bootstrap the group is at term 1; the first failover election
	// plans with term+1 = 2.
	seed := int64(-1)
	for s := int64(0); s < 10000; s++ {
		if electionTimeout(s, 2, 1) == electionTimeout(s, 2, 2) {
			seed = s
			break
		}
	}
	if seed < 0 {
		t.Fatal("no seed with a slot-1/slot-2 timeout tie in 10000 draws")
	}
	tied := electionTimeout(seed, 2, 1)

	_, g, hosts, _ := testGroup(t, seed, 3)
	downAt := vtime.Time(10 * time.Millisecond)
	hosts[0].Crash()
	g.NoteDown("m0", downAt)
	if host, _ := g.Leader(); host != "" {
		t.Fatalf("leader %s survived NoteDown", host)
	}
	// One pump just before the tied deadline must not elect; one at the
	// deadline elects the lowest tied slot.
	g.Pump(downAt + tied - time.Millisecond)
	if host, _ := g.Leader(); host != "" {
		t.Fatalf("election fired before the seeded timeout (leader %s)", host)
	}
	g.Pump(downAt + tied)
	host, _ := g.Leader()
	if host != "m1" {
		t.Fatalf("tie broke to %s, want m1 (lowest tied slot)", host)
	}
	// The recorded failover latency is the timeout plus the election
	// round's own virtual message time.
	fo := g.Failovers()
	if len(fo) != 1 || fo[0] < tied {
		t.Fatalf("failovers = %v, want one latency >= %v", fo, tied)
	}
}

// TestElectionTimeoutDeterministic: same seed, term and slot always
// draw the same timeout, and the draw stays within the quantized range.
func TestElectionTimeoutDeterministic(t *testing.T) {
	for term := uint32(1); term < 8; term++ {
		for slot := 0; slot < 5; slot++ {
			d1 := electionTimeout(42, term, slot)
			d2 := electionTimeout(42, term, slot)
			if d1 != d2 {
				t.Fatalf("draw(%d,%d) unstable: %v vs %v", term, slot, d1, d2)
			}
			min := timeoutMin
			max := timeoutMin + (timeoutSteps-1)*timeoutStep
			if d1 < min || d1 > max {
				t.Fatalf("draw(%d,%d) = %v outside [%v, %v]", term, slot, d1, min, max)
			}
		}
	}
}

// TestLeaderElectedWithinBound is the liveness bound (ROADMAP 3(a)):
// whatever the seed, a crashed leader's successor is elected within the
// largest seeded election timeout plus one election round — the group's
// own bootstrap election. Equal timeouts resolve by slot, so no tie is
// left standing.
func TestLeaderElectedWithinBound(t *testing.T) {
	maxTimeout := timeoutMin + (timeoutSteps-1)*timeoutStep
	for seed := int64(1); seed <= 50; seed++ {
		_, g, hosts, _ := testGroup(t, seed, 3)
		round := g.mon.Now() // Bootstrap ran the first election from t=0
		safe := safeAfter(t, g)
		downAt := round + vtime.Time(time.Millisecond)
		hosts[0].Crash()
		bound := downAt + maxTimeout + round
		var elected vtime.Time
		for now := downAt; now <= bound && elected == 0; now += vtime.Time(time.Millisecond) {
			g.Pump(now)
			safe(fmt.Sprintf("seed %d: the pump at %v", seed, now))
			if host, _ := g.Leader(); host != "" {
				elected = g.mon.Now()
			}
		}
		if host, _ := g.Leader(); host == "" || host == "m0" || elected > bound {
			t.Fatalf("seed %d: leader %q elected at %v, bound %v; events:\n%s",
				seed, host, elected, bound, strings.Join(g.Events(), "\n"))
		}
		if fo := g.Failovers(); len(fo) != 1 || fo[0] > maxTimeout+round {
			t.Fatalf("seed %d: failovers %v, want one within %v", seed, fo, maxTimeout+round)
		}
	}
}

// TestCrashRejoinSnapshotSync drives the full recovery cycle in one
// package-level scenario: leader host crash (detected by Pump, no
// explicit NoteDown), failover election, a follower's redirect, then a
// rejoin of a fresh empty member — the snapshot install must rebuild the
// leader's image, and the transfer election must hand leadership back to
// slot 0.
func TestCrashRejoinSnapshotSync(t *testing.T) {
	k, g, hosts, svcs := testGroup(t, 3, 3)
	safe := safeAfter(t, g)
	safe("boot")
	if g.Name() != "t" {
		t.Fatalf("group name %q", g.Name())
	}

	// Crash the leader host without a NoteDown: the next Pump must
	// detect the dead leader itself, then elect once a timeout expires.
	// The crashed member's death is recorded when Crash returns.
	hosts[0].Crash()
	if err := g.MemberReplica("m0").Proc().Err(); !errors.Is(err, kernel.ErrHostDown) {
		t.Fatalf("crashed member Err() = %v, want ErrHostDown", err)
	}
	safe("crash")
	start := vtime.Time(10 * time.Millisecond)
	for d := start; d < start+50*time.Millisecond; d += time.Millisecond {
		g.Pump(d)
		safe(fmt.Sprintf("pump at %v", d))
		if host, _ := g.Leader(); host != "" {
			break
		}
	}
	newLeader, _ := g.Leader()
	if newLeader == "" || newLeader == "m0" {
		t.Fatalf("failover leader = %q; events:\n%v", newLeader, g.Events())
	}

	// A follower asked to do the leader's work answers a bare NotLeader.
	lead := g.MemberReplica(newLeader)
	var follower *Replica
	for _, h := range []string{"m1", "m2"} {
		if h != newLeader {
			follower = g.MemberReplica(h)
		}
	}
	if follower.Leading() || !lead.Leading() {
		t.Fatalf("Leading() flags wrong (leader %s)", newLeader)
	}
	probe, err := k.HostByName("mon").NewProcess("probe")
	if err != nil {
		t.Fatal(err)
	}
	sync := &proto.Message{Op: proto.OpReplicaSync}
	sync.F[0] = uint32(lead.PID())
	rep, err := probe.Send(sync, follower.PID())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Op != proto.ReplyNotLeader || rep.F != [6]uint32{} {
		t.Fatalf("follower sync reply %v %v, want a bare NotLeader", rep.Op, rep.F)
	}
	safe("follower sync")

	// Rejoin a fresh, empty member on the restarted host: the snapshot
	// install rebuilds its image, and leadership transfers back to slot 0.
	hosts[0].Restart()
	svc := &nullSvc{}
	reborn, err := Start(hosts[0], "rep0b", svc)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Rejoin("m0", reborn, vtime.Time(100*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	safe("rejoin")
	if host, pid := g.Leader(); host != "m0" || pid != reborn.PID() {
		t.Fatalf("post-rejoin leader = %s/%v, want m0/%v", host, pid, reborn.PID())
	}
	if g.MemberReplica("m0") != reborn {
		t.Fatalf("slot 0 not updated to the reborn replica")
	}
	for i, s := range append([]*nullSvc{svc}, svcs[1:]...) {
		if !bytes.Equal(s.Snapshot(), seedImage()) {
			t.Fatalf("member %d does not hold the seeded image", i)
		}
	}
	for _, host := range hosts {
		if err := g.MemberReplica(host.Name()).Proc().Err(); err != nil {
			t.Fatalf("member %s Err() = %v", host.Name(), err)
		}
	}

	// The event log narrates the cycle in order.
	evs := strings.Join(g.Events(), "\n")
	for _, want := range []string{"leader-down", "rejoin", "sync", "transfer"} {
		if !strings.Contains(evs, want) {
			t.Fatalf("event log missing %q:\n%s", want, evs)
		}
	}
}

// TestElectionStepsDownOnHigherTerm: a candidate whose vote request meets
// a higher term adopts it and loses, and the group records the loss.
func TestElectionStepsDownOnHigherTerm(t *testing.T) {
	k := kernel.New(netsim.New(vtime.DefaultModel(), 1))
	g, err := NewGroup(k.NewHost("mon"), Config{Name: "t", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var reps []*Replica
	for i := 0; i < 3; i++ {
		rep, err := Start(k.NewHost(fmt.Sprintf("m%d", i)), "rep", &nullSvc{})
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Add(fmt.Sprintf("m%d", i), rep); err != nil {
			t.Fatal(err)
		}
		reps = append(reps, rep)
	}
	// m1 has heard from a leader of term 9 that the monitor never elected.
	lp, err := k.NewHost("elsewhere").NewProcess("leader")
	if err != nil {
		t.Fatal(err)
	}
	announce := &proto.Message{Op: proto.OpReplicaAppend}
	announce.F[0], announce.F[1] = 9, uint32(lp.PID())
	if r, err := lp.Send(announce, reps[1].PID()); err != nil || r.Op != proto.ReplyOK {
		t.Fatalf("term-9 append: %v %v", r, err)
	}
	safe := safeAfter(t, g)
	if err := g.Bootstrap(0); err != nil {
		t.Fatal(err)
	}
	safe("bootstrap")
	if host, _ := g.Leader(); host != "" {
		t.Fatalf("m0 won term 1 against a member at term 9 (leader %s)", host)
	}
	if term, role := reps[0].status(); term != 9 || role != RoleFollower {
		t.Fatalf("m0 after the lost election: term %d %v, want a follower at term 9", term, role)
	}
	if evs := strings.Join(g.Events(), "\n"); !strings.Contains(evs, "elect-lost") || !strings.Contains(evs, "term=9") {
		t.Fatalf("event log does not record the loss:\n%s", evs)
	}
	// A stale-term announcement is refused with the current term.
	announce.F[0] = 1
	if r, err := lp.Send(announce, reps[1].PID()); err != nil || r.Op != proto.ReplyNoPermission || r.F[0] != 9 {
		t.Fatalf("stale append: %v %v, want NoPermission at term 9", r, err)
	}
	if s := fmt.Sprint(RoleLeader, RoleCandidate, RoleFollower, Role(9)); s != "leader candidate follower role(9)" {
		t.Fatalf("roles print as %q", s)
	}
}
