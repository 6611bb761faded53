package replica

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/kernel"
	"repro/internal/netsim"
	"repro/internal/proto"
	"repro/internal/vtime"
)

// nullSvc is a minimal state machine: it records applied commands and
// snapshots them verbatim.
type nullSvc struct {
	mu      sync.Mutex
	applied []string
}

func (s *nullSvc) Serve(p *kernel.Process, r *Replica, msg *proto.Message, from kernel.PID) {
	_ = p.Reply(proto.NewReply(proto.ReplyOK), from)
}

func (s *nullSvc) Apply(p *kernel.Process, cmd []byte) *proto.Message {
	s.mu.Lock()
	s.applied = append(s.applied, string(cmd))
	s.mu.Unlock()
	return proto.NewReply(proto.ReplyOK)
}

func (s *nullSvc) Snapshot() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return encodeEntries(entriesOf(s.applied))
}

func (s *nullSvc) Restore(p *kernel.Process, data []byte) error {
	// Length is unknown to the codec; recover it by decoding greedily.
	var cmds []string
	for n := 0; ; n++ {
		ents, err := decodeEntries(data, n)
		if err == nil {
			for _, e := range ents {
				cmds = append(cmds, string(e.Cmd))
			}
			break
		}
	}
	s.mu.Lock()
	s.applied = cmds
	s.mu.Unlock()
	return nil
}

func entriesOf(cmds []string) []entry {
	ents := make([]entry, len(cmds))
	for i, c := range cmds {
		ents[i] = entry{Term: 1, Cmd: []byte(c)}
	}
	return ents
}

func (s *nullSvc) appliedCopy() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.applied...)
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
		svc := &nullSvc{}
		rep, err := Start(hosts[i], fmt.Sprintf("rep%d", i), func(p *kernel.Process) Service { return svc })
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
// leader of a term in the event log or in a member's state, a commit
// index going back and diverged state of synced members are each
// reported.
func TestSafetyCatchesViolations(t *testing.T) {
	for _, c := range []struct {
		name    string
		corrupt func(g *Group, r *Replica, svc *nullSvc)
		want    string
	}{
		{"logged leader", func(g *Group, _ *Replica, _ *nullSvc) { g.logEvent(0, "leader", "host=m2 term=1") }, "led by"},
		{"second leader", func(_ *Group, r *Replica, _ *nullSvc) { r.role = RoleLeader }, "led by"},
		{"commit back", func(_ *Group, r *Replica, _ *nullSvc) { r.commit-- }, "went back"},
		{"diverged state", func(_ *Group, _ *Replica, svc *nullSvc) { svc.applied = svc.applied[1:] }, "different state"},
	} {
		_, g, _, svcs := testGroup(t, 1, 3)
		var s Safety
		if _, err := g.Propose([]byte("a")); err != nil {
			t.Fatal(err)
		}
		if err := s.Check(g); err != nil {
			t.Fatalf("%s: healthy group: %v", c.name, err)
		}
		r := g.MemberReplica("m1")
		g.mu.Lock()
		r.mu.Lock()
		c.corrupt(g, r, svcs[1])
		r.mu.Unlock()
		g.mu.Unlock()
		if err := s.Check(g); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: Check = %v, want an error containing %q", c.name, err, c.want)
		}
	}
}

// TestGroupProposeReplicates checks commit-on-delivery replication:
// a proposed command is applied on every member before the reply.
func TestGroupProposeReplicates(t *testing.T) {
	_, g, _, svcs := testGroup(t, 1, 3)
	if host, _ := g.Leader(); host != "m0" {
		t.Fatalf("bootstrap leader = %s, want m0 (slot 0)", host)
	}
	for i, cmd := range []string{"alpha", "beta"} {
		rep, err := g.Propose([]byte(cmd))
		if err != nil {
			t.Fatalf("propose %d: %v", i, err)
		}
		if rep.Op != proto.ReplyOK {
			t.Fatalf("propose %d: reply %v", i, rep.Op)
		}
	}
	for i, svc := range svcs {
		got := svc.appliedCopy()
		if len(got) != 2 || got[0] != "alpha" || got[1] != "beta" {
			t.Errorf("member %d applied %v, want [alpha beta]", i, got)
		}
	}
	for i, st := range g.Statuses() {
		if st.Commit != 2 || st.LastIdx != 2 {
			t.Errorf("member %d status %+v, want commit=2 last=2", i, st)
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
		cfg := Config{Seed: s}.withDefaults()
		if electionTimeout(cfg, 2, 1) == electionTimeout(cfg, 2, 2) {
			seed = s
			break
		}
	}
	if seed < 0 {
		t.Fatal("no seed with a slot-1/slot-2 timeout tie in 10000 draws")
	}
	cfg := Config{Seed: seed}.withDefaults()
	tied := electionTimeout(cfg, 2, 1)

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
	cfg := Config{Seed: 42}.withDefaults()
	for term := uint32(1); term < 8; term++ {
		for slot := 0; slot < 5; slot++ {
			d1 := electionTimeout(cfg, term, slot)
			d2 := electionTimeout(cfg, term, slot)
			if d1 != d2 {
				t.Fatalf("draw(%d,%d) unstable: %v vs %v", term, slot, d1, d2)
			}
			min := cfg.TimeoutMin
			max := cfg.TimeoutMin + time.Duration(cfg.TimeoutSteps-1)*cfg.TimeoutStep
			if d1 < min || d1 > max {
				t.Fatalf("draw(%d,%d) = %v outside [%v, %v]", term, slot, d1, min, max)
			}
		}
	}
}

// appendMsg builds an OpReplicaAppend the way replicateTo does.
func appendMsg(term, prevIdx, prevTerm, commit uint32, leader kernel.PID, ents []entry) *proto.Message {
	req := &proto.Message{Op: proto.OpReplicaAppend, Segment: encodeEntries(ents)}
	req.F[0], req.F[1], req.F[2] = term, prevIdx, prevTerm
	req.F[3], req.F[4], req.F[5] = commit, uint32(leader), uint32(len(ents))
	return req
}

// TestLogTruncationOnConflict drives a follower directly with a
// divergent append stream: a new-term append overlapping the old tail
// must truncate the conflicting suffix, adopt the leader's entries, and
// never apply the discarded ones.
func TestLogTruncationOnConflict(t *testing.T) {
	k := kernel.New(netsim.New(vtime.DefaultModel(), 1))
	host := k.NewHost("m0")
	svc := &nullSvc{}
	rep, err := Start(host, "rep0", func(p *kernel.Process) Service { return svc })
	if err != nil {
		t.Fatal(err)
	}
	lh := k.NewHost("fake-leader")
	lp, err := lh.NewProcess("leader")
	if err != nil {
		t.Fatal(err)
	}
	// A group that never elects holds the follower for the oracle.
	g, err := NewGroup(lh, Config{Name: "t"})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Add("m0", rep); err != nil {
		t.Fatal(err)
	}
	safe := safeAfter(t, g)
	safe("boot")

	// Old leader at term 1: three entries, only the first committed.
	r1, err := lp.Send(appendMsg(1, 0, 0, 1, lp.PID(),
		[]entry{{1, []byte("a")}, {1, []byte("b")}, {1, []byte("c")}}), rep.PID())
	if err != nil || r1.Op != proto.ReplyOK || r1.F[1] != 3 {
		t.Fatalf("first append: %v %+v", err, r1)
	}
	safe("first append")

	// New leader at term 2 diverges after index 1 and commits through 3.
	r2, err := lp.Send(appendMsg(2, 1, 1, 3, lp.PID(),
		[]entry{{2, []byte("x")}, {2, []byte("y")}}), rep.PID())
	if err != nil || r2.Op != proto.ReplyOK || r2.F[1] != 3 {
		t.Fatalf("conflicting append: %v %+v", err, r2)
	}
	safe("conflicting append")

	got := svc.appliedCopy()
	want := []string{"a", "x", "y"}
	if len(got) != len(want) {
		t.Fatalf("applied %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("applied %v, want %v (divergent entries b/c leaked)", got, want)
		}
	}
	rep.mu.Lock()
	terms := make([]uint32, len(rep.log))
	for i, e := range rep.log {
		terms[i] = e.Term
	}
	rep.mu.Unlock()
	if len(terms) != 3 || terms[0] != 1 || terms[1] != 2 || terms[2] != 2 {
		t.Fatalf("log terms = %v, want [1 2 2]", terms)
	}

	// A stale-term append after the truncation must be refused.
	r3, err := lp.Send(appendMsg(1, 3, 2, 3, lp.PID(), nil), rep.PID())
	if err != nil || r3.Op != proto.ReplyNoPermission {
		t.Fatalf("stale append: err=%v op=%v, want NoPermission", err, r3.Op)
	}
	safe("stale append")
}

// TestCrashRejoinSnapshotSync drives the full recovery cycle in one
// package-level scenario: leader host crash (detected by Pump, no
// explicit NoteDown), failover election, continued commits on the new
// leader, then a rejoin of a fresh empty member — snapshot install plus
// tail append must reconstruct the applied state, and the transfer
// election must hand leadership back to slot 0.
func TestCrashRejoinSnapshotSync(t *testing.T) {
	k, g, hosts, svcs := testGroup(t, 3, 3)
	safe := safeAfter(t, g)
	safe("boot")
	if g.GID() == kernel.NilPID || g.Name() != "t" {
		t.Fatalf("group identity: gid=%v name=%q", g.GID(), g.Name())
	}
	if hs := g.Hosts(); len(hs) != 3 || hs[0] != "m0" {
		t.Fatalf("Hosts() = %v", hs)
	}
	for _, cmd := range []string{"a", "b", "c"} {
		if _, err := g.Propose([]byte(cmd)); err != nil {
			t.Fatal(err)
		}
		safe("propose " + cmd)
	}

	// Crash the leader host without a NoteDown: the next Pump must
	// detect the dead leader itself, then elect once a timeout expires.
	// The crashed member's death is recorded when Crash returns.
	hosts[0].Crash()
	if err := g.MemberReplica("m0").Err(); !errors.Is(err, kernel.ErrHostDown) {
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

	// The new leader keeps committing while m0 is gone.
	if _, err := g.Propose([]byte("d")); err != nil {
		t.Fatal(err)
	}
	safe("propose d")

	// A follower redirects out-of-band proposals with a leader hint.
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
	rep, err := probe.Send(&proto.Message{Op: proto.OpReplicaPropose, Segment: []byte("x")}, follower.PID())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Op != proto.ReplyNotLeader || kernel.PID(proto.LeaderHint(rep)) != lead.PID() {
		t.Fatalf("follower propose reply %v hint %d, want NotLeader hint %d",
			rep.Op, proto.LeaderHint(rep), lead.PID())
	}
	safe("follower propose")

	// Rejoin a fresh, empty member on the restarted host: snapshot
	// install + tail append rebuild its state machine, and leadership
	// transfers back to slot 0.
	hosts[0].Restart()
	svc := &nullSvc{}
	reborn, err := Start(hosts[0], "rep0b", func(p *kernel.Process) Service { return svc })
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
	want := []string{"a", "b", "c", "d"}
	if got := svc.appliedCopy(); !reflect.DeepEqual(got, want) {
		t.Fatalf("reborn member applied %v, want %v", got, want)
	}
	for i, old := range svcs[1:] {
		if got := old.appliedCopy(); !reflect.DeepEqual(got, want) {
			t.Fatalf("member %d applied %v, want %v", i+1, got, want)
		}
	}

	// The reborn leader commits new proposals to everyone.
	if _, err := g.Propose([]byte("e")); err != nil {
		t.Fatal(err)
	}
	safe("propose e")
	for i, st := range g.Statuses() {
		if st.Commit != 5 {
			t.Fatalf("member %d commit = %d, want 5", i, st.Commit)
		}
		if err := g.MemberReplica(g.Hosts()[i]).Err(); err != nil {
			t.Fatalf("member %d Err() = %v", i, err)
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

// TestStatusReplyMatchesStatuses: the OpReplicaStatus reply any process
// can ask a member for carries what Statuses reads without asking.
func TestStatusReplyMatchesStatuses(t *testing.T) {
	k, g, _, _ := testGroup(t, 1, 3)
	if _, err := g.Propose([]byte("a")); err != nil {
		t.Fatal(err)
	}
	probe, err := k.HostByName("mon").NewProcess("probe")
	if err != nil {
		t.Fatal(err)
	}
	for i, host := range g.Hosts() {
		rep, err := probe.Send(&proto.Message{Op: proto.OpReplicaStatus}, g.MemberReplica(host).PID())
		if err != nil || rep.Op != proto.ReplyOK {
			t.Fatalf("status of %s: %v %v", host, rep, err)
		}
		got := Status{Term: rep.F[0], Role: Role(rep.F[1]), Commit: rep.F[2], LastIdx: rep.F[3], Leader: kernel.PID(rep.F[4])}
		if want := g.Statuses()[i]; got != want {
			t.Fatalf("%s: OpReplicaStatus %+v, Statuses %+v", host, got, want)
		}
	}
	if s := fmt.Sprint(RoleLeader, RoleCandidate, RoleFollower, Role(9)); s != "leader candidate follower role(9)" {
		t.Fatalf("roles print as %q", s)
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
		rep, err := Start(k.NewHost(fmt.Sprintf("m%d", i)), "rep", func(p *kernel.Process) Service { return &nullSvc{} })
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
	if r, err := lp.Send(appendMsg(9, 0, 0, 0, lp.PID(), nil), reps[1].PID()); err != nil || r.Op != proto.ReplyOK {
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
	if st := g.Statuses()[0]; st.Term != 9 || st.Role != RoleFollower {
		t.Fatalf("m0 after the lost election: %+v, want a follower at term 9", st)
	}
	if evs := strings.Join(g.Events(), "\n"); !strings.Contains(evs, "elect-lost") || !strings.Contains(evs, "term=9") {
		t.Fatalf("event log does not record the loss:\n%s", evs)
	}
}
