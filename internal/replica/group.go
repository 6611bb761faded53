package replica

import (
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/proto"
	"repro/internal/vtime"
)

// Config parameterizes a replication group.
type Config struct {
	// Name labels the group in logs and process names.
	Name string
	// Seed drives the randomized-but-seeded election timeouts.
	Seed int64
}

// The election timeout is quantized: a member's timeout is timeoutMin +
// (draw mod timeoutSteps) * timeoutStep. Quantization makes ties
// possible, which the lowest-member-index rule then breaks
// deterministically.
const (
	timeoutMin   = 5 * time.Millisecond
	timeoutStep  = 5 * time.Millisecond
	timeoutSteps = 4
)

// member is one slot of the membership. The slot's index is the member's
// priority (lower serves first); the Replica occupying it changes across
// crash/rejoin cycles. synced records whether that Replica holds the
// group's image: true from Bootstrap, false from a Rejoin until its
// snapshot sync succeeds. An unsynced slot never stands for election.
type member struct {
	host   string
	rep    *Replica
	synced bool
}

// Group owns a replication group's membership and election pacing. It
// runs no processes of its own except the monitor — a process on a
// stable host from which elections and snapshot syncs are triggered.
// Like the chaos engine, the group has no clock: the workload pumps it
// with Pump(now), and crash/restart instants arrive through the chaos
// engine's hooks, so every election fires at a deterministic virtual
// time (PROTOCOL.md §11.4).
type Group struct {
	k   *kernel.Kernel
	cfg Config
	mon *kernel.Process
	gid kernel.PID

	mu         sync.Mutex
	members    []*member
	leaderIdx  int
	term       uint32
	leaderDown bool
	downAt     vtime.Time
	attempt    uint32
	events     []string
	failovers  []time.Duration
}

// NewGroup creates a group whose monitor lives on monHost — a host the
// fault schedule never takes down.
func NewGroup(monHost *kernel.Host, cfg Config) (*Group, error) {
	mon, err := monHost.NewProcess("replica-mon[" + cfg.Name + "]")
	if err != nil {
		return nil, err
	}
	k := monHost.Kernel()
	gid, err := k.CreateGroup()
	if err != nil {
		return nil, err
	}
	return &Group{
		k:         k,
		cfg:       cfg,
		mon:       mon,
		gid:       gid,
		leaderIdx: -1,
	}, nil
}

// Name returns the group's label.
func (g *Group) Name() string { return g.cfg.Name }

// Add appends a member slot during boot. Member order is priority
// order: slot 0 is the bootstrap leader and the slot leadership
// transfers back to on rejoin.
func (g *Group) Add(host string, rep *Replica) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.members = append(g.members, &member{host: host, rep: rep})
	return g.k.JoinGroup(g.gid, rep.PID())
}

// Bootstrap fixes the quorum denominator, elects slot 0 leader and marks
// the initial role epochs at virtual time at. Call once after every Add,
// with every member seeded identically: Bootstrap counts them synced.
func (g *Group) Bootstrap(at vtime.Time) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, m := range g.members {
		m.rep.Bind(g.gid, len(g.members))
		m.synced = true
	}
	g.mon.Clock().Observe(at)
	return g.electLocked(0, at, false)
}

// Leader returns the current leader's host name and member pid, or
// ("", NilPID) during a leaderless window.
func (g *Group) Leader() (string, kernel.PID) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.leaderIdx < 0 {
		return "", kernel.NilPID
	}
	m := g.members[g.leaderIdx]
	return m.host, m.rep.PID()
}

// MemberReplica returns the replica currently occupying the slot of
// host, or nil.
func (g *Group) MemberReplica(host string) *Replica {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, m := range g.members {
		if m.host == host {
			return m.rep
		}
	}
	return nil
}

// Events returns the group's event log: one line per election, crash
// notice, rejoin and transfer, with exact virtual timestamps. Two runs
// of the same schedule produce byte-identical logs.
func (g *Group) Events() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]string, len(g.events))
	copy(out, g.events)
	return out
}

// Failovers returns the crash-triggered failover latencies (leader down
// to successor elected), in occurrence order.
func (g *Group) Failovers() []time.Duration {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]time.Duration, len(g.failovers))
	copy(out, g.failovers)
	return out
}

// NoteDown records that host crashed at the exact virtual time at (wired
// to the chaos engine's CrashHook). A crashed leader arms the election
// timer.
func (g *Group) NoteDown(host string, at vtime.Time) {
	g.mu.Lock()
	defer g.mu.Unlock()
	idx := g.slotLocked(host)
	if idx < 0 {
		return
	}
	g.markRole(host, metrics.RoleValueDown, at)
	if idx == g.leaderIdx {
		g.leaderIdx = -1
		g.leaderDown = true
		g.downAt = at
		g.attempt = 0
		g.logEvent(at, "leader-down", "host="+host)
	} else {
		g.logEvent(at, "member-down", "host="+host)
	}
}

// Pump drives the group's election timer from a workload clock: if the
// leader is down and the earliest seeded timeout has expired, the due
// member stands for election. A won election syncs every member
// re-created while the group had no leader, handing leadership back as
// Rejoin does. Callers pump the chaos engine first, then every group,
// then the samplers — the fixed observer order that keeps runs
// deterministic (PROTOCOL.md §11.4).
func (g *Group) Pump(now vtime.Time) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.mon.Clock().Observe(now)
	if g.leaderIdx >= 0 {
		m := g.members[g.leaderIdx]
		if g.k.ProcessAlive(m.rep.PID()) {
			return
		}
		// Leader died without a CrashHook notice (direct host crash in a
		// test): detection time is this pump.
		g.leaderIdx = -1
		g.leaderDown = true
		g.downAt = now
		g.attempt = 0
		g.logEvent(now, "leader-down", "host="+m.host+" (detected)")
	}
	if !g.leaderDown {
		return
	}
	idx, due, ok := g.electionPlanLocked()
	if !ok || now < due {
		return
	}
	downAt := g.downAt
	if err := g.electLocked(idx, due, false); err != nil || g.leaderIdx != idx {
		return
	}
	g.failovers = append(g.failovers, g.mon.Now()-downAt)
	for i, m := range g.members {
		if !m.synced && g.k.ProcessAlive(m.rep.PID()) {
			_ = g.syncLocked(i)
		}
	}
}

// electionPlanLocked picks the live synced member whose seeded timeout
// expires first; equal timeouts break toward the lowest slot index.
func (g *Group) electionPlanLocked() (idx int, due vtime.Time, ok bool) {
	idx = -1
	for i, m := range g.members {
		if !m.synced || !g.k.ProcessAlive(m.rep.PID()) {
			continue
		}
		d := g.downAt + electionTimeout(g.cfg.Seed, g.term+1+g.attempt, i)
		if idx == -1 || d < due {
			idx, due = i, d
		}
	}
	return idx, due, idx >= 0
}

// electionTimeout is the deterministic seeded draw: the same seed, term
// and slot always yield the same timeout, and the quantization makes
// cross-slot ties possible (broken by slot order). The FNV sum passes
// through a 64-bit avalanche finalizer before the modulus: FNV's low
// bits are nearly linear in the last input bytes, which would make
// adjacent slots anti-correlated mod a power-of-two step count and
// ties impossible.
func electionTimeout(seed int64, term uint32, slot int) time.Duration {
	h := fnv.New64a()
	var buf [16]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(seed >> (8 * i))
	}
	for i := 0; i < 4; i++ {
		buf[8+i] = byte(term >> (8 * i))
		buf[12+i] = byte(uint32(slot) >> (8 * i))
	}
	h.Write(buf[:])
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return timeoutMin + time.Duration(x%timeoutSteps)*timeoutStep
}

// electLocked sends OpReplicaElect to slot idx at virtual time at and
// records the outcome. transfer marks a planned leadership transfer
// (rejoin rebalancing) rather than a crash failover.
func (g *Group) electLocked(idx int, at vtime.Time, transfer bool) error {
	m := g.members[idx]
	g.mon.Clock().Observe(at)
	rep, err := g.mon.Send(&proto.Message{Op: proto.OpReplicaElect}, m.rep.PID())
	if err != nil {
		g.attempt++
		g.downAt = g.mon.Now()
		g.logEvent(g.mon.Now(), "elect-failed", fmt.Sprintf("host=%s err=%v", m.host, err))
		return err
	}
	if rep.Op != proto.ReplyOK {
		g.attempt++
		g.downAt = g.mon.Now()
		g.term = rep.F[0]
		g.logEvent(g.mon.Now(), "elect-lost", fmt.Sprintf("host=%s term=%d", m.host, rep.F[0]))
		return nil
	}
	g.term = rep.F[0]
	g.leaderIdx = idx
	g.leaderDown = false
	g.attempt = 0
	now := g.mon.Now()
	kind := "leader"
	if transfer {
		kind = "transfer"
	}
	g.logEvent(now, kind, fmt.Sprintf("host=%s term=%d", m.host, g.term))
	g.markRole(m.host, metrics.RoleValueLeader, now)
	for i, o := range g.members {
		if i == idx || !g.k.ProcessAlive(o.rep.PID()) {
			continue
		}
		g.markRole(o.host, metrics.RoleValueFollower, now)
	}
	return nil
}

// Rejoin installs a fresh replica in host's slot at virtual time at
// (wired to the chaos engine's RestartHook): swap the membership and
// snapshot-sync from the leader. A group with no leader syncs the member
// once its next election is won (Pump).
func (g *Group) Rejoin(host string, rep *Replica, at vtime.Time) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	idx := g.slotLocked(host)
	if idx < 0 {
		return fmt.Errorf("replica: host %s is not a member of group %s", host, g.cfg.Name)
	}
	m := g.members[idx]
	_ = g.k.LeaveGroup(g.gid, m.rep.PID())
	m.rep, m.synced = rep, false
	rep.Bind(g.gid, len(g.members))
	if err := g.k.JoinGroup(g.gid, rep.PID()); err != nil {
		return err
	}
	g.mon.Clock().Observe(at)
	g.markRole(host, metrics.RoleValueFollower, at)
	g.logEvent(at, "rejoin", "host="+host)
	if g.leaderIdx < 0 {
		return nil
	}
	return g.syncLocked(idx)
}

// syncLocked has the leader install its image on slot idx and — when the
// slot outranks the leader — transfers leadership back to it, so the
// steady-state leader is always the lowest live slot, matching the
// kernel's lowest-host GetPid selection (§4.2).
func (g *Group) syncLocked(idx int) error {
	m := g.members[idx]
	req := &proto.Message{Op: proto.OpReplicaSync}
	req.F[0] = uint32(m.rep.PID())
	srep, err := g.mon.Send(req, g.members[g.leaderIdx].rep.PID())
	if err != nil {
		g.logEvent(g.mon.Now(), "sync-failed", fmt.Sprintf("host=%s err=%v", m.host, err))
		return err
	}
	if srep.Op != proto.ReplyOK {
		g.logEvent(g.mon.Now(), "sync-failed", fmt.Sprintf("host=%s reply=%v", m.host, srep.Op))
		return proto.ReplyError(srep.Op)
	}
	m.synced = true
	g.logEvent(g.mon.Now(), "sync", "host="+m.host)
	if idx < g.leaderIdx {
		return g.electLocked(idx, g.mon.Now(), true)
	}
	return nil
}

func (g *Group) slotLocked(host string) int {
	for i, m := range g.members {
		if m.host == host {
			return i
		}
	}
	return -1
}

func (g *Group) markRole(host string, value int64, at vtime.Time) {
	reg := g.k.Metrics()
	if reg == nil {
		return
	}
	reg.Timeline(metrics.TimelineServerRole, metrics.Labels{Host: host}).Mark(at, value)
}

func (g *Group) logEvent(at vtime.Time, kind, detail string) {
	g.events = append(g.events, fmt.Sprintf("t=%08dus %-12s %s", at.Microseconds(), kind, detail))
}
