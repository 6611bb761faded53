// Package replica lets a group of name servers implement one read-only
// context transparently (PROTOCOL.md §11): the members are seeded
// identically at boot, agree on a leader, and a re-created member takes
// the leader's image by snapshot. Every message rides the kernel's
// Send/Receive/Reply transaction. Nothing in the package uses real time or
// unseeded randomness: elections are driven by the group monitor from the
// virtual clock with seeded timeouts, which makes every run deterministic
// under the virtual clock and fully visible to the trace and metrics
// machinery.
//
// A Replica is one group member: a single served kernel process whose
// handler dispatches the replication operations (0x0400 range) itself and
// hands every other message to the attached Service — the front of a
// replicated file server. The Group (group.go) owns membership, leader
// bookkeeping and election pacing.
package replica

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/proto"
)

// Role is a member's current election role.
type Role uint32

const (
	// RoleFollower accepts announcements and votes.
	RoleFollower Role = iota + 1
	// RoleCandidate is standing in an election round.
	RoleCandidate
	// RoleLeader serves the group's requests and ships snapshots.
	RoleLeader
)

// String names the role for diagnostics.
func (r Role) String() string {
	switch r {
	case RoleFollower:
		return "follower"
	case RoleCandidate:
		return "candidate"
	case RoleLeader:
		return "leader"
	}
	return fmt.Sprintf("role(%d)", uint32(r))
}

// Service is the replicated state attached to a member. Snapshot and
// Restore must be deterministic: a member restored from a snapshot holds
// byte-identical state — or, for a Service whose Snapshot also carries
// member-local fields, an identical image from its Replicated() []byte
// method, which the Safety oracle compares instead.
type Service interface {
	// Serve handles one non-replication message delivered to the member
	// process and must complete the transaction (Reply or Forward). The
	// Replica is passed in so the service can route on leadership.
	Serve(p *kernel.Process, r *Replica, msg *proto.Message, from kernel.PID)
	// Snapshot encodes the state.
	Snapshot() []byte
	// Restore replaces the state with a snapshot.
	Restore(p *kernel.Process, data []byte) error
}

// snapChunk bounds one snapshot-install segment, comfortably below
// proto.MaxSegmentBytes.
const snapChunk = 48 * 1024

// Replica is one member of a replication group.
type Replica struct {
	proc *kernel.Process
	svc  Service

	mu       sync.Mutex
	gid      kernel.PID // kernel process group of the membership
	total    int        // full membership size (quorum denominator)
	term     uint32
	votedFor kernel.PID
	role     Role
	leader   kernel.PID // last known leader (may be dead)
	snapBuf  []byte     // partial snapshot install
}

// Start creates the member process on host and serves it with dispatch,
// fronting svc. The member joins a group via Group.Add/Rejoin, which
// calls Bind.
//
// A member's handler Sends to its peers (votes, announcements, snapshot
// chunks), each served on the same goroutine under the peer's serve lock.
// A Send cycle between members — A serving and calling B while B serves
// and calls A — deadlocks served exactly as it would received, since a V
// process blocked in Send cannot Receive; no handler here Sends to a
// member that can call back into the sender.
func Start(host *kernel.Host, name string, svc Service) (*Replica, error) {
	proc, err := host.NewProcess(name)
	if err != nil {
		return nil, err
	}
	r := &Replica{proc: proc, svc: svc, role: RoleFollower}
	proc.Serve(func(msg *proto.Message, from kernel.PID) { r.dispatch(proc, msg, from) })
	return r, nil
}

// Bind attaches the member to its group's kernel process group and fixes
// the quorum denominator. Called by the Group before the member serves.
func (r *Replica) Bind(gid kernel.PID, total int) {
	r.mu.Lock()
	r.gid = gid
	r.total = total
	r.mu.Unlock()
}

// PID returns the member process identifier.
func (r *Replica) PID() kernel.PID { return r.proc.PID() }

// Proc returns the member process.
func (r *Replica) Proc() *kernel.Process { return r.proc }

// Leading reports whether this member currently believes it is leader.
func (r *Replica) Leading() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.role == RoleLeader
}

// LeaderHint returns the pid of the live leader this member knows of, or
// NilPID: its own pid when leading, the last announced leader if that
// process is still alive.
func (r *Replica) LeaderHint() kernel.PID {
	r.mu.Lock()
	lead := r.leader
	if r.role == RoleLeader {
		lead = r.proc.PID()
	}
	r.mu.Unlock()
	if lead != kernel.NilPID && r.proc.Kernel().ProcessAlive(lead) {
		return lead
	}
	return kernel.NilPID
}

// dispatch charges the dispatch cost and routes one message: replication
// operations are handled internally, everything else goes to the Service.
func (r *Replica) dispatch(p *kernel.Process, msg *proto.Message, from kernel.PID) {
	p.ChargeCompute(p.Kernel().Model().ServerDispatchCost)
	var reply *proto.Message
	switch msg.Op {
	case proto.OpReplicaAppend:
		reply = r.handleAppend(msg)
	case proto.OpReplicaVote:
		reply = r.handleVote(msg)
	case proto.OpReplicaElect:
		reply = r.handleElect(p)
	case proto.OpReplicaSync:
		reply = r.handleSync(p, msg)
	case proto.OpReplicaSnapshot:
		reply = r.handleSnapshot(p, msg)
	default:
		r.svc.Serve(p, r, msg, from)
		return
	}
	// The serve span marks the answer, not the handling: a handler's
	// replication rounds are transactions of their own.
	core.BeginServe(p, msg, from).Reply(reply, nil)
}

// refuse answers a vote, announcement or snapshot chunk with NoPermission
// and the replier's term, which deposes a sender of an older term.
func refuse(term uint32) *proto.Message {
	rep := proto.NewReply(proto.ReplyNoPermission)
	rep.F[0] = term
	return rep
}

// livePeers returns the group's live members other than this one, in pid
// order (host creation order — the deterministic iteration order every
// round uses).
func (r *Replica) livePeers() []kernel.PID {
	r.mu.Lock()
	gid := r.gid
	r.mu.Unlock()
	if gid == kernel.NilPID {
		return nil
	}
	k := r.proc.Kernel()
	members, err := k.GroupMembers(gid)
	if err != nil {
		return nil
	}
	peers := members[:0]
	for _, pid := range members {
		if pid != r.proc.PID() && k.ProcessAlive(pid) {
			peers = append(peers, pid)
		}
	}
	return peers
}

// stepDown adopts a higher term observed from a peer.
func (r *Replica) stepDown(term uint32) {
	r.mu.Lock()
	if term > r.term {
		r.term = term
		r.votedFor = kernel.NilPID
	}
	r.role = RoleFollower
	r.mu.Unlock()
}

// followLocked adopts the term and leader of a current-term message: the
// follower side of an announcement or a snapshot chunk. It reports false
// when the message's term is stale.
func (r *Replica) followLocked(term uint32, leader kernel.PID) bool {
	if term < r.term {
		return false
	}
	if term > r.term {
		r.term = term
		r.votedFor = kernel.NilPID
	}
	r.role = RoleFollower
	r.leader = leader
	return true
}

// handleAppend is the follower side of the leader's announcement (an
// append with no entries): adopt the term and the leader pid.
func (r *Replica) handleAppend(msg *proto.Message) *proto.Message {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.followLocked(msg.F[0], kernel.PID(msg.F[1])) {
		return refuse(r.term)
	}
	rep := proto.NewReply(proto.ReplyOK)
	rep.F[0] = r.term
	return rep
}

// handleVote is the peer side of an election round: grant iff the
// candidate's term is current and this member has not voted for someone
// else this term. Which members may stand is the monitor's decision: only
// a member that holds the group's image does (group.go).
func (r *Replica) handleVote(msg *proto.Message) *proto.Message {
	term, cand := msg.F[0], kernel.PID(msg.F[1])
	r.mu.Lock()
	defer r.mu.Unlock()
	if term < r.term {
		return refuse(r.term)
	}
	if term > r.term {
		r.term = term
		r.votedFor = kernel.NilPID
		r.role = RoleFollower
		r.leader = kernel.NilPID
	}
	if r.votedFor != kernel.NilPID && r.votedFor != cand {
		return refuse(r.term)
	}
	r.votedFor = cand
	rep := proto.NewReply(proto.ReplyOK)
	rep.F[0] = r.term
	return rep
}

// handleElect runs one synchronous election round on the monitor's
// instruction: bump the term, self-vote, request votes from live peers
// in member order, and on majority announce leadership to each. Reply OK
// (won, F[0]=term) or Retry (lost).
func (r *Replica) handleElect(p *kernel.Process) *proto.Message {
	r.mu.Lock()
	r.term++
	r.votedFor = r.proc.PID()
	r.role = RoleCandidate
	term, total := r.term, r.total
	r.mu.Unlock()

	lost := func(term uint32) *proto.Message {
		rep := proto.NewReply(proto.ReplyRetry)
		rep.F[0] = term
		return rep
	}
	votes := 1
	for _, pid := range r.livePeers() {
		req := &proto.Message{Op: proto.OpReplicaVote}
		req.F[0], req.F[1] = term, uint32(r.proc.PID())
		rep, err := p.Send(req, pid)
		if err != nil {
			continue
		}
		if rep.Op == proto.ReplyOK {
			votes++
		} else if rep.F[0] > term {
			r.stepDown(rep.F[0])
			return lost(rep.F[0])
		}
	}
	r.mu.Lock()
	won := votes*2 > total && r.term == term // a concurrent higher term would have deposed us
	if won {
		r.role = RoleLeader
		r.leader = r.proc.PID()
	} else {
		r.role = RoleFollower
	}
	r.mu.Unlock()
	if !won {
		return lost(term)
	}
	for _, pid := range r.livePeers() {
		_ = r.announce(p, pid)
	}
	rep := proto.NewReply(proto.ReplyOK)
	rep.F[0], rep.F[1] = term, uint32(r.proc.PID())
	return rep
}

// announce sends one follower the leader's term and pid: an append with
// no entries. A stale-term refusal deposes this member.
func (r *Replica) announce(p *kernel.Process, pid kernel.PID) error {
	r.mu.Lock()
	if r.role != RoleLeader {
		r.mu.Unlock()
		return proto.ErrNotLeader
	}
	term := r.term
	r.mu.Unlock()
	req := &proto.Message{Op: proto.OpReplicaAppend}
	req.F[0], req.F[1] = term, uint32(r.proc.PID())
	rep, err := p.Send(req, pid)
	if err != nil {
		return err
	}
	if rep.Op != proto.ReplyOK {
		if rep.F[0] > term {
			r.stepDown(rep.F[0])
		}
		return proto.ErrNotLeader
	}
	return nil
}

// handleSync serves the monitor's instruction to bring a re-created
// member up to date: install a snapshot of the leader's state, then
// announce the leader to it.
func (r *Replica) handleSync(p *kernel.Process, msg *proto.Message) *proto.Message {
	if !r.Leading() {
		return proto.NewReply(proto.ReplyNotLeader)
	}
	pid := kernel.PID(msg.F[0])
	if err := r.installSnapshot(p, pid); err != nil {
		return proto.NewReply(proto.ErrorReply(err))
	}
	if err := r.announce(p, pid); err != nil {
		return proto.NewReply(proto.ErrorReply(err))
	}
	return proto.NewReply(proto.ReplyOK)
}

// installSnapshot ships the state to pid in chunks.
func (r *Replica) installSnapshot(p *kernel.Process, pid kernel.PID) error {
	r.mu.Lock()
	term := r.term
	r.mu.Unlock()
	data := r.svc.Snapshot()
	for off := 0; ; {
		n := min(len(data)-off, snapChunk)
		req := &proto.Message{Op: proto.OpReplicaSnapshot, Segment: data[off : off+n]}
		req.F[0], req.F[1] = term, uint32(r.proc.PID())
		req.F[2], req.F[3] = uint32(len(data)), uint32(off)
		rep, err := p.Send(req, pid)
		if err != nil {
			return err
		}
		if rep.Op != proto.ReplyOK {
			if rep.F[0] > term {
				r.stepDown(rep.F[0])
			}
			return proto.ReplyError(rep.Op)
		}
		if off += n; off >= len(data) {
			return nil
		}
	}
}

// handleSnapshot is the follower side of snapshot install: accumulate
// chunks and, on the last one, restore the state.
func (r *Replica) handleSnapshot(p *kernel.Process, msg *proto.Message) *proto.Message {
	term, total, off := msg.F[0], msg.F[2], msg.F[3]
	r.mu.Lock()
	if !r.followLocked(term, kernel.PID(msg.F[1])) {
		rep := refuse(r.term)
		r.mu.Unlock()
		return rep
	}
	if off == 0 {
		r.snapBuf = r.snapBuf[:0]
	}
	r.snapBuf = append(r.snapBuf, msg.Segment...)
	data := r.snapBuf
	done := uint32(len(data)) >= total
	if done {
		r.snapBuf = nil
	}
	r.mu.Unlock()

	if done {
		if err := r.svc.Restore(p, data); err != nil {
			return proto.NewReply(proto.ErrorReply(err))
		}
	}
	rep := proto.NewReply(proto.ReplyOK)
	rep.F[0] = term
	return rep
}

// status is the member's term and role, read without a transaction.
func (r *Replica) status() (uint32, Role) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.term, r.role
}
