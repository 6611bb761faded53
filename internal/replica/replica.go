// Package replica is a Raft-style replication substrate layered purely on
// the kernel's Send/Receive/Reply transaction, so that a group of name
// servers can keep byte-identical state across host crashes (ISSUE 6;
// PROTOCOL.md §11). Nothing in the package uses real time or unseeded
// randomness: elections are driven by the group monitor from the virtual
// clock with seeded timeouts, and replication is synchronous on the
// serving path, which makes every run deterministic under the virtual
// clock and fully visible to the trace and metrics machinery.
//
// A Replica is one group member: a single served kernel process whose
// handler dispatches the replication operations (0x0400 range) itself and
// hands every other message to the attached Service — the state-machine
// front (a replicated file server front, a replicated prefix table). The
// Group (group.go) owns membership, leader bookkeeping and election
// pacing.
package replica

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/proto"
)

// Role is a member's current consensus role.
type Role uint32

const (
	// RoleFollower accepts appends and votes.
	RoleFollower Role = iota + 1
	// RoleCandidate is standing in an election round.
	RoleCandidate
	// RoleLeader serves mutations and replicates the log.
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

// Service is the replicated state machine attached to a member. Apply,
// Snapshot and Restore must be deterministic: two replicas applying the
// same command sequence from the same snapshot must reach byte-identical
// state — or, for a Service whose Snapshot also carries member-local
// fields, an identical image from its Replicated() []byte method, which
// the Safety oracle compares instead.
type Service interface {
	// Serve handles one non-replication message delivered to the member
	// process and must complete the transaction (Reply or Forward). The
	// Replica is passed in so the service can route on leadership:
	// Propose mutations, forward or redirect the rest.
	Serve(p *kernel.Process, r *Replica, msg *proto.Message, from kernel.PID)
	// Apply executes one committed command and returns the reply for the
	// proposing client (followers discard it).
	Apply(p *kernel.Process, cmd []byte) *proto.Message
	// Snapshot encodes the applied state machine.
	Snapshot() []byte
	// Restore replaces the state machine with a snapshot.
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
	base     uint32     // last log index covered by the installed snapshot
	baseTerm uint32
	log      []entry // log[i] holds index base+1+i
	commit   uint32
	applied  uint32
	match    map[kernel.PID]uint32 // leader: highest index known replicated per peer
	snapBuf  []byte                // partial snapshot install
}

// Start creates the member process on host and serves it with dispatch.
// makeSvc builds the state machine around the new process (services
// typically need the process before they can exist). The member joins a
// group via Group.Add/Rejoin, which calls Bind.
//
// A member's handler Sends to its peers (votes, appends, snapshot
// chunks), each served on the same goroutine under the peer's serve lock.
// A Send cycle between members — A serving and calling B while B serves
// and calls A — deadlocks served exactly as it would received, since a V
// process blocked in Send cannot Receive; no handler here Sends to a
// member that can call back into the sender.
func Start(host *kernel.Host, name string, makeSvc func(p *kernel.Process) Service) (*Replica, error) {
	proc, err := host.NewProcess(name)
	if err != nil {
		return nil, err
	}
	r := &Replica{proc: proc, svc: makeSvc(proc), role: RoleFollower, match: make(map[kernel.PID]uint32)}
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

// Err reports why the member stopped serving (kernel.Process.Err): nil
// while running, an error wrapping kernel.ErrHostDown after a crash.
func (r *Replica) Err() error { return r.proc.Err() }

// dispatch charges the dispatch cost and routes one message: replication
// operations are handled internally, everything else goes to the Service.
func (r *Replica) dispatch(p *kernel.Process, msg *proto.Message, from kernel.PID) {
	p.ChargeCompute(p.Kernel().Model().ServerDispatchCost)
	var reply *proto.Message
	switch msg.Op {
	case proto.OpReplicaAppend:
		reply = r.handleAppend(p, msg)
	case proto.OpReplicaVote:
		reply = r.handleVote(msg)
	case proto.OpReplicaElect:
		reply = r.handleElect(p)
	case proto.OpReplicaSync:
		reply = r.handleSync(p, msg)
	case proto.OpReplicaSnapshot:
		reply = r.handleSnapshot(p, msg)
	case proto.OpReplicaPropose:
		reply = r.handlePropose(p, msg)
	case proto.OpReplicaStatus:
		reply = r.handleStatus()
	default:
		r.svc.Serve(p, r, msg, from)
		return
	}
	// The serve span marks the answer, not the handling: a handler's
	// replication rounds are transactions of their own.
	core.BeginServe(p, msg, from).Reply(reply, nil)
}

// NotLeaderReply builds the standard redirect reply carrying this
// member's best live-leader hint.
func (r *Replica) NotLeaderReply() *proto.Message {
	rep := proto.NewReply(proto.ReplyNotLeader)
	proto.SetLeaderHint(rep, uint32(r.LeaderHint()))
	return rep
}

// lastIndexLocked returns the index of the last log entry.
func (r *Replica) lastIndexLocked() uint32 {
	return r.base + uint32(len(r.log))
}

// termAtLocked returns the term of the entry at idx, where idx may also
// be the snapshot base. The second result is false when idx is below the
// snapshot or beyond the log.
func (r *Replica) termAtLocked(idx uint32) (uint32, bool) {
	switch {
	case idx == 0:
		return 0, true
	case idx == r.base:
		return r.baseTerm, true
	case idx < r.base || idx > r.lastIndexLocked():
		return 0, false
	}
	return r.log[idx-r.base-1].Term, true
}

// livePeers returns the group's live members other than this one, in pid
// order (host creation order — the deterministic iteration order every
// replication round uses).
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

// handleAppend is the follower side of log replication: term and
// log-consistency checks, conflict truncation, append, and apply of
// newly committed entries. An empty-entry append is the leader's
// announcement/heartbeat.
func (r *Replica) handleAppend(p *kernel.Process, msg *proto.Message) *proto.Message {
	term, prevIdx, prevTerm := msg.F[0], msg.F[1], msg.F[2]
	commit, leader := msg.F[3], kernel.PID(msg.F[4])

	r.mu.Lock()
	if term < r.term {
		rep := proto.NewReply(proto.ReplyNoPermission)
		rep.F[0] = r.term
		r.mu.Unlock()
		return rep
	}
	if term > r.term {
		r.term = term
		r.votedFor = kernel.NilPID
	}
	r.role = RoleFollower
	r.leader = leader
	if prevIdx > r.lastIndexLocked() {
		rep := proto.NewReply(proto.ReplyRetry)
		rep.F[0], rep.F[1] = r.term, r.lastIndexLocked()
		r.mu.Unlock()
		return rep
	}
	if prevIdx > r.base {
		if t, ok := r.termAtLocked(prevIdx); !ok || t != prevTerm {
			rep := proto.NewReply(proto.ReplyRetry)
			rep.F[0], rep.F[1] = r.term, prevIdx-1
			r.mu.Unlock()
			return rep
		}
	}
	ents, err := decodeEntries(msg.Segment, int(msg.F[5]))
	if err != nil {
		rep := proto.NewReply(proto.ReplyBadArgs)
		rep.F[0] = r.term
		r.mu.Unlock()
		return rep
	}
	idx := prevIdx
	for _, e := range ents {
		idx++
		if idx <= r.base {
			continue // already covered by the installed snapshot
		}
		if idx <= r.lastIndexLocked() {
			if t, _ := r.termAtLocked(idx); t != e.Term {
				// Conflict: discard the divergent suffix, keep the new entry.
				r.log = append(r.log[:idx-r.base-1], e)
			}
			continue
		}
		r.log = append(r.log, e)
	}
	if commit > r.lastIndexLocked() {
		commit = r.lastIndexLocked()
	}
	if commit > r.commit {
		r.commit = commit
	}
	toApply := r.takeUnappliedLocked()
	rep := proto.NewReply(proto.ReplyOK)
	rep.F[0], rep.F[1] = r.term, r.lastIndexLocked()
	r.mu.Unlock()

	for _, e := range toApply {
		r.svc.Apply(p, e.Cmd)
	}
	return rep
}

// takeUnappliedLocked advances applied to commit and returns copies of
// the entries to run through the state machine (outside the lock).
func (r *Replica) takeUnappliedLocked() []entry {
	if r.applied >= r.commit {
		return nil
	}
	ents := make([]entry, 0, r.commit-r.applied)
	for idx := r.applied + 1; idx <= r.commit; idx++ {
		ents = append(ents, r.log[idx-r.base-1])
	}
	r.applied = r.commit
	return ents
}

// handleVote is the peer side of an election round: grant iff the
// candidate's term is current, this member has not voted for someone
// else this term, and the candidate's log is at least as up to date.
func (r *Replica) handleVote(msg *proto.Message) *proto.Message {
	term, cand := msg.F[0], kernel.PID(msg.F[1])
	lastIdx, lastTerm := msg.F[2], msg.F[3]
	r.mu.Lock()
	defer r.mu.Unlock()
	if term < r.term {
		rep := proto.NewReply(proto.ReplyNoPermission)
		rep.F[0] = r.term
		return rep
	}
	if term > r.term {
		r.term = term
		r.votedFor = kernel.NilPID
		r.role = RoleFollower
		r.leader = kernel.NilPID
	}
	myIdx := r.lastIndexLocked()
	myTerm, _ := r.termAtLocked(myIdx)
	upToDate := lastTerm > myTerm || (lastTerm == myTerm && lastIdx >= myIdx)
	if (r.votedFor == kernel.NilPID || r.votedFor == cand) && upToDate {
		r.votedFor = cand
		rep := proto.NewReply(proto.ReplyOK)
		rep.F[0] = r.term
		return rep
	}
	rep := proto.NewReply(proto.ReplyNoPermission)
	rep.F[0] = r.term
	return rep
}

// handleElect runs one synchronous election round on the monitor's
// instruction: bump the term, self-vote, request votes from live peers
// in member order, and on majority announce leadership with an empty
// append. Reply OK (won, F[0]=term) or Retry (lost).
func (r *Replica) handleElect(p *kernel.Process) *proto.Message {
	r.mu.Lock()
	r.term++
	r.votedFor = r.proc.PID()
	r.role = RoleCandidate
	term := r.term
	lastIdx := r.lastIndexLocked()
	lastTerm, _ := r.termAtLocked(lastIdx)
	total := r.total
	r.mu.Unlock()

	votes := 1
	for _, pid := range r.livePeers() {
		req := &proto.Message{Op: proto.OpReplicaVote}
		req.F[0], req.F[1] = term, uint32(r.proc.PID())
		req.F[2], req.F[3] = lastIdx, lastTerm
		rep, err := p.Send(req, pid)
		if err != nil {
			continue
		}
		if rep.Op == proto.ReplyOK {
			votes++
		} else if rep.F[0] > term {
			r.stepDown(rep.F[0])
			lost := proto.NewReply(proto.ReplyRetry)
			lost.F[0] = rep.F[0]
			return lost
		}
	}
	if votes*2 <= total {
		r.mu.Lock()
		r.role = RoleFollower
		r.mu.Unlock()
		lost := proto.NewReply(proto.ReplyRetry)
		lost.F[0] = term
		return lost
	}
	r.mu.Lock()
	won := r.term == term // a concurrent higher term would have deposed us
	if won {
		r.role = RoleLeader
		r.leader = r.proc.PID()
		r.match = make(map[kernel.PID]uint32)
	}
	r.mu.Unlock()
	if !won {
		lost := proto.NewReply(proto.ReplyRetry)
		lost.F[0] = term
		return lost
	}
	// Announce: an empty append brings live followers to this term, hands
	// them the leader pid, and syncs their commit state.
	for _, pid := range r.livePeers() {
		_ = r.replicateTo(p, pid, 0)
	}
	rep := proto.NewReply(proto.ReplyOK)
	rep.F[0], rep.F[1] = term, uint32(r.proc.PID())
	return rep
}

// replicateTo brings one follower's log up to the leader's last index:
// optimistic append from the recorded match point, walking back on
// conflict replies, installing a snapshot when the follower needs
// entries below the leader's snapshot base. commitOverride, when
// non-zero, is the commit index stamped on the append (the propose path
// commits the new entry on delivery; see PROTOCOL.md §11.3).
func (r *Replica) replicateTo(p *kernel.Process, pid kernel.PID, commitOverride uint32) error {
	for tries := 0; tries < 64; tries++ {
		r.mu.Lock()
		if r.role != RoleLeader {
			r.mu.Unlock()
			return proto.ErrNotLeader
		}
		last := r.lastIndexLocked()
		prev := last
		if m, ok := r.match[pid]; ok && m < prev {
			prev = m
		}
		if prev < r.base {
			r.mu.Unlock()
			return r.installSnapshot(p, pid)
		}
		prevTerm, _ := r.termAtLocked(prev)
		ents := make([]entry, last-prev)
		copy(ents, r.log[prev-r.base:])
		term, commit := r.term, r.commit
		if commitOverride > commit {
			commit = commitOverride
		}
		r.mu.Unlock()

		req := &proto.Message{Op: proto.OpReplicaAppend, Segment: encodeEntries(ents)}
		req.F[0], req.F[1], req.F[2] = term, prev, prevTerm
		req.F[3], req.F[4], req.F[5] = commit, uint32(r.proc.PID()), uint32(len(ents))
		rep, err := p.Send(req, pid)
		if err != nil {
			return err
		}
		switch rep.Op {
		case proto.ReplyOK:
			r.mu.Lock()
			r.match[pid] = rep.F[1]
			r.mu.Unlock()
			return nil
		case proto.ReplyRetry:
			hint := rep.F[1]
			if hint >= prev && prev > 0 {
				hint = prev - 1
			}
			r.mu.Lock()
			r.match[pid] = hint
			r.mu.Unlock()
		default: // stale term
			if rep.F[0] > term {
				r.stepDown(rep.F[0])
			}
			return proto.ErrNotLeader
		}
	}
	return fmt.Errorf("replica: could not converge follower %v", pid)
}

// Propose replicates cmd as the next log entry and applies it once a
// majority of the full membership holds it. The reply is the state
// machine's apply result. Replication is synchronous and in member
// order, so the round is deterministic. Callers must be running on the
// member's own process (inside its handler).
func (r *Replica) Propose(p *kernel.Process, cmd []byte) (*proto.Message, error) {
	r.mu.Lock()
	if r.role != RoleLeader {
		r.mu.Unlock()
		return nil, proto.ErrNotLeader
	}
	r.log = append(r.log, entry{Term: r.term, Cmd: cmd})
	idx := r.lastIndexLocked()
	total := r.total
	r.mu.Unlock()

	acks := 1
	for _, pid := range r.livePeers() {
		if err := r.replicateTo(p, pid, idx); err == nil {
			acks++
		} else if err == proto.ErrNotLeader {
			return nil, proto.ErrNotLeader
		}
	}
	if acks*2 <= total {
		// No quorum: the entry stays in the log uncommitted; a later
		// round (or a new leader) settles it. The client sees a
		// retryable timeout.
		return nil, fmt.Errorf("%w: replication quorum lost (%d/%d)", proto.ErrTimeout, acks, total)
	}
	r.mu.Lock()
	if idx > r.commit {
		r.commit = idx
	}
	toApply := r.takeUnappliedLocked()
	r.mu.Unlock()
	var reply *proto.Message
	for _, e := range toApply {
		reply = r.svc.Apply(p, e.Cmd)
	}
	if reply == nil {
		reply = proto.NewReply(proto.ReplyOK)
	}
	return reply, nil
}

// handlePropose serves an out-of-band proposal (boot seeding, monitor
// traffic). Non-leaders redirect with a leader hint.
func (r *Replica) handlePropose(p *kernel.Process, msg *proto.Message) *proto.Message {
	reply, err := r.Propose(p, msg.Segment)
	if err == proto.ErrNotLeader {
		return r.NotLeaderReply()
	}
	if err != nil {
		return proto.NewReply(proto.ErrorReply(err))
	}
	return reply
}

// handleSync serves the monitor's instruction to bring a rejoined member
// up to date: install a snapshot of the applied state, then append any
// tail entries.
func (r *Replica) handleSync(p *kernel.Process, msg *proto.Message) *proto.Message {
	r.mu.Lock()
	leading := r.role == RoleLeader
	r.mu.Unlock()
	if !leading {
		return r.NotLeaderReply()
	}
	pid := kernel.PID(msg.F[1])
	if err := r.installSnapshot(p, pid); err != nil {
		return proto.NewReply(proto.ErrorReply(err))
	}
	if err := r.replicateTo(p, pid, 0); err != nil {
		return proto.NewReply(proto.ErrorReply(err))
	}
	return proto.NewReply(proto.ReplyOK)
}

// installSnapshot ships the applied state machine to pid in chunks.
func (r *Replica) installSnapshot(p *kernel.Process, pid kernel.PID) error {
	r.mu.Lock()
	term := r.term
	included := r.applied
	includedTerm, _ := r.termAtLocked(included)
	r.mu.Unlock()
	data := r.svc.Snapshot()
	off := 0
	for {
		n := len(data) - off
		if n > snapChunk {
			n = snapChunk
		}
		req := &proto.Message{Op: proto.OpReplicaSnapshot, Segment: data[off : off+n]}
		req.F[0], req.F[1], req.F[2] = term, included, includedTerm
		req.F[3], req.F[4], req.F[5] = uint32(len(data)), uint32(r.proc.PID()), uint32(off)
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
		off += n
		if off >= len(data) {
			break
		}
	}
	r.mu.Lock()
	if r.match[pid] < included {
		r.match[pid] = included
	}
	r.mu.Unlock()
	return nil
}

// handleSnapshot is the follower side of snapshot install: accumulate
// chunks and, on the last one, restore the state machine and reset the
// log to the snapshot point.
func (r *Replica) handleSnapshot(p *kernel.Process, msg *proto.Message) *proto.Message {
	term, included, includedTerm := msg.F[0], msg.F[1], msg.F[2]
	total, leader, off := msg.F[3], kernel.PID(msg.F[4]), msg.F[5]
	r.mu.Lock()
	if term < r.term {
		rep := proto.NewReply(proto.ReplyNoPermission)
		rep.F[0] = r.term
		r.mu.Unlock()
		return rep
	}
	if term > r.term {
		r.term = term
		r.votedFor = kernel.NilPID
	}
	r.role = RoleFollower
	r.leader = leader
	if off == 0 {
		r.snapBuf = r.snapBuf[:0]
	}
	r.snapBuf = append(r.snapBuf, msg.Segment...)
	done := uint32(len(r.snapBuf)) >= total
	var data []byte
	if done {
		data = r.snapBuf
		r.snapBuf = nil
	}
	r.mu.Unlock()

	if done {
		if err := r.svc.Restore(p, data); err != nil {
			return proto.NewReply(proto.ErrorReply(err))
		}
		r.mu.Lock()
		r.base, r.baseTerm = included, includedTerm
		r.log = nil
		r.commit, r.applied = included, included
		r.mu.Unlock()
	}
	rep := proto.NewReply(proto.ReplyOK)
	rep.F[0] = term
	return rep
}

// handleStatus reports the member's consensus state for diagnostics.
func (r *Replica) handleStatus() *proto.Message {
	st := r.status()
	rep := proto.NewReply(proto.ReplyOK)
	rep.F[0], rep.F[1], rep.F[2] = st.Term, uint32(st.Role), st.Commit
	rep.F[3], rep.F[4] = st.LastIdx, uint32(st.Leader)
	return rep
}

// status is the member's consensus state, read without a transaction.
func (r *Replica) status() Status {
	r.mu.Lock()
	defer r.mu.Unlock()
	return Status{Term: r.term, Role: r.role, Commit: r.commit, LastIdx: r.lastIndexLocked(), Leader: r.leader}
}

// Status is a member's consensus state, as OpReplicaStatus reports it.
type Status struct {
	Term    uint32
	Role    Role
	Commit  uint32
	LastIdx uint32
	Leader  kernel.PID
}
