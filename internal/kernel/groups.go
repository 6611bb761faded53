package kernel

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/netsim"
	"repro/internal/proto"
	"repro/internal/trace"
)

// group is a process group addressable by a group pid. Groups implement
// the one-to-many Send the paper's §7 proposes for transparent
// multi-server contexts: a Send to a group delivers one multicast frame to
// every member, and the sender unblocks on the first reply.
type group struct {
	mu      sync.Mutex
	members []PID // ascending
}

// groupChunk is how many groups one chunk of the kernel's group table
// holds. Group number n (groupPID(n) is its id) lives at index n-1 of
// the table, chunk (n-1)/groupChunk. A chunk never moves once made, so a
// *group stays valid, and is locked, outside k.mu.
const groupChunk = 1024

// CreateGroup allocates a new, empty process group and returns its group
// identifier, which can be used anywhere a pid can. Groups live as long
// as the kernel, so an identifier is never issued twice: when all
// maxGroups are out, CreateGroup fails with ErrNoGroupID.
func (k *Kernel) CreateGroup() (PID, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.nextGrp == maxGroups {
		return NilPID, fmt.Errorf("%w: all %d are in use", ErrNoGroupID, maxGroups)
	}
	// Chunks are made on demand, by index: a chunk no group was created
	// in stays nil, and group treats its numbers as never issued.
	c := int(k.nextGrp / groupChunk)
	if c >= len(k.groups) {
		k.groups = append(k.groups, make([]*[groupChunk]group, c+1-len(k.groups))...)
	}
	if k.groups[c] == nil {
		k.groups[c] = new([groupChunk]group)
	}
	k.nextGrp++
	return groupPID(k.nextGrp), nil
}

func (k *Kernel) group(gid PID) (*group, error) {
	if !gid.IsGroup() {
		return nil, fmt.Errorf("%w: %v is not a group id", ErrNoSuchGroup, gid)
	}
	i := gid.groupNumber() - 1 // number 0 is nobody's: it wraps past nextGrp
	k.mu.Lock()
	defer k.mu.Unlock()
	if i >= k.nextGrp || k.groups[i/groupChunk] == nil {
		return nil, fmt.Errorf("%w: %v", ErrNoSuchGroup, gid)
	}
	return &k.groups[i/groupChunk][i%groupChunk], nil
}

// JoinGroup adds member to the group; joining twice is joining once.
func (k *Kernel) JoinGroup(gid, member PID) error {
	g, err := k.group(gid)
	if err != nil {
		return err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if i, found := slices.BinarySearch(g.members, member); !found {
		g.members = slices.Insert(g.members, i, member)
	}
	return nil
}

// LeaveGroup removes member from the group, if it is one.
func (k *Kernel) LeaveGroup(gid, member PID) error {
	g, err := k.group(gid)
	if err != nil {
		return err
	}
	g.leave(member)
	return nil
}

func (g *group) leave(member PID) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if i, found := slices.BinarySearch(g.members, member); found {
		g.members = slices.Delete(g.members, i, i+1)
	}
}

// GroupMembers returns the group's members in ascending pid order. The
// slice is the caller's own: group sends deliver after the group's lock
// is released, and a served member's handler may join or leave the very
// group being iterated.
func (k *Kernel) GroupMembers(gid PID) ([]PID, error) {
	g, err := k.group(gid)
	if err != nil {
		return nil, err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return slices.Clone(g.members), nil
}

// leaveAllGroups removes a destroyed process from every group: one pass
// over the table as it stood when the process died.
func (k *Kernel) leaveAllGroups(member PID) {
	k.mu.Lock()
	chunks := k.groups
	k.mu.Unlock()
	for _, c := range chunks {
		if c == nil {
			continue
		}
		for i := range c {
			c[i].leave(member)
		}
	}
}

// forwardGroup forwards a transaction to every member of a group with one
// multicast frame; the first member to reply completes the original
// sender's transaction, which is how a context can be implemented
// transparently by a group of servers working in cooperation (§7).
func (p *Process) forwardGroup(env *envelope, msg *proto.Message, gid PID, sp trace.SpanID) error {
	k := p.host.kernel
	tr := k.Tracer()
	tr.SetGroup(sp)
	// The clones below complete through env's record (or channel), and a
	// straggling member may do so after the sender read the winning event
	// — so the sender must not reuse the record. Set before any completion
	// can land; the sender reads the flag only after one has.
	env.shared = true
	members, err := k.GroupMembers(gid)
	if err != nil {
		tr.Fail(sp, p.clock.Now(), FailureClass(err))
		env.fail(err)
		return err
	}
	now := p.clock.Now()
	mcast := k.net.Multicast(p.host.id, msg.WireSize(), now)
	tr.Wire(sp, "multicast", now, mcast, msg.WireSize(), netsim.HopDetail{Packets: 1}, false, true)
	// End before delivering clones: a member may serve and unblock the
	// original sender before this goroutine runs again. A zero-delivery
	// failure below is classified on the root send span.
	tr.End(sp, now+mcast)
	delivered := 0
	for _, m := range members {
		target, _ := k.findProcess(m)
		if target == nil || !k.net.Reachable(p.host.id, m.Host()) {
			continue
		}
		arrival := now + mcast
		if m.Host() == p.host.id {
			arrival = now + k.model.LocalHop(msg.WireSize())
		}
		clone := &envelope{
			origin:  env.origin,
			msg:     msg.Clone(),
			arrival: arrival,
			moveSrc: env.moveSrc,
			moveDst: env.moveDst,
			span:    sp,
			rec:     env.rec, // first reply wins
			replyCh: env.replyCh,
		}
		if p.pass(target, clone) {
			delivered++
		}
	}
	if delivered == 0 {
		err := fmt.Errorf("forward to group %v: no reachable members: %w", gid, ErrNonexistentProcess)
		env.fail(err)
		return err
	}
	return nil
}

// sendGroup implements Send to a group id: each live member receives its
// own copy of the message (delivered by a single multicast frame on the
// wire), and the first reply unblocks the sender; later replies are
// discarded.
func (p *Process) sendGroup(msg *proto.Message, gid PID, moveSrc, moveDst []byte) (*proto.Message, error) {
	k := p.host.kernel
	tr := k.Tracer()
	var sp trace.SpanID
	if tr != nil {
		sp = tr.StartName(p.CurrentSpan(), trace.KindSend, opTo(msg.Op, " -> ", gid), p.clock.Now(), p.TraceID())
		tr.SetGroup(sp)
	}
	members, err := k.GroupMembers(gid)
	if err != nil {
		tr.Fail(sp, p.clock.Now(), FailureClass(err))
		return nil, err
	}
	// One multicast frame serves every remote member.
	now := p.clock.Now()
	mcast := k.net.Multicast(p.host.id, msg.WireSize(), now)
	tr.Wire(sp, "multicast", now, mcast, msg.WireSize(), netsim.HopDetail{Packets: 1}, false, true)

	replyCh := make(chan replyEvent, len(members)+1)
	delivered := 0
	for _, m := range members {
		target, _ := k.findProcess(m)
		if target == nil {
			continue
		}
		if !k.net.Reachable(p.host.id, m.Host()) {
			continue
		}
		arrival := now + mcast
		if m.Host() == p.host.id {
			arrival = now + k.model.LocalHop(msg.WireSize())
		}
		env := &envelope{
			origin:  p.pid,
			msg:     msg.Clone(),
			arrival: arrival,
			replyCh: replyCh,
			moveSrc: moveSrc,
			moveDst: moveDst,
			span:    sp,
		}
		if target.deliver(env) {
			delivered++
		}
	}
	if delivered == 0 {
		p.clock.Advance(k.model.RetransmitTimeout)
		err := fmt.Errorf("%w: group %v has no reachable members", ErrNonexistentProcess, gid)
		tr.Fail(sp, p.clock.Now(), FailureClass(err))
		return nil, err
	}
	var lastErr error
	for i := 0; i < delivered; i++ {
		ev := <-replyCh
		if ev.err == nil {
			p.clock.Observe(ev.at)
			tr.End(sp, p.clock.Now())
			return ev.msg, nil
		}
		lastErr = ev.err
	}
	p.clock.Advance(k.model.RetransmitTimeout)
	err = fmt.Errorf("send to group %v: %w", gid, lastErr)
	tr.Fail(sp, p.clock.Now(), FailureClass(err))
	return nil, err
}

// SendGroupAll multicasts msg to every member of a group and waits for
// EVERY delivered reply, observing the latest reply time. Where sendGroup
// is first-reply-wins (a query answered by whichever member is fastest),
// SendGroupAll is a barrier: when it returns, every member that was alive
// and reachable at send time has received, processed, and replied to the
// message. Lease invalidation uses it so that a name redefinition commits
// only after all reachable cache holders have dropped the stale entry;
// unreachable holders are skipped and bounded by their lease expiry
// instead (PROTOCOL.md §13). Returns the number of members that replied.
// A group with no reachable members is not an error — there is simply
// nobody to wait for.
func (p *Process) SendGroupAll(msg *proto.Message, gid PID) (int, error) {
	k := p.host.kernel
	tr := k.Tracer()
	var sp trace.SpanID
	if tr != nil {
		sp = tr.StartName(p.CurrentSpan(), trace.KindSend, opTo(msg.Op, " ->* ", gid), p.clock.Now(), p.TraceID())
		tr.SetGroup(sp)
	}
	members, err := k.GroupMembers(gid)
	if err != nil {
		tr.Fail(sp, p.clock.Now(), FailureClass(err))
		return 0, err
	}
	if len(members) == 0 {
		// Classified rather than plain-ended: a group send span with no
		// reply in its subtree would otherwise trip the send-termination
		// invariant (check.go #3).
		tr.Fail(sp, p.clock.Now(), "no-holders")
		return 0, nil
	}
	now := p.clock.Now()
	mcast := k.net.Multicast(p.host.id, msg.WireSize(), now)
	tr.Wire(sp, "multicast", now, mcast, msg.WireSize(), netsim.HopDetail{Packets: 1}, false, true)

	replyCh := make(chan replyEvent, len(members)+1)
	delivered := 0
	for _, m := range members {
		target, _ := k.findProcess(m)
		if target == nil {
			continue
		}
		if !k.net.Reachable(p.host.id, m.Host()) {
			continue
		}
		arrival := now + mcast
		if m.Host() == p.host.id {
			arrival = now + k.model.LocalHop(msg.WireSize())
		}
		env := &envelope{
			origin:  p.pid,
			msg:     msg.Clone(),
			arrival: arrival,
			replyCh: replyCh,
			span:    sp,
		}
		if target.deliver(env) {
			delivered++
		}
	}
	replies := 0
	for i := 0; i < delivered; i++ {
		ev := <-replyCh
		if ev.err == nil {
			p.clock.Observe(ev.at)
			replies++
		}
	}
	// Members that died mid-transaction surface as errored events; they
	// are equivalent to unreachable members — bounded by lease expiry.
	if replies == 0 {
		tr.Fail(sp, p.clock.Now(), "no-holders")
	} else {
		tr.End(sp, p.clock.Now())
	}
	return replies, nil
}
