package kernel

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/metrics"
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

// fanIn is where the clones of one group transaction complete; it lands
// once, in the sender's own record (Send, SendGroupAll) or the forwarded
// envelope (Forward), so a straggler only ever touches the fan-in. First
// reply: the first success lands, a failure only once every delivered
// clone has failed. Every reply: the latest reply time lands once every
// delivered clone has completed, ok counting the successes.
type fanIn struct {
	into  *envelope // where the outcome lands; nil once it has
	every bool
	mu    sync.Mutex
	open  int        // clones that may still complete, plus the delivery loop's hold
	ok    int        // clones that replied
	out   replyEvent // what lands
}

func (f *fanIn) land(ev replyEvent) {
	f.mu.Lock()
	if ev.err == nil {
		f.ok++
	}
	switch {
	case f.every:
		f.out.at = max(f.out.at, ev.at)
	case f.ok == 0 || ev.err == nil && f.ok == 1:
		f.out = ev // the first success, or the latest failure before one
	}
	f.settle(1)
}

// settle drops n references, lands the outcome the first time its rule
// is met, and unlocks f.
func (f *fanIn) settle(n int) {
	f.open -= n
	into, out := f.into, f.out
	if into == nil || f.open > 0 && (f.every || f.ok == 0) {
		f.mu.Unlock()
		return
	}
	f.into = nil
	f.mu.Unlock()
	into.land(out)
}

// multicast is the delivery loop of every group transaction: one frame
// carries msg to gid's members under span sp, and each live, reachable
// member, in pid order, is delivered its own clone of f.into, completing
// into f. It returns how many it delivered; with none, f never lands. A
// barrier with nobody to wait for sends no frame; a forward (fwd) ends
// its span at the frame and passes its clones on as a handler's are.
func (p *Process) multicast(msg *proto.Message, gid PID, sp trace.SpanID, f *fanIn, fwd bool) (int, error) {
	k := p.host.kernel
	members, err := k.GroupMembers(gid)
	if err != nil || len(members) == 0 && f.every {
		return 0, err
	}
	now := p.clock.Now()
	mcast := k.net.Multicast(p.host.id, msg.WireSize(), now)
	tr := k.Tracer()
	tr.Wire(sp, "multicast", now, mcast, msg.WireSize(), netsim.HopDetail{Packets: 1}, false, true)
	if fwd {
		tr.End(sp, now+mcast)
	}
	// A reference per member and the loop's hold, so the count cannot drain
	// mid-loop; f.into is its sender's again once a clone completes it.
	f.open = len(members) + 1
	origin, src, dst := f.into.origin, f.into.moveSrc, f.into.moveDst
	n := 0
	for _, m := range members {
		target, _ := k.findProcess(m)
		if target == nil || !k.net.Reachable(p.host.id, m.Host()) {
			continue
		}
		arrival := now + mcast
		if m.Host() == p.host.id {
			arrival = now + k.model.LocalHop(msg.WireSize())
		}
		clone := &envelope{origin: origin, msg: msg.Clone(), arrival: arrival, moveSrc: src, moveDst: dst, span: sp, fan: f}
		if fwd && p.pass(target, clone) || !fwd && target.deliver(clone) {
			n++
		}
	}
	if n > 0 {
		f.mu.Lock()
		f.settle(len(members) + 1 - n)
	}
	return n, nil
}

// forwardGroup forwards a transaction to every member of a group, the
// first to reply completing it: a context implemented transparently by a
// group of servers working in cooperation (§7).
func (p *Process) forwardGroup(env *envelope, msg *proto.Message, gid PID) error {
	tr := p.Tracer()
	var sp trace.SpanID
	if tr != nil {
		sp = tr.StartGroup(p.spanUnder(env), trace.KindForward, opTo(msg.Op, " -> ", gid), p.clock.Now(), p.TraceID())
	}
	n, err := p.multicast(msg, gid, sp, &fanIn{into: env}, true)
	if err == nil && n == 0 { // sp ended at the frame; the root send span is classified
		err = fmt.Errorf("forward to group %v: no reachable members: %w", gid, ErrNonexistentProcess)
	}
	if err != nil {
		tr.Fail(sp, p.clock.Now(), FailureClass(err))
		env.fail(err)
		return err
	}
	return nil
}

// groupSend starts a Send to a group: its span, sep marking a barrier,
// and the sender's record, which the clones are made from.
func (p *Process) groupSend(msg *proto.Message, sep string, gid PID, moveSrc, moveDst []byte) (*trace.Tracer, trace.SpanID, *record) {
	tr := p.host.kernel.Tracer()
	var sp trace.SpanID
	if tr != nil {
		sp = tr.StartGroup(p.CurrentSpan(), trace.KindSend, opTo(msg.Op, sep, gid), p.clock.Now(), p.TraceID())
	}
	return tr, sp, p.record(moveSrc, moveDst)
}

// sendGroup is Send to a group: each live member gets its own copy, all by
// one multicast frame, and the first reply unblocks the sender. SendMove
// counted it as a Send when reg is set; its end here takes it out of
// kernel_inflight, and a failure is counted by class (sendFailed).
func (p *Process) sendGroup(reg *metrics.Registry, msg *proto.Message, gid PID, moveSrc, moveDst []byte) (*proto.Message, error) {
	tr, sp, rec := p.groupSend(msg, " -> ", gid, moveSrc, moveDst)
	defer p.finish(rec)
	n, err := p.multicast(msg, gid, sp, &fanIn{into: &rec.envelope}, false)
	timeout := p.host.kernel.model.RetransmitTimeout
	switch {
	case err != nil:
	case n == 0:
		p.clock.Advance(timeout)
		err = fmt.Errorf("%w: group %v has no reachable members", ErrNonexistentProcess, gid)
	default:
		ev := rec.await()
		if ev.err == nil {
			p.clock.Observe(ev.at)
			tr.End(sp, p.clock.Now())
			if reg != nil {
				p.host.kernel.ipc.inflight.Add(-1)
			}
			return ev.msg, nil
		}
		p.clock.Advance(timeout)
		err = fmt.Errorf("send to group %v: %w", gid, ev.err)
	}
	return p.sendFailed(reg, sp, err)
}

// SendGroupAll multicasts msg to every member of a group and waits for
// EVERY delivered reply, observing the latest: a barrier. When it returns,
// every member alive and reachable at send time has processed and answered
// the message, so a redefinition commits only after every reachable lease
// holder has dropped the name; unreachable holders, and members that die
// mid-transaction, are bounded by their lease expiry instead (PROTOCOL.md
// §13). It returns how many replied: none, without error, if nobody could.
func (p *Process) SendGroupAll(msg *proto.Message, gid PID) (int, error) {
	tr, sp, rec := p.groupSend(msg, " ->* ", gid, nil, nil)
	defer p.finish(rec)
	f := &fanIn{into: &rec.envelope, every: true}
	n, err := p.multicast(msg, gid, sp, f, false)
	// Classified rather than plain-ended: a group send span with no reply
	// in its subtree would trip the send-termination invariant (check.go #3).
	class := "no-holders"
	switch {
	case err != nil:
		class = FailureClass(err)
	case n > 0:
		p.clock.Observe(rec.await().at)
	}
	if f.ok > 0 {
		class = ""
	}
	tr.Fail(sp, p.clock.Now(), class)
	return f.ok, err
}
