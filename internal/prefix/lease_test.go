package prefix

import (
	"fmt"
	"testing"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/netsim"
	"repro/internal/popgen"
	"repro/internal/proto"
	"repro/internal/raceflag"
	"repro/internal/vtime"
)

// newLeaseRig boots a lease-enabled prefix server, a toy target server,
// a client process, and a callback process that acknowledges every
// OpCacheInvalidate it receives and records the invalidated names.
func newLeaseRig(t *testing.T) (*Server, *kernel.Process, *kernel.Process, chan string) {
	t.Helper()
	k := kernel.New(netsim.New(vtime.DefaultModel(), 1))
	ws := k.NewHost("ws")
	srvHost := k.NewHost("srv")

	target := serveTarget(t, srvHost, "target", nil)
	invalidated := make(chan string, 16)
	callback, err := ws.NewProcess("callback")
	if err != nil {
		t.Fatal(err)
	}
	callback.Serve(func(msg *proto.Message, from kernel.PID) {
		if name, _, err := proto.CacheInvalidate(msg); err == nil {
			invalidated <- name
		}
		_ = callback.Reply(proto.NewReply(proto.ReplyOK), from)
	})

	ps, err := Start(ws, "mann", WithLease(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	client, err := ws.NewProcess("client")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ps.Proc().Destroy()
		target.Destroy()
		callback.Destroy()
		client.Destroy()
	})
	if err := ps.Define("tgt", core.ContextPair{Server: target.PID(), Ctx: 42}); err != nil {
		t.Fatal(err)
	}
	return ps, client, callback, invalidated
}

// leaseMap sends a bare-prefix MapContext with a lease request and
// returns the reply.
func leaseMap(t *testing.T, client *kernel.Process, ps *Server, cb kernel.PID, name string) *proto.Message {
	t.Helper()
	req := &proto.Message{Op: proto.OpMapContext}
	proto.SetCSName(req, 0, name)
	proto.SetLeaseRequest(req, uint32(cb))
	reply, err := client.Send(req, ps.PID())
	if err != nil {
		t.Fatal(err)
	}
	return reply
}

// TestLeaseGrantAndInvalidate walks the whole holder-group life cycle:
// the first grant creating the group in the binding's slot and the next
// one finding it there, deletion parking the group in the orphan map
// with the callback barrier reaching the holder, and redefinition
// re-adopting the orphan group so the re-grant reuses it.
func TestLeaseGrantAndInvalidate(t *testing.T) {
	ps, client, callback, invalidated := newLeaseRig(t)

	reply := leaseMap(t, client, ps, callback.PID(), "[tgt]")
	if reply.Op != proto.ReplyOK {
		t.Fatalf("MapContext ret %v", reply.Op)
	}
	if _, ok := proto.LeaseGrant(reply); !ok {
		t.Fatal("reply not lease-stamped")
	}
	// Second grant: the holder group is in the slot already.
	leaseMap(t, client, ps, callback.PID(), "[tgt]")
	if st := ps.LeaseStats(); st.Grants != 2 {
		t.Fatalf("grants = %d, want 2", st.Grants)
	}

	// Deleting the binding must run the callback barrier before the
	// reply: the holder hears the invalidation, and the group is parked
	// for the name's next life.
	del := &proto.Message{Op: proto.OpDeleteContextName}
	proto.SetCSName(del, 0, "tgt")
	if reply, err := client.Send(del, ps.PID()); err != nil || reply.Op != proto.ReplyOK {
		t.Fatalf("delete: op=%v err=%v", reply.Op, err)
	}
	select {
	case name := <-invalidated:
		if name != "tgt" {
			t.Fatalf("invalidated %q, want tgt", name)
		}
	default:
		t.Fatal("holder never heard the invalidation")
	}
	st := ps.LeaseStats()
	if st.Invalidations == 0 || st.HoldersNotified == 0 {
		t.Fatalf("lease stats after delete: %+v", st)
	}

	// Redefine and re-grant: the parked group is re-adopted, so the
	// holder (still a member) hears the next invalidation too.
	add := &proto.Message{Op: proto.OpAddContextName}
	proto.SetCSName(add, 0, "tgt")
	proto.SetAddContextTarget(add, uint32(ps.PID()), 7)
	if reply, err := client.Send(add, ps.PID()); err != nil || reply.Op != proto.ReplyOK {
		t.Fatalf("add: op=%v err=%v", reply.Op, err)
	}
	leaseMap(t, client, ps, callback.PID(), "[tgt]")
	del2 := &proto.Message{Op: proto.OpDeleteContextName}
	proto.SetCSName(del2, 0, "tgt")
	if _, err := client.Send(del2, ps.PID()); err != nil {
		t.Fatal(err)
	}
	select {
	case <-invalidated:
	default:
		t.Fatal("re-adopted group lost the holder")
	}
}

// TestNegativeLeaseOrphans pins the orphan path: a lease request for an
// undefined name is answered NotFound with a negative stamp, the holder
// group lives in the orphan map, and defining the name both adopts the
// group and fires the callback barrier at the negative holders.
func TestNegativeLeaseOrphans(t *testing.T) {
	ps, client, callback, invalidated := newLeaseRig(t)

	reply := leaseMap(t, client, ps, callback.PID(), "[ghost]")
	if reply.Op != proto.ReplyNotFound {
		t.Fatalf("undefined name ret %v", reply.Op)
	}
	if _, ok := proto.LeaseGrant(reply); !ok {
		t.Fatal("NotFound reply not negatively stamped")
	}
	// Second negative: the orphan group already exists.
	leaseMap(t, client, ps, callback.PID(), "[ghost]")
	if st := ps.LeaseStats(); st.Negatives != 2 {
		t.Fatalf("negatives = %d, want 2", st.Negatives)
	}

	add := &proto.Message{Op: proto.OpAddContextName}
	proto.SetCSName(add, 0, "ghost")
	proto.SetAddContextTarget(add, uint32(ps.PID()), 9)
	if reply, err := client.Send(add, ps.PID()); err != nil || reply.Op != proto.ReplyOK {
		t.Fatalf("define ghost: op=%v err=%v", reply.Op, err)
	}
	select {
	case name := <-invalidated:
		if name != "ghost" {
			t.Fatalf("invalidated %q, want ghost", name)
		}
	default:
		t.Fatal("negative holders never heard the definition")
	}

	// The adopted group serves the positive grant now.
	if reply := leaseMap(t, client, ps, callback.PID(), "[ghost]"); reply.Op != proto.ReplyOK {
		t.Fatalf("post-define MapContext ret %v", reply.Op)
	}
}

// TestInvalidateWithoutHolders covers the commit path for names nobody
// leased: the mutation commits, the invalidation counter ticks, and no
// callback is attempted.
func TestInvalidateWithoutHolders(t *testing.T) {
	ps, client, _, invalidated := newLeaseRig(t)
	del := &proto.Message{Op: proto.OpDeleteContextName}
	proto.SetCSName(del, 0, "tgt")
	if reply, err := client.Send(del, ps.PID()); err != nil || reply.Op != proto.ReplyOK {
		t.Fatalf("delete: op=%v err=%v", reply.Op, err)
	}
	if st := ps.LeaseStats(); st.Invalidations != 1 || st.HoldersNotified != 0 {
		t.Fatalf("lease stats: %+v", st)
	}
	select {
	case name := <-invalidated:
		t.Fatalf("unexpected callback for %q", name)
	default:
	}
}

// TestGrantLeavesIndexUntouched is the gate on the grant path's contract:
// stamping a lease finds the holder group through the slot read off the
// index node and writes nothing to the index, and the kernel group it
// joins is a record in a table, not a heap of maps. On a 10⁵-name table
// one Insert copies a spine of over a dozen allocations, which is what a
// name's first grant used to pay to note its new group on the node. The
// grant is answered in its request, so a first grant allocates twice
// (the name parsed off the request, the group's member slice) and a
// repeat grant only the first.
func TestGrantLeavesIndexUntouched(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("AllocsPerRun counts the race detector's own allocations")
	}
	k := kernel.New(netsim.New(vtime.DefaultModel(), 1))
	proc, err := k.NewHost("ws").NewProcess("prefix")
	if err != nil {
		t.Fatal(err)
	}
	defer proc.Destroy()
	ps := New(proc, "mann", WithLease(time.Second))
	pop := popgen.NewPopulation(100_000, 0.99, 1)
	if err := ps.DefineAll(pop.Names, make([]core.ContextPair, len(pop.Names))); err != nil {
		t.Fatal(err)
	}

	const leased = 1000
	bare := make([]string, leased+1) // AllocsPerRun warms up with one extra run
	for i := range bare {
		bare[i] = Quote(pop.Names[i*97])
	}
	req := &proto.Message{}
	i := 0
	grant := func() {
		// Re-initialised per call: the last grant landed in it.
		*req = proto.Message{Op: proto.OpMapContext, Segment: req.Segment}
		proto.SetCSName(req, 0, bare[i%len(bare)])
		proto.SetLeaseRequest(req, uint32(proc.PID()))
		if reply := ps.handleCSName(proc, req, kernel.NilPID); reply != req || reply.Op != proto.ReplyOK {
			t.Fatalf("grant %d: reply %+v, not in its request", i, reply)
		}
		i++
	}
	first := testing.AllocsPerRun(leased, grant)
	repeat := testing.AllocsPerRun(leased, grant)
	if st := ps.LeaseStats(); st.Grants != 2*(leased+1) {
		t.Fatalf("grants = %d, want %d", st.Grants, 2*(leased+1))
	}
	e, _ := ps.index.Get(pop.Names[0])
	spine := testing.AllocsPerRun(100, func() { ps.index.Insert(pop.Names[0], e) })
	t.Logf("allocs: first grant %.1f, repeat grant %.1f, one Insert spine %.1f", first, repeat, spine)
	if first >= spine {
		t.Fatalf("a first grant allocates %.1f, an index Insert %.1f: the grant path writes the index", first, spine)
	}
	if first > 2 {
		t.Fatalf("a first grant allocates %.1f, want the parsed name and the member slice (2)", first)
	}
	if repeat > 1 {
		t.Fatalf("a repeat grant allocates %.1f, want the parsed name (1)", repeat)
	}
}

// TestHolderGroupsBeyond16Bits leases more names than a 16-bit group
// counter can tell apart, then deletes the first one leased: its holder
// must still be called back. The 65 537th kernel group used to get the
// first one's identifier and replace it with an empty group, so the
// invalidation reached nobody and only the lease's expiry bounded the
// stale entry.
func TestHolderGroupsBeyond16Bits(t *testing.T) {
	ps, client, callback, invalidated := newLeaseRig(t)
	names := make([]string, 1<<16+8)
	for i := range names {
		names[i] = fmt.Sprintf("n%d", i)
	}
	if err := ps.DefineAll(names, make([]core.ContextPair, len(names))); err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if reply := leaseMap(t, client, ps, callback.PID(), Quote(name)); reply.Op != proto.ReplyOK {
			t.Fatalf("lease %q: %v", name, reply.Op)
		}
	}
	del := &proto.Message{Op: proto.OpDeleteContextName}
	proto.SetCSName(del, 0, names[0])
	if reply, err := client.Send(del, ps.PID()); err != nil || reply.Op != proto.ReplyOK {
		t.Fatalf("delete: op=%v err=%v", reply.Op, err)
	}
	select {
	case name := <-invalidated:
		if name != names[0] {
			t.Fatalf("invalidated %q, want %q", name, names[0])
		}
	default:
		t.Fatalf("the holder of the first of %d leased names never heard its deletion", len(names))
	}
}

// TestGrantAfterDeleteJoinsTheNamesNextLife replays, one step at a time,
// a grant on one team worker racing a delete on another: resolution reads
// the binding's slot, the delete retires it, and only then does the grant
// look for the holder group. The holder must land where the name's next
// change will find it — parked with the name while it is unbound, in the
// new binding's slot once it is bound again — never in the dead slot.
func TestGrantAfterDeleteJoinsTheNamesNextLife(t *testing.T) {
	ps, client, callback, invalidated := newLeaseRig(t)
	send := func(op proto.Code, name string) {
		t.Helper()
		msg := &proto.Message{Op: op}
		proto.SetCSName(msg, 0, name)
		if op == proto.OpAddContextName {
			proto.SetAddContextTarget(msg, uint32(ps.PID()), 7)
		}
		if reply, err := client.Send(msg, ps.PID()); err != nil || reply.Op != proto.ReplyOK {
			t.Fatalf("%v %q: op=%v err=%v", op, name, reply.Op, err)
		}
	}
	lateGrant := func(name string, slot uint32) {
		ps.stampLease(client, core.OkReply(), name, callback.PID(), false, slot)
	}
	heard := func(when string) {
		t.Helper()
		select {
		case <-invalidated:
		default:
			t.Fatalf("%s: the late holder was not called back", when)
		}
	}

	stale, _ := ps.index.Get("tgt")
	send(proto.OpDeleteContextName, "tgt") // unleased: nothing to park, slot retired
	lateGrant("tgt", stale.slot)
	send(proto.OpAddContextName, "tgt") // adopts the parked group and invalidates it
	heard("grant between delete and redefine")

	send(proto.OpAddContextName, "late")
	stale, _ = ps.index.Get("late")
	send(proto.OpDeleteContextName, "late")
	send(proto.OpAddContextName, "late")
	lateGrant("late", stale.slot)
	if live, _ := ps.index.Get("late"); live.slot == stale.slot {
		t.Fatal("a redefinition reused its predecessor's slot")
	}
	send(proto.OpDeleteContextName, "late")
	heard("grant after delete and redefine")
}

// TestTableEntrySize pins the value nametree's TestNodeSizeClass stands
// in for: a larger entry would move every index node up a size class.
func TestTableEntrySize(t *testing.T) {
	if sz := unsafe.Sizeof(tableEntry{}); sz != 16 {
		t.Fatalf("tableEntry is %d bytes, want 16", sz)
	}
}
