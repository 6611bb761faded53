package prefix

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/proto"
	"repro/internal/vtime"
)

// The prefix server's recovery behaviour for dynamic bindings: a stale
// registration pointing at a dead process gets a bounded-time failure
// (no forward into a dead transaction), and a resolution that moves to a
// different pid is counted as a §4.2 rebind. Both are counted in the
// registry alone.

// recoveries reads ps's prefix_<name>_total series from a snapshot of
// reg.
func recoveries(reg *metrics.Registry, ps *Server, name string) (n uint64) {
	for _, c := range reg.Snapshot().Counters {
		if c.Name == "prefix_"+name+"_total" && c.Labels == (metrics.Labels{Server: ps.proc.Name()}) {
			n += c.Value
		}
	}
	return n
}

func TestDynamicBindingDeadTargetBoundedFailure(t *testing.T) {
	k := kernel.New(netsim.New(vtime.DefaultModel(), 1))
	reg := metrics.New()
	k.SetMetrics(reg)
	ws := k.NewHost("ws")
	regHost := k.NewHost("registry")
	victimHost := k.NewHost("victim")

	victim, err := victimHost.NewProcess("svc")
	if err != nil {
		t.Fatal(err)
	}
	victim.Serve(func(*proto.Message, kernel.PID) {}) // answers nothing
	// The registration lives in a kernel table that survives the crash —
	// the stale-registration hazard of §4.2.
	if err := regHost.SetPid(kernel.ServiceTime, victim.PID(), kernel.ScopeBoth); err != nil {
		t.Fatal(err)
	}

	ps, err := Start(ws, "mann")
	if err != nil {
		t.Fatal(err)
	}
	defer ps.proc.Destroy()
	if err := ps.DefineDynamic("svc", kernel.ServiceTime, core.CtxDefault); err != nil {
		t.Fatal(err)
	}
	cli, err := ws.NewProcess("client")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Destroy()

	victimHost.Crash()

	before := cli.Now()
	req := &proto.Message{Op: proto.OpQueryObject}
	proto.SetCSName(req, 0, "[svc]x")
	reply, err := cli.Send(req, ps.PID())
	if err != nil {
		t.Fatal(err)
	}
	if rerr := core.ReplyToError(reply); !errors.Is(rerr, proto.ErrTimeout) {
		t.Fatalf("stale-registration use err = %v", rerr)
	}
	// The failure is bounded and charged: the reply's timestamp carries
	// the prefix server's retransmit-budget charge back to the client.
	if elapsed := cli.Now() - before; elapsed < k.Model().RetransmitTimeout {
		t.Fatalf("dead-target discovery must cost a retransmit budget, took %v", elapsed)
	}
	if dead, st := recoveries(reg, ps, "dead_targets"), ps.Stats(); dead != 1 || st.Forwards != 0 {
		t.Fatalf("%d dead targets, stats = %+v", dead, st)
	}
}

func TestDynamicBindingRebindCounted(t *testing.T) {
	k := kernel.New(netsim.New(vtime.DefaultModel(), 1))
	reg := metrics.New()
	k.SetMetrics(reg)
	ws := k.NewHost("ws")
	srvHost := k.NewHost("srv")

	first := serveTarget(t, srvHost, "svc-1", nil)
	if err := srvHost.SetPid(kernel.ServiceTime, first.PID(), kernel.ScopeBoth); err != nil {
		t.Fatal(err)
	}

	ps, err := Start(ws, "mann")
	if err != nil {
		t.Fatal(err)
	}
	defer ps.proc.Destroy()
	if err := ps.DefineDynamic("svc", kernel.ServiceTime, core.CtxDefault); err != nil {
		t.Fatal(err)
	}
	cli, err := ws.NewProcess("client")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Destroy()

	use := func() proto.Code {
		t.Helper()
		req := &proto.Message{Op: proto.OpQueryObject}
		proto.SetCSName(req, 0, "[svc]x")
		reply, err := cli.Send(req, ps.PID())
		if err != nil {
			t.Fatal(err)
		}
		return reply.Op
	}

	if op := use(); op != proto.ReplyOK {
		t.Fatalf("first use reply = %v", op)
	}
	if rebinds, st := recoveries(reg, ps, "rebinds"), ps.Stats(); rebinds != 0 || st.Forwards != 1 {
		t.Fatalf("after first use %d rebinds, stats = %+v", rebinds, st)
	}

	// The service is re-implemented by a new process (§4.2): the next use
	// resolves to a different pid, and the move is counted as a rebind.
	first.Destroy()
	second := serveTarget(t, srvHost, "svc-2", nil)
	defer second.Destroy()
	if err := srvHost.SetPid(kernel.ServiceTime, second.PID(), kernel.ScopeBoth); err != nil {
		t.Fatal(err)
	}
	if op := use(); op != proto.ReplyOK {
		t.Fatalf("post-rebind use reply = %v", op)
	}
	rebinds, dead, st := recoveries(reg, ps, "rebinds"), recoveries(reg, ps, "dead_targets"), ps.Stats()
	if rebinds != 1 || st.Forwards != 2 || dead != 0 {
		t.Fatalf("after rebind %d rebinds, %d dead targets, stats = %+v", rebinds, dead, st)
	}

	// A written record that moves [svc] to another service redefines it
	// (§5.6): the next use resolves elsewhere, and that is no rebind.
	mail := serveTarget(t, srvHost, "mail", nil)
	defer mail.Destroy()
	if err := srvHost.SetPid(kernel.ServiceMail, mail.PID(), kernel.ScopeBoth); err != nil {
		t.Fatal(err)
	}
	rec := proto.Descriptor{Tag: proto.TagContextPrefix, Name: "svc", ObjectID: 1,
		TypeSpecific: [2]uint32{uint32(kernel.ServiceMail), uint32(core.CtxDefault)}}
	writeDirectory(t, cli, ps, rec.AppendEncoded(nil))
	if op := use(); op != proto.ReplyOK {
		t.Fatalf("post-redefinition use reply = %v", op)
	}
	if rebinds := recoveries(reg, ps, "rebinds"); rebinds != 1 {
		t.Fatalf("a written record counted as a rebind: %d rebinds, want 1", rebinds)
	}
}
