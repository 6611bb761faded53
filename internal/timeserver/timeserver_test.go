package timeserver

import (
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/netsim"
	"repro/internal/proto"
	"repro/internal/vio"
	"repro/internal/vtime"
)

func startRig(t *testing.T) (*Server, *kernel.Process) {
	t.Helper()
	k := kernel.New(netsim.New(vtime.DefaultModel(), 1))
	host := k.NewHost("services")
	s, err := Start(host)
	if err != nil {
		t.Fatal(err)
	}
	clientHost := k.NewHost("ws")
	client, err := clientHost.NewProcess("client")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Destroy() })
	return s, client
}

func TestGetTimeBindsPerUse(t *testing.T) {
	s, client := startRig(t)
	t1, err := GetTime(client)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := GetTime(client)
	if err != nil {
		t.Fatal(err)
	}
	if t2 <= t1 {
		t.Fatalf("time must advance: %d then %d", t1, t2)
	}
	// Per-use binding survives server re-creation (§4.2).
	host := s.Proc().Host()
	s.Proc().Destroy()
	s2, err := Start(host)
	if err != nil {
		t.Fatal(err)
	}
	if s2.PID() == s.PID() {
		t.Fatal("new server should have a new pid")
	}
	if _, err := GetTime(client); err != nil {
		t.Fatalf("GetTime after re-creation: %v", err)
	}
}

func TestGetTimeNoService(t *testing.T) {
	_, client := startRig(t)
	// A domain without the service registered.
	k2 := kernel.New(netsim.New(vtime.DefaultModel(), 1))
	h := k2.NewHost("lonely")
	p, err := h.NewProcess("client")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := GetTime(p); !errors.Is(err, kernel.ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
	_ = client
}

func TestClockIsNameableObject(t *testing.T) {
	s, client := startRig(t)
	req := &proto.Message{Op: proto.OpQueryObject}
	proto.SetCSName(req, uint32(core.CtxDefault), "clock")
	reply, err := client.Send(req, s.PID())
	if err != nil || reply.Op != proto.ReplyOK {
		t.Fatalf("query = %v, %v", reply, err)
	}
	d, _, err := proto.DecodeDescriptor(reply.Segment)
	if err != nil || d.Name != "clock" || d.Tag != proto.TagServiceBinding {
		t.Fatalf("descriptor = %+v, %v", d, err)
	}
	// Unknown names are unbound.
	req2 := &proto.Message{Op: proto.OpQueryObject}
	proto.SetCSName(req2, uint32(core.CtxDefault), "sundial")
	if reply, err := client.Send(req2, s.PID()); err != nil || reply.Op != proto.ReplyNotFound {
		t.Fatalf("reply = %v, %v", reply, err)
	}
}

// TestClockContextIsListable opens the server's context directory: one
// clock record, filtered by the pattern (rig's TestProtocolIsUniform pins
// the charge).
func TestClockContextIsListable(t *testing.T) {
	s, client := startRig(t)
	list := func(name, pattern string) (*proto.Message, []proto.Descriptor) {
		t.Helper()
		req := &proto.Message{Op: proto.OpCreateInstance}
		proto.SetCSName(req, uint32(core.CtxDefault), name)
		proto.SetOpenMode(req, proto.ModeRead|proto.ModeDirectory)
		proto.SetDirPattern(req, pattern)
		reply, err := client.Send(req, s.PID())
		if err != nil {
			t.Fatal(err)
		}
		if reply.Op != proto.ReplyOK {
			return reply, nil
		}
		raw, err := new(vio.File).Init(client, s.PID(), proto.GetInstanceInfo(reply)).ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		records, err := proto.DecodeDescriptors(raw)
		if err != nil {
			t.Fatal(err)
		}
		return reply, records
	}

	if _, none := list("", "sundial*"); len(none) != 0 {
		t.Fatalf("pattern matched %v", none)
	}
	_, all := list("", "")
	if len(all) != 1 || all[0].Name != "clock" || all[0].Tag != proto.TagServiceBinding {
		t.Fatalf("records = %+v", all)
	}
	if reply, _ := list("clock", ""); reply.Op != proto.ReplyNotAContext {
		t.Fatalf("directory open of the clock = %v", reply.Op)
	}
}

// TestClockStays removes the clock: refused with IllegalRequest, and the
// context still lists it.
func TestClockStays(t *testing.T) {
	s, client := startRig(t)
	req := &proto.Message{Op: proto.OpRemoveObject}
	proto.SetCSName(req, uint32(core.CtxDefault), "clock")
	if reply, err := client.Send(req, s.PID()); err != nil || reply.Op != proto.ReplyIllegalRequest {
		t.Fatalf("remove = %v, %v", reply, err)
	}
	open := &proto.Message{Op: proto.OpCreateInstance}
	proto.SetCSName(open, uint32(core.CtxDefault), "")
	proto.SetOpenMode(open, proto.ModeRead|proto.ModeDirectory)
	reply, err := client.Send(open, s.PID())
	if err != nil || reply.Op != proto.ReplyOK {
		t.Fatalf("directory open = %v, %v", reply, err)
	}
	raw, err := new(vio.File).Init(client, s.PID(), proto.GetInstanceInfo(reply)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if records, err := proto.DecodeDescriptors(raw); err != nil || len(records) != 1 || records[0].Name != "clock" {
		t.Fatalf("records after remove = %+v, %v", records, err)
	}
}

// TestClockOpenModeNotSupported opens the clock as a file: like every
// flat kind without an Open rule, the server answers ModeNotSupported.
func TestClockOpenModeNotSupported(t *testing.T) {
	s, client := startRig(t)
	req := &proto.Message{Op: proto.OpCreateInstance}
	proto.SetCSName(req, uint32(core.CtxDefault), "clock")
	proto.SetOpenMode(req, proto.ModeRead)
	if reply, err := client.Send(req, s.PID()); err != nil || reply.Op != proto.ReplyModeNotSupported {
		t.Fatalf("open = %v, %v", reply, err)
	}
}

// TestClockQueryChargesOneRecord holds the time server to the charge
// rule: a Query of the clock costs one DescriptorFabricateCost more than
// a Query of an unbound name of the same length, beyond the longer
// reply's extra wire time.
func TestClockQueryChargesOneRecord(t *testing.T) {
	s, client := startRig(t)
	query := func(name string) (*proto.Message, time.Duration) {
		t.Helper()
		req := &proto.Message{Op: proto.OpQueryObject}
		proto.SetCSName(req, uint32(core.CtxDefault), name)
		start := client.Now()
		reply, err := client.Send(req, s.PID())
		if err != nil {
			t.Fatal(err)
		}
		return reply, client.Now() - start
	}
	hit, hitCost := query("clock")
	miss, missCost := query("watch")
	if hit.Op != proto.ReplyOK || miss.Op != proto.ReplyNotFound {
		t.Fatalf("queries = %v, %v", hit.Op, miss.Op)
	}
	m := client.Kernel().Model()
	wire := m.RemoteHop(hit.WireSize()) - m.RemoteHop(miss.WireSize())
	if got := hitCost - missCost - wire; got != m.DescriptorFabricateCost {
		t.Fatalf("clock query cost %v more than a miss beyond the wire, want %v", got, m.DescriptorFabricateCost)
	}
}
