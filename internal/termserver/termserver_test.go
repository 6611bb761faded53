package termserver

import (
	"errors"
	"testing"

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
	host := k.NewHost("ws")
	s, err := Start(host)
	if err != nil {
		t.Fatal(err)
	}
	client, err := host.NewProcess("client")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Destroy() })
	return s, client
}

func open(t *testing.T, client *kernel.Process, s *Server, name string, mode uint32) *vio.File {
	t.Helper()
	req := &proto.Message{Op: proto.OpCreateInstance}
	proto.SetCSName(req, uint32(core.CtxDefault), name)
	proto.SetOpenMode(req, mode)
	reply, err := client.Send(req, s.PID())
	if err != nil {
		t.Fatal(err)
	}
	if err := proto.ReplyError(reply.Op); err != nil {
		t.Fatalf("open %q: %v", name, err)
	}
	return new(vio.File).Init(client, s.PID(), proto.GetInstanceInfo(reply))
}

// terminals lists the server's directory: one record per terminal.
func terminals(t *testing.T, client *kernel.Process, s *Server) []proto.Descriptor {
	t.Helper()
	dir := open(t, client, s, "", proto.ModeRead|proto.ModeDirectory)
	defer dir.Close()
	raw, err := dir.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	records, err := proto.DecodeDescriptors(raw)
	if err != nil {
		t.Fatal(err)
	}
	return records
}

// screen reads the named terminal's screen through an instance of it.
func screen(client *kernel.Process, s *Server, name string) ([]byte, error) {
	req := &proto.Message{Op: proto.OpCreateInstance}
	proto.SetCSName(req, uint32(core.CtxDefault), name)
	proto.SetOpenMode(req, proto.ModeRead)
	reply, err := client.Send(req, s.PID())
	if err != nil {
		return nil, err
	}
	if err := proto.ReplyError(reply.Op); err != nil {
		return nil, err
	}
	f := new(vio.File).Init(client, s.PID(), proto.GetInstanceInfo(reply))
	defer f.Close()
	return f.ReadAll()
}

func TestCreateTerminalNamesFromInstanceID(t *testing.T) {
	s, client := startRig(t)
	f1 := open(t, client, s, CreateName, proto.ModeRead|proto.ModeWrite|proto.ModeCreate)
	f2 := open(t, client, s, CreateName, proto.ModeRead|proto.ModeWrite|proto.ModeCreate)
	defer f1.Close()
	defer f2.Close()
	// §4.3: names derive from server-generated numeric identifiers.
	if ts := terminals(t, client, s); len(ts) != 2 || ts[0].Name != "vgt1" || ts[1].Name != "vgt2" {
		t.Fatalf("terminals = %+v", ts)
	}
}

func TestWriteAppendsToScreen(t *testing.T) {
	s, client := startRig(t)
	f := open(t, client, s, CreateName, proto.ModeWrite|proto.ModeCreate)
	if _, err := f.Write([]byte("line one\n")); err != nil {
		t.Fatal(err)
	}
	// Writes append regardless of file position.
	if _, err := f.Write([]byte("line two\n")); err != nil {
		t.Fatal(err)
	}
	got, err := screen(client, s, "vgt1")
	if err != nil || string(got) != "line one\nline two\n" {
		t.Fatalf("screen = %q, %v", got, err)
	}
}

func TestReopenExistingTerminal(t *testing.T) {
	s, client := startRig(t)
	f := open(t, client, s, CreateName, proto.ModeWrite|proto.ModeCreate)
	if _, err := f.Write([]byte("persistent")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	f2 := open(t, client, s, "vgt1", proto.ModeRead)
	got, err := f2.ReadAll()
	if err != nil || string(got) != "persistent" {
		t.Fatalf("read %q, %v", got, err)
	}
}

func TestOpenMissingTerminal(t *testing.T) {
	s, client := startRig(t)
	req := &proto.Message{Op: proto.OpCreateInstance}
	proto.SetCSName(req, uint32(core.CtxDefault), "vgt99")
	proto.SetOpenMode(req, proto.ModeRead)
	reply, err := client.Send(req, s.PID())
	if err != nil || reply.Op != proto.ReplyNotFound {
		t.Fatalf("reply = %v, %v", reply, err)
	}
}

func TestQueryAndRemove(t *testing.T) {
	s, client := startRig(t)
	f := open(t, client, s, CreateName, proto.ModeWrite|proto.ModeCreate)
	if _, err := f.Write([]byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	q := &proto.Message{Op: proto.OpQueryObject}
	proto.SetCSName(q, uint32(core.CtxDefault), "vgt1")
	reply, err := client.Send(q, s.PID())
	if err != nil || reply.Op != proto.ReplyOK {
		t.Fatalf("query = %v, %v", reply, err)
	}
	d, _, err := proto.DecodeDescriptor(reply.Segment)
	if err != nil || d.Tag != proto.TagTerminal || d.Size != 10 {
		t.Fatalf("descriptor = %+v, %v", d, err)
	}

	rm := &proto.Message{Op: proto.OpRemoveObject}
	proto.SetCSName(rm, uint32(core.CtxDefault), "vgt1")
	reply, err = client.Send(rm, s.PID())
	if err != nil || reply.Op != proto.ReplyOK {
		t.Fatalf("remove = %v, %v", reply, err)
	}
	if ts := terminals(t, client, s); len(ts) != 0 {
		t.Fatalf("terminal survived removal: %+v", ts)
	}
}

func TestDirectoryListsTerminalsSorted(t *testing.T) {
	s, client := startRig(t)
	for i := 0; i < 3; i++ {
		open(t, client, s, CreateName, proto.ModeCreate|proto.ModeWrite)
	}
	records := terminals(t, client, s)
	if len(records) != 3 {
		t.Fatalf("records = %v", records)
	}
	for i, want := range []string{"vgt1", "vgt2", "vgt3"} {
		if records[i].Name != want {
			t.Fatalf("records[%d] = %q", i, records[i].Name)
		}
	}
}

func TestScreenOfUnknownTerminal(t *testing.T) {
	s, client := startRig(t)
	if _, err := screen(client, s, "vgt9"); !errors.Is(err, proto.ErrNotFound) {
		t.Fatalf("err = %v, want not found", err)
	}
}

// TestRefusedBindIsAnErrorReply takes the name the next terminal would
// get: the create is refused with an error reply — not a panic in the
// server — leaves no terminal behind, and the next create succeeds.
func TestRefusedBindIsAnErrorReply(t *testing.T) {
	s, client := startRig(t)
	if err := s.Store.Bind(core.CtxDefault, "vgt1", core.ObjectEntry(proto.TagTerminal, 99)); err != nil {
		t.Fatal(err)
	}
	req := &proto.Message{Op: proto.OpCreateInstance}
	proto.SetCSName(req, uint32(core.CtxDefault), CreateName)
	proto.SetOpenMode(req, proto.ModeRead|proto.ModeWrite|proto.ModeCreate)
	reply, err := client.Send(req, s.PID())
	if err != nil || reply.Op != proto.ReplyDuplicateName {
		t.Fatalf("reply = %v, %v; want DuplicateName", reply, err)
	}
	// The refused create leaves no terminal in the table.
	if ts := terminals(t, client, s); len(ts) != 0 {
		t.Fatalf("refused create left %+v", ts)
	}
	f := open(t, client, s, CreateName, proto.ModeRead|proto.ModeWrite|proto.ModeCreate)
	defer f.Close()
	if _, err := screen(client, s, "vgt2"); err != nil {
		t.Fatalf("next terminal should be vgt2: %v", err)
	}
}
