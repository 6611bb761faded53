package inetserver

import (
	"strings"
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

// list reads the context directory of name, filtered by pattern.
func list(t *testing.T, client *kernel.Process, s *Server, name, pattern string) []proto.Descriptor {
	t.Helper()
	req := &proto.Message{Op: proto.OpCreateInstance}
	proto.SetCSName(req, uint32(core.CtxDefault), name)
	proto.SetOpenMode(req, proto.ModeRead|proto.ModeDirectory)
	proto.SetDirPattern(req, pattern)
	reply, err := client.Send(req, s.PID())
	if err != nil || reply.Op != proto.ReplyOK {
		t.Fatalf("list %q: reply = %v, %v", name, reply, err)
	}
	f := new(vio.File).Init(client, s.PID(), proto.GetInstanceInfo(reply))
	defer f.Close()
	raw, err := f.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	records, err := proto.DecodeDescriptors(raw)
	if err != nil {
		t.Fatal(err)
	}
	return records
}

func dial(t *testing.T, client *kernel.Process, s *Server, dest string) *vio.File {
	t.Helper()
	req := &proto.Message{Op: proto.OpCreateInstance}
	proto.SetCSName(req, uint32(core.CtxDefault), "tcp/"+dest)
	proto.SetOpenMode(req, proto.ModeRead|proto.ModeWrite|proto.ModeCreate)
	reply, err := client.Send(req, s.PID())
	if err != nil {
		t.Fatal(err)
	}
	if err := proto.ReplyError(reply.Op); err != nil {
		t.Fatalf("dial %q: %v", dest, err)
	}
	return new(vio.File).Init(client, s.PID(), proto.GetInstanceInfo(reply))
}

func TestDialCreatesConnection(t *testing.T) {
	s, client := startRig(t)
	f := dial(t, client, s, "host:23")
	defer f.Close()
	if conns := list(t, client, s, "tcp", ""); len(conns) != 1 || conns[0].Name != "host:23" {
		t.Fatalf("connections = %+v", conns)
	}
}

func TestEchoRoundTrip(t *testing.T) {
	s, client := startRig(t)
	f := dial(t, client, s, "echo.host:7")
	if _, err := f.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Seek(0, 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	n, err := f.Read(buf)
	if err != nil || string(buf[:n]) != "ping" {
		t.Fatalf("read %q, %v", buf[:n], err)
	}
}

func TestCustomResponder(t *testing.T) {
	s, client := startRig(t)
	s.Mu.Lock()
	s.respond = func(dest string, sent []byte) []byte {
		return []byte(dest + ":" + strings.ToUpper(string(sent)))
	}
	s.Mu.Unlock()
	f := dial(t, client, s, "shout:1")
	if _, err := f.Write([]byte("hey")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Seek(0, 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 32)
	n, err := f.Read(buf)
	if err != nil || string(buf[:n]) != "shout:1:HEY" {
		t.Fatalf("read %q, %v", buf[:n], err)
	}
}

func TestReadDrainsInbox(t *testing.T) {
	s, client := startRig(t)
	f := dial(t, client, s, "h:1")
	if _, err := f.Write([]byte("abc")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Seek(0, 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 3)
	if _, err := f.Read(buf); err != nil {
		t.Fatal(err)
	}
	// Inbox now empty: next read hits EOF.
	if _, err := f.Seek(0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Read(buf); err == nil {
		t.Fatal("drained inbox should read EOF")
	}
}

func TestConnectionNamesWithForeignCharacters(t *testing.T) {
	// Destination strings contain dots and colons; only '/' separates the
	// tcp context from the connection name.
	s, client := startRig(t)
	f := dial(t, client, s, "su-score.arpa:23")
	defer f.Close()
	q := &proto.Message{Op: proto.OpQueryObject}
	proto.SetCSName(q, uint32(core.CtxDefault), "tcp/su-score.arpa:23")
	reply, err := client.Send(q, s.PID())
	if err != nil || reply.Op != proto.ReplyOK {
		t.Fatalf("query = %v, %v", reply, err)
	}
	d, _, err := proto.DecodeDescriptor(reply.Segment)
	if err != nil || d.Tag != proto.TagTCPConnection || d.Name != "su-score.arpa:23" {
		t.Fatalf("descriptor = %+v, %v", d, err)
	}
}

func TestDialOutsideTCPContextFails(t *testing.T) {
	s, client := startRig(t)
	req := &proto.Message{Op: proto.OpCreateInstance}
	proto.SetCSName(req, uint32(core.CtxDefault), "notcp")
	proto.SetOpenMode(req, proto.ModeCreate|proto.ModeWrite)
	reply, err := client.Send(req, s.PID())
	if err != nil || reply.Op != proto.ReplyNotFound {
		t.Fatalf("reply = %v, %v", reply, err)
	}
}

func TestCloseConnectionByName(t *testing.T) {
	s, client := startRig(t)
	f := dial(t, client, s, "h:1")
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	rm := &proto.Message{Op: proto.OpRemoveObject}
	proto.SetCSName(rm, uint32(core.CtxDefault), "tcp/h:1")
	reply, err := client.Send(rm, s.PID())
	if err != nil || reply.Op != proto.ReplyOK {
		t.Fatalf("remove = %v, %v", reply, err)
	}
	if conns := list(t, client, s, "tcp", ""); len(conns) != 0 {
		t.Fatalf("connection survived removal: %+v", conns)
	}
}

func TestRootDirectoryShowsTCPContext(t *testing.T) {
	s, client := startRig(t)
	if records := list(t, client, s, "", ""); len(records) != 1 || records[0].Name != "tcp" {
		t.Fatalf("records = %v", records)
	}
}

func TestTrafficCounters(t *testing.T) {
	s, client := startRig(t)
	f := dial(t, client, s, "h:1")
	if _, err := f.Write([]byte("12345")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Seek(0, 0); err != nil {
		t.Fatal(err)
	}
	// The block-oriented I/O protocol drains up to a whole block per read
	// request, so the server-side receive counter reflects the full echo.
	buf := make([]byte, 8)
	if _, err := f.Read(buf); err != nil {
		t.Fatal(err)
	}
	q := &proto.Message{Op: proto.OpQueryObject}
	proto.SetCSName(q, uint32(core.CtxDefault), "tcp/h:1")
	reply, err := client.Send(q, s.PID())
	if err != nil {
		t.Fatal(err)
	}
	d, _, err := proto.DecodeDescriptor(reply.Segment)
	if err != nil {
		t.Fatal(err)
	}
	if d.TypeSpecific[0] != 5 || d.TypeSpecific[1] != 5 {
		t.Fatalf("sent/recv = %v", d.TypeSpecific)
	}
}

// TestRootDirectoryHonoursPattern lists the root through the same path as
// every other context: the pattern filters its one record too.
func TestRootDirectoryHonoursPattern(t *testing.T) {
	s, client := startRig(t)
	for pattern, want := range map[string]int{"t*": 1, "udp*": 0} {
		if records := list(t, client, s, "", pattern); len(records) != want {
			t.Fatalf("pattern %q: records = %v; want %d", pattern, records, want)
		}
	}
}
