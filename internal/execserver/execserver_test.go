package execserver

import (
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/fileserver"
	"repro/internal/kernel"
	"repro/internal/netsim"
	"repro/internal/proto"
	"repro/internal/vio"
	"repro/internal/vtime"
)

func startRig(t *testing.T) (*Server, *kernel.Process, *fileserver.FileServer) {
	t.Helper()
	k := kernel.New(netsim.New(vtime.DefaultModel(), 1))
	fsHost := k.NewHost("fs")
	fs, err := fileserver.Start(fsHost, "fs")
	if err != nil {
		t.Fatal(err)
	}
	binCtx, err := fs.MkdirAll("/bin", "system")
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/bin/editor", "system", make([]byte, 8192)); err != nil {
		t.Fatal(err)
	}

	wsHost := k.NewHost("ws")
	s, err := Start(wsHost, core.ContextPair{Server: fs.PID(), Ctx: binCtx})
	if err != nil {
		t.Fatal(err)
	}
	client, err := wsHost.NewProcess("client")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Destroy() })
	return s, client, fs
}

// programs lists the programs-in-execution context: the server's
// directory, one record per running program.
func programs(t *testing.T, client *kernel.Process, s *Server) []proto.Descriptor {
	t.Helper()
	req := &proto.Message{Op: proto.OpCreateInstance}
	proto.SetCSName(req, uint32(core.CtxDefault), "")
	proto.SetOpenMode(req, proto.ModeRead|proto.ModeDirectory)
	reply, err := client.Send(req, s.PID())
	if err != nil || reply.Op != proto.ReplyOK {
		t.Fatalf("open dir = %v, %v", reply, err)
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

func exec(t *testing.T, client *kernel.Process, s *Server, image string) *proto.Message {
	t.Helper()
	req := &proto.Message{Op: proto.OpExecProgram}
	proto.SetCSName(req, uint32(core.CtxDefault), image)
	reply, err := client.Send(req, s.PID())
	if err != nil {
		t.Fatal(err)
	}
	return reply
}

func TestExecLoadsAndRuns(t *testing.T) {
	ran := make(chan struct{})
	editor := func(prog *client.Session) { // before the client process shadows the package
		close(ran)
		<-prog.Proc().Done()
	}
	s, client, _ := startRig(t)
	s.RegisterBody("editor", editor)
	reply := exec(t, client, s, "editor")
	if reply.Op != proto.ReplyOK {
		t.Fatalf("exec = %v", reply.Op)
	}
	if !strings.HasPrefix(string(reply.Segment), "editor.") {
		t.Fatalf("program name = %q", reply.Segment)
	}
	select {
	case <-ran:
	case <-time.After(2 * time.Second):
		t.Fatal("program never ran")
	}
	if n := len(programs(t, client, s)); n != 1 {
		t.Fatalf("running = %d", n)
	}
}

func TestExecUnknownImage(t *testing.T) {
	s, client, _ := startRig(t)
	reply := exec(t, client, s, "ghost")
	if reply.Op == proto.ReplyOK {
		t.Fatal("exec of missing image should fail")
	}
}

func TestExecChargesLoadTime(t *testing.T) {
	// Loading the image from the file server costs MoveTo transfer time.
	s, client, _ := startRig(t)
	before := client.Now()
	if reply := exec(t, client, s, "editor"); reply.Op != proto.ReplyOK {
		t.Fatalf("exec = %v", reply.Op)
	}
	model := client.Kernel().Model()
	if elapsed := client.Now() - before; elapsed < model.RemoteHopFloor(8192) {
		t.Fatalf("exec cost %v, must include the 8 KB image transfer", elapsed)
	}
}

func TestKillByRemoveObject(t *testing.T) {
	s, client, _ := startRig(t)
	reply := exec(t, client, s, "editor")
	name := string(reply.Segment)
	rm := &proto.Message{Op: proto.OpRemoveObject}
	proto.SetCSName(rm, uint32(core.CtxDefault), name)
	reply2, err := client.Send(rm, s.PID())
	if err != nil || reply2.Op != proto.ReplyOK {
		t.Fatalf("remove = %v, %v", reply2, err)
	}
	if n := len(programs(t, client, s)); n != 0 {
		t.Fatal("program survived removal")
	}
	// The program's process is really gone.
	pid := kernel.PID(reply.F[1])
	if _, err := client.Send(&proto.Message{Op: proto.OpEcho}, pid); err == nil {
		t.Fatal("program process should be destroyed")
	}
}

func TestKillByProgramID(t *testing.T) {
	s, client, _ := startRig(t)
	reply := exec(t, client, s, "editor")
	kill := &proto.Message{Op: proto.OpKillProgram}
	kill.F[0] = reply.F[0]
	reply2, err := client.Send(kill, s.PID())
	if err != nil || reply2.Op != proto.ReplyOK {
		t.Fatalf("kill = %v, %v", reply2, err)
	}
	if n := len(programs(t, client, s)); n != 0 {
		t.Fatal("program survived kill")
	}
	// Killing again: not found.
	reply2, err = client.Send(kill.Clone(), s.PID())
	if err != nil || reply2.Op != proto.ReplyNotFound {
		t.Fatalf("second kill = %v, %v", reply2, err)
	}
}

func TestProgramsInExecutionContext(t *testing.T) {
	s, client, _ := startRig(t)
	exec(t, client, s, "editor")
	exec(t, client, s, "editor")

	records := programs(t, client, s)
	if len(records) != 2 {
		t.Fatalf("records = %v", records)
	}
	for _, r := range records {
		if r.Tag != proto.TagProgram || r.Owner != "editor" {
			t.Fatalf("record = %+v", r)
		}
	}
	// Distinct instance names derived from distinct ids.
	if records[0].Name == records[1].Name {
		t.Fatal("program names must be unique")
	}
}

func TestQueryProgram(t *testing.T) {
	s, client, _ := startRig(t)
	reply := exec(t, client, s, "editor")
	name := string(reply.Segment)
	q := &proto.Message{Op: proto.OpQueryObject}
	proto.SetCSName(q, uint32(core.CtxDefault), name)
	reply2, err := client.Send(q, s.PID())
	if err != nil || reply2.Op != proto.ReplyOK {
		t.Fatalf("query = %v, %v", reply2, err)
	}
	d, _, err := proto.DecodeDescriptor(reply2.Segment)
	if err != nil || d.Tag != proto.TagProgram || d.Size != 8192 {
		t.Fatalf("descriptor = %+v, %v", d, err)
	}
	if kernel.PID(d.TypeSpecific[0]) != kernel.PID(reply.F[1]) {
		t.Fatal("descriptor pid mismatch")
	}
}

func TestExecWithFileServerDown(t *testing.T) {
	s, client, fs := startRig(t)
	fs.Proc().Destroy()
	reply := exec(t, client, s, "editor")
	if reply.Op == proto.ReplyOK {
		t.Fatal("exec should fail when the program directory is unreachable")
	}
}
