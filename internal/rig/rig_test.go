package rig

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/fileserver"
	"repro/internal/kernel"
	"repro/internal/proto"
	"repro/internal/timeserver"
)

func boot(t *testing.T) *Rig {
	t.Helper()
	r, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestBootTopology(t *testing.T) {
	r := boot(t)
	if len(r.WS) != 2 {
		t.Fatalf("workstations = %d", len(r.WS))
	}
	for _, ws := range r.WS {
		if ws.Session == nil || ws.Prefix == nil || ws.Term == nil || ws.Exec == nil {
			t.Fatalf("workstation %s incomplete", ws.User)
		}
	}
	if r.NS != nil {
		t.Fatal("baseline name server must be off by default")
	}
}

// TestBootRefusesNegativeRequests: a Paper scenario asking for fewer
// than no operations is refused at boot with the count named, as the
// sharded kinds refuse theirs, not driven to a lost-operations verdict.
func TestBootRefusesNegativeRequests(t *testing.T) {
	if _, err := (Scenario{Kind: Paper, Requests: -1}).Boot(); err == nil || !strings.Contains(err.Error(), "requests must not be negative, got -1") {
		t.Fatalf("Boot = %v, want the refusal of a negative operation count", err)
	}
}

// TestBootRefusesIgnoredFields: a scenario that sets a field its kind
// ignores is refused at boot with ErrIgnoredField and the field named,
// not run as if the field were unset; the same scenario without it
// boots.
func TestBootRefusesIgnoredFields(t *testing.T) {
	paper := Scenario{Kind: Paper}
	shared := Scenario{Kind: SharedPrefix, Shards: 1, ClientsPerShard: 1, Requests: 1}
	zipf := Scenario{Kind: Zipf, Shards: 1, ClientsPerShard: 1, Requests: 1, Population: 8,
		Lease: time.Second, Interarrival: time.Millisecond}
	for _, c := range []struct {
		base  Scenario
		field string
		set   func(*Scenario)
	}{
		{paper, "Shards", func(sc *Scenario) { sc.Shards = 2 }},
		{paper, "ClientsPerShard", func(sc *Scenario) { sc.ClientsPerShard = 1 }},
		{paper, "CacheTier", func(sc *Scenario) { sc.CacheTier = true }},
		{paper, "Population", func(sc *Scenario) { sc.Population = 100 }},
		{shared, "Replicas", func(sc *Scenario) { sc.Replicas = 2 }},
		{shared, "Baseline", func(sc *Scenario) { sc.Baseline = true }},
		{shared, "Users", func(sc *Scenario) { sc.Users = []string{"mann"} }},
		{zipf, "Replicas", func(sc *Scenario) { sc.Replicas = 3 }},
		{zipf, "Baseline", func(sc *Scenario) { sc.Baseline = true }},
		{zipf, "Users", func(sc *Scenario) { sc.Users = []string{"mann"} }},
	} {
		if _, err := c.base.Boot(); err != nil {
			t.Fatalf("%s without %s: %v", c.base.Kind, c.field, err)
		}
		sc := c.base
		c.set(&sc)
		if _, err := sc.Boot(); !errors.Is(err, ErrIgnoredField) || !strings.HasSuffix(err.Error(), " sets "+c.field) {
			t.Errorf("%s with %s: Boot = %v, want %v naming the field", sc.Kind, c.field, err, ErrIgnoredField)
		}
	}
}

// TestBootIsDeterministic: i-node numbers are object ids on the wire, so
// every boot must hand /bin's programs the same ones — boot after boot on
// the single server, and on every member volume of a replicated fs1.
func TestBootIsDeterministic(t *testing.T) {
	binIDs := func(fs *fileserver.FileServer) (ids [3]uint32) {
		t.Helper()
		p, err := fs.Proc().Host().NewProcess("query")
		if err != nil {
			t.Fatal(err)
		}
		defer p.Destroy()
		for i, name := range []string{"hello", "editor", "compiler"} {
			reply, err := transact(p, fs.PID(), proto.OpQueryObject, "bin/"+name, 0)
			if err != nil {
				t.Fatal(err)
			}
			d, _, err := proto.DecodeDescriptor(reply.Segment)
			if err != nil {
				t.Fatal(err)
			}
			ids[i] = d.ObjectID
		}
		return ids
	}
	first := binIDs(boot(t).FS1)
	for i := 1; i < 8; i++ {
		if got := binIDs(boot(t).FS1); got != first {
			t.Fatalf("boot %d: /bin object ids %v, first boot's %v", i, got, first)
		}
	}
	r := mustNew(t, Config{Users: []string{"mann"}, Seed: 1, ReadAhead: true, Replicas: 3})
	if got := binIDs(r.FS1); got != first {
		t.Fatalf("slot 0: /bin object ids %v, single server's %v", got, first)
	}
	// Every member volume holds the seed image.
	if err := r.CheckFS1(); err != nil {
		t.Fatal(err)
	}
}

func TestOpenThroughPrefix(t *testing.T) {
	r := boot(t)
	s := r.WS[0].Session
	data, err := s.ReadFile("[storage]/users/mann/welcome.txt")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "Welcome to the V-System, mann.") {
		t.Fatalf("read %q", data)
	}
}

func TestOpenInCurrentContext(t *testing.T) {
	// The current context starts at the user's home directory, so plain
	// relative names work without the prefix server (§6).
	r := boot(t)
	s := r.WS[0].Session
	data, err := s.ReadFile("welcome.txt")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "mann") {
		t.Fatalf("read %q", data)
	}
}

func TestPerUserInterpretation(t *testing.T) {
	// The same relative name resolves per user: each workstation's
	// session starts in its own home context.
	r := boot(t)
	a, err := r.WS[0].Session.ReadFile("welcome.txt")
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.WS[1].Session.ReadFile("welcome.txt")
	if err != nil {
		t.Fatal(err)
	}
	if string(a) == string(b) {
		t.Fatal("different users must see different files under the same name")
	}
}

func TestHomePrefixPerUser(t *testing.T) {
	r := boot(t)
	a, err := r.WS[0].Session.ReadFile("[home]welcome.txt")
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.WS[1].Session.ReadFile("[home]welcome.txt")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(a), "cheriton") || !strings.Contains(string(b), "cheriton") {
		t.Fatalf("per-user [home] wrong: %q / %q", a, b)
	}
}

func TestChangeContext(t *testing.T) {
	r := boot(t)
	s := r.WS[0].Session
	if err := s.ChangeContext("[storage]/users/cheriton"); err != nil {
		t.Fatal(err)
	}
	data, err := s.ReadFile("welcome.txt")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "cheriton") {
		t.Fatalf("after chdir read %q", data)
	}
	// Relative navigation with dot-dot.
	if err := s.ChangeContext("../mann/notes"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadFile("todo.txt"); err != nil {
		t.Fatal(err)
	}
}

func TestWriteCreateReadRemove(t *testing.T) {
	r := boot(t)
	s := r.WS[0].Session
	if err := s.WriteFile("[home]draft.mss", []byte("naming is hard\n")); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadFile("[home]draft.mss")
	if err != nil || string(got) != "naming is hard\n" {
		t.Fatalf("read back %q, %v", got, err)
	}
	if err := s.Remove("[home]draft.mss"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadFile("[home]draft.mss"); !errors.Is(err, proto.ErrNotFound) {
		t.Fatalf("after remove err = %v", err)
	}
}

func TestRename(t *testing.T) {
	r := boot(t)
	s := r.WS[0].Session
	if err := s.WriteFile("[home]a.txt", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := s.Rename("[home]a.txt", "[home]b.txt"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadFile("[home]b.txt"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadFile("[home]a.txt"); !errors.Is(err, proto.ErrNotFound) {
		t.Fatalf("old name still bound: %v", err)
	}
	// Rename into a subdirectory (different context, same server).
	if err := s.Rename("[home]b.txt", "[home]notes/b.txt"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadFile("[home]notes/b.txt"); err != nil {
		t.Fatal(err)
	}
	// Cross-prefix rename is rejected.
	if err := s.Rename("[home]notes/b.txt", "[storage2]b.txt"); !errors.Is(err, proto.ErrIllegalRequest) {
		t.Fatalf("cross-prefix rename err = %v", err)
	}
}

func TestQueryAndModify(t *testing.T) {
	r := boot(t)
	s := r.WS[0].Session
	d, err := s.Query("[home]welcome.txt")
	if err != nil {
		t.Fatal(err)
	}
	if d.Tag != proto.TagFile || d.Owner != "mann" || d.Size == 0 {
		t.Fatalf("descriptor = %+v", d)
	}
	d.Perms = proto.PermRead // drop write permission
	if err := s.Modify("[home]welcome.txt", d); err != nil {
		t.Fatal(err)
	}
	d2, err := s.Query("[home]welcome.txt")
	if err != nil {
		t.Fatal(err)
	}
	if d2.Perms != proto.PermRead {
		t.Fatalf("perms after modify = %#x", d2.Perms)
	}
}

func TestQueryDirectoryDescriptor(t *testing.T) {
	r := boot(t)
	s := r.WS[0].Session
	d, err := s.Query("[home]notes")
	if err != nil {
		t.Fatal(err)
	}
	if d.Tag != proto.TagDirectory {
		t.Fatalf("descriptor = %+v", d)
	}
}

func TestListContextDirectory(t *testing.T) {
	r := boot(t)
	s := r.WS[0].Session
	records, err := s.List("[home]")
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]proto.DescriptorTag{}
	for _, d := range records {
		names[d.Name] = d.Tag
	}
	if names["welcome.txt"] != proto.TagFile || names["notes"] != proto.TagDirectory {
		t.Fatalf("listing = %v", names)
	}
}

func TestModifyThroughContextDirectory(t *testing.T) {
	// §5.6: writing a description record back into a context directory is
	// the modification operation.
	r := boot(t)
	s := r.WS[0].Session
	f, err := s.Open("[home]", proto.ModeRead|proto.ModeDirectory)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := f.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	records, err := proto.DecodeDescriptors(raw)
	if err != nil {
		t.Fatal(err)
	}
	var rec proto.Descriptor
	for _, d := range records {
		if d.Name == "welcome.txt" {
			rec = d
		}
	}
	rec.Perms = proto.PermRead
	if _, err := f.Seek(0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(rec.AppendEncoded(nil)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	d, err := s.Query("[home]welcome.txt")
	if err != nil {
		t.Fatal(err)
	}
	if d.Perms != proto.PermRead {
		t.Fatalf("perms = %#x", d.Perms)
	}
}

func TestCrossServerLink(t *testing.T) {
	// Figure 4: a name that starts on FS1 and crosses into FS2's tree
	// through a directory entry pointing at a remote context.
	r := boot(t)
	s := r.WS[0].Session
	data, err := s.ReadFile("[storage]/shared/archive/2026/paper.mss")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "Uniform Access") {
		t.Fatalf("read %q", data)
	}
	// The same file is reachable directly on FS2.
	direct, err := s.ReadFile("[storage2]/archive/2026/paper.mss")
	if err != nil {
		t.Fatal(err)
	}
	if string(direct) != string(data) {
		t.Fatal("link traversal and direct access disagree")
	}
}

func TestCrossServerLinkListing(t *testing.T) {
	r := boot(t)
	s := r.WS[0].Session
	records, err := s.List("[storage]/shared")
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 1 || records[0].Tag != proto.TagLink || records[0].Name != "archive" {
		t.Fatalf("listing = %+v", records)
	}
}

func TestMapContextAcrossServers(t *testing.T) {
	r := boot(t)
	s := r.WS[0].Session
	pair, err := s.MapContext("[storage]/shared/archive/2026")
	if err != nil {
		t.Fatal(err)
	}
	if pair.Server != r.FS2.PID() {
		t.Fatalf("context resolved to %v, want FS2 %v", pair.Server, r.FS2.PID())
	}
}

func TestAddAndDeletePrefix(t *testing.T) {
	r := boot(t)
	s := r.WS[0].Session
	pair, err := s.MapContext("[storage]/users/cheriton")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddName("dave", pair); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadFile("[dave]welcome.txt"); err != nil {
		t.Fatal(err)
	}
	if err := s.AddName("dave", pair); !errors.Is(err, proto.ErrDuplicateName) {
		t.Fatalf("duplicate prefix err = %v", err)
	}
	if err := s.DeleteName("dave"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadFile("[dave]welcome.txt"); !errors.Is(err, proto.ErrNotFound) {
		t.Fatalf("deleted prefix err = %v", err)
	}
}

func TestPrefixDirectoryListing(t *testing.T) {
	r := boot(t)
	s := r.WS[0].Session
	records, err := s.ListPrefixes()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]proto.Descriptor{}
	for _, d := range records {
		byName[d.Name] = d
	}
	for _, want := range []string{"storage", "storage2", "home", "bin", "tty", "print", "tcp", "mail", "exec"} {
		d, ok := byName[want]
		if !ok {
			t.Fatalf("prefix %q missing from listing %v", want, byName)
		}
		if d.Tag != proto.TagContextPrefix {
			t.Fatalf("prefix %q tag = %v", want, d.Tag)
		}
	}
	if byName["bin"].ObjectID != 1 {
		t.Fatal("bin should be a dynamic binding")
	}
	if byName["storage"].ObjectID != 0 {
		t.Fatal("storage should be a static binding")
	}
}

func TestUnknownPrefix(t *testing.T) {
	r := boot(t)
	s := r.WS[0].Session
	if _, err := s.ReadFile("[nosuch]x"); !errors.Is(err, proto.ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestMalformedPrefix(t *testing.T) {
	r := boot(t)
	s := r.WS[0].Session
	if _, err := s.ReadFile("[unterminated"); !errors.Is(err, proto.ErrBadArgs) {
		t.Fatalf("err = %v", err)
	}
}

func TestDynamicBindingRebindsAfterCrash(t *testing.T) {
	// A5/§4.2: the storage service crashes and is re-created with a
	// different pid. The dynamic [bin] binding re-resolves via GetPid and
	// keeps working; a static binding to the old pid dangles.
	r := boot(t)
	s := r.WS[0].Session
	if _, err := s.ReadFile("[bin]hello"); err != nil {
		t.Fatal(err)
	}
	oldPid := r.FS1.PID()
	if err := s.AddName("oldfs", core.ContextPair{Server: oldPid, Ctx: core.CtxDefault}); err != nil {
		t.Fatal(err)
	}

	faultFS1(t, r, chaos.Crash, chaos.Restart)
	if r.FS1.PID() == oldPid {
		t.Fatal("restarted server must get a new pid")
	}

	// Dynamic binding recovers.
	if _, err := s.ReadFile("[bin]hello"); err != nil {
		t.Fatalf("dynamic binding did not rebind: %v", err)
	}
	// Static binding to the dead pid dangles.
	if _, err := s.ReadFile("[oldfs]bin/hello"); !errors.Is(err, kernel.ErrNonexistentProcess) {
		t.Fatalf("static binding should dangle: %v", err)
	}
}

func TestInverseMappingCurrentName(t *testing.T) {
	r := boot(t)
	s := r.WS[0].Session
	name, err := s.CurrentName()
	if err != nil {
		t.Fatal(err)
	}
	// Home is reachable as [storage]/users/mann; the prefix server names
	// the server root [storage] (first static match in sorted order may
	// be home itself if it matches exactly — both are legitimate inverse
	// mappings, §6).
	if !strings.Contains(name, "users/mann") && !strings.Contains(name, "[home]") {
		t.Fatalf("CurrentName = %q", name)
	}
	if err := s.ChangeContext("[storage]/users/mann/notes"); err != nil {
		t.Fatal(err)
	}
	name, err = s.CurrentName()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(name, "/notes") {
		t.Fatalf("CurrentName after chdir = %q", name)
	}
}

func TestInverseMappingManyToOne(t *testing.T) {
	// §6: the reverse mapping returns *a* name, not necessarily the one
	// used — and can dangle once the prefix is deleted.
	r := boot(t)
	s := r.WS[0].Session
	if err := s.ChangeContext("[storage2]/archive"); err != nil {
		t.Fatal(err)
	}
	name, err := s.CurrentName()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(name, "[storage2]") {
		t.Fatalf("CurrentName = %q", name)
	}
	// Delete the prefix: the inverse mapping degrades to the
	// server-relative path.
	if err := s.DeleteName("storage2"); err != nil {
		t.Fatal(err)
	}
	name, err = s.CurrentName()
	if err != nil {
		t.Fatal(err)
	}
	if strings.HasPrefix(name, "[storage2]") {
		t.Fatalf("CurrentName still uses the deleted prefix: %q", name)
	}
	if !strings.HasSuffix(name, "/archive") {
		t.Fatalf("CurrentName = %q", name)
	}
}

func TestLoadProgram(t *testing.T) {
	r := boot(t)
	s := r.WS[0].Session
	buf := make([]byte, 64*1024)
	n, err := s.LoadProgram("[bin]editor", buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 64*1024 {
		t.Fatalf("loaded %d bytes", n)
	}
	if !strings.HasPrefix(string(buf), "V-PROGRAM:editor") {
		t.Fatalf("image header = %q", buf[:20])
	}
}

func TestTerminalLifecycle(t *testing.T) {
	r := boot(t)
	s := r.WS[0].Session
	f, err := s.Open("[tty]new", proto.ModeRead|proto.ModeWrite|proto.ModeCreate)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello, workstation\n")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	records, err := s.List("[tty]")
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 1 || records[0].Tag != proto.TagTerminal {
		t.Fatalf("terminal listing = %+v", records)
	}
	screen, err := s.ReadFile("[tty]" + records[0].Name)
	if err != nil || string(screen) != "hello, workstation\n" {
		t.Fatalf("screen = %q, %v", screen, err)
	}
	if err := s.Remove("[tty]" + records[0].Name); err != nil {
		t.Fatal(err)
	}
	if records, err := s.List("[tty]"); err != nil || len(records) != 0 {
		t.Fatalf("terminal not destroyed: %+v, %v", records, err)
	}
}

func TestPrintQueue(t *testing.T) {
	r := boot(t)
	s := r.WS[0].Session
	for _, jobName := range []string{"paper.ps", "slides.ps"} {
		f, err := s.Open("[print]"+jobName, proto.ModeWrite|proto.ModeCreate)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte("PS:" + jobName)); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	records, err := s.List("[print]")
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 2 || records[0].Tag != proto.TagPrintJob {
		t.Fatalf("queue = %+v", records)
	}
	if records[0].TypeSpecific[0] != 1 || records[1].TypeSpecific[0] != 2 {
		t.Fatalf("queue positions = %v %v", records[0].TypeSpecific, records[1].TypeSpecific)
	}
	// Cancel the second job by removing its name.
	if err := s.Remove("[print]slides.ps"); err != nil {
		t.Fatal(err)
	}
	if records, err := s.List("[print]"); err != nil || len(records) != 1 {
		t.Fatalf("queue after cancel = %+v, %v", records, err)
	}
	if name := r.Print.AdvanceQueue(); name != "paper.ps" {
		t.Fatalf("printed %q", name)
	}
	if records, err := s.List("[print]"); err != nil || len(records) != 0 {
		t.Fatalf("queue after printing = %+v, %v", records, err)
	}
}

func TestTCPConnection(t *testing.T) {
	r := boot(t)
	s := r.WS[0].Session
	f, err := s.Open("[tcp]tcp/su-score.arpa:23", proto.ModeRead|proto.ModeWrite|proto.ModeCreate)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("login cheriton")); err != nil {
		t.Fatal(err)
	}
	// A connection is a stream: reads drain the inbox from the start.
	if _, err := f.Seek(0, 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	n, err := f.Read(buf)
	if err != nil || string(buf[:n]) != "login cheriton" {
		t.Fatalf("echo read %q, %v", buf[:n], err)
	}
	records, err := s.List("[tcp]tcp")
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 1 || records[0].Tag != proto.TagTCPConnection || records[0].Name != "su-score.arpa:23" {
		t.Fatalf("connections = %+v", records)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove("[tcp]tcp/su-score.arpa:23"); err != nil {
		t.Fatal(err)
	}
}

func TestMailboxes(t *testing.T) {
	r := boot(t)
	s := r.WS[0].Session
	// Deliver to the pre-existing foreign-syntax mailbox.
	f, err := s.Open("[mail]cheriton@su-score.ARPA", proto.ModeWrite)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("paper accepted at ICDCS")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if d, err := s.Query("[mail]cheriton@su-score.ARPA"); err != nil || d.TypeSpecific[0] != 1 {
		t.Fatalf("messages = %d, %v", d.TypeSpecific[0], err)
	}
	// Read it back through the protocol.
	got, err := s.ReadFile("[mail]cheriton@su-score.ARPA")
	if err != nil || !strings.Contains(string(got), "ICDCS") {
		t.Fatalf("mailbox read %q, %v", got, err)
	}
	// Query returns a typed descriptor.
	d, err := s.Query("[mail]mann@v.stanford.edu")
	if err != nil || d.Tag != proto.TagMailbox {
		t.Fatalf("descriptor = %+v, %v", d, err)
	}
}

func TestExecProgram(t *testing.T) {
	r := boot(t)
	ws := r.WS[0]
	s := ws.Session

	ran := make(chan struct{})
	ws.Exec.RegisterBody("hello", func(prog *client.Session) {
		close(ran)
		<-prog.Proc().Done()
	})

	req := &proto.Message{Op: proto.OpExecProgram}
	proto.SetCSName(req, uint32(core.CtxDefault), "hello")
	reply, err := s.Proc().Send(req, ws.Exec.PID())
	if err != nil {
		t.Fatal(err)
	}
	if err := proto.ReplyError(reply.Op); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ran:
	case <-time.After(2 * time.Second):
		t.Fatal("program body never ran")
	}

	records, err := s.List("[exec]")
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 1 || records[0].Tag != proto.TagProgram {
		t.Fatalf("programs = %+v", records)
	}
	progName := records[0].Name
	if !strings.HasPrefix(progName, "hello.") {
		t.Fatalf("program name = %q", progName)
	}
	// Kill it by removing its name from the context.
	if err := s.Remove("[exec]" + progName); err != nil {
		t.Fatal(err)
	}
	if records, err := s.List("[exec]"); err != nil || len(records) != 0 {
		t.Fatalf("program still running: %+v, %v", records, err)
	}
}

// TestT1OpenLatencyQuadrants is the shape check for the §6 Open
// measurements: local < remote; prefixed costs more than current-context;
// and the prefix overhead is (nearly) identical whether the final server
// is local or remote, because the prefix server is always local.
func TestT1OpenLatencyQuadrants(t *testing.T) {
	r := boot(t)
	ws := r.WS[0]
	s := ws.Session

	// A local file server on the workstation, as §3 describes (adding a
	// local server changes nothing else).
	localFS, err := bootLocalFS(r, ws)
	if err != nil {
		t.Fatal(err)
	}
	if err := ws.Prefix.Define("local", localFS.RootPair()); err != nil {
		t.Fatal(err)
	}

	open := func(name string, pair core.ContextPair) time.Duration {
		t.Helper()
		if pair != (core.ContextPair{}) {
			s.SetCurrent(pair)
		}
		start := s.Proc().Now()
		f, err := s.Open(name, proto.ModeRead)
		if err != nil {
			t.Fatalf("open %q: %v", name, err)
		}
		elapsed := s.Proc().Now() - start
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return elapsed
	}

	localCtx, err := s.MapContext("[local]")
	if err != nil {
		t.Fatal(err)
	}
	if err := localFS.WriteFile("/f.txt", "mann", []byte("local")); err != nil {
		t.Fatal(err)
	}

	currentLocal := open("f.txt", localCtx)
	currentRemote := open("welcome.txt", ws.HomeCtx)
	prefixLocal := open("[local]f.txt", core.ContextPair{})
	prefixRemote := open("[home]welcome.txt", core.ContextPair{})

	if currentLocal >= currentRemote {
		t.Fatalf("local open %v should beat remote %v", currentLocal, currentRemote)
	}
	if prefixLocal <= currentLocal || prefixRemote <= currentRemote {
		t.Fatal("prefixed opens must cost more than current-context opens")
	}
	deltaLocal := prefixLocal - currentLocal
	deltaRemote := prefixRemote - currentRemote
	diff := deltaLocal - deltaRemote
	if diff < 0 {
		diff = -diff
	}
	if diff > deltaLocal/10 {
		t.Fatalf("prefix overhead differs: local %v vs remote %v", deltaLocal, deltaRemote)
	}
	// Magnitudes against the paper (±35%): 1.21 / 3.70 / 5.14 / 7.69 ms.
	checks := []struct {
		name  string
		got   time.Duration
		paper time.Duration
	}{
		{"open local current", currentLocal, 1210 * time.Microsecond},
		{"open remote current", currentRemote, 3700 * time.Microsecond},
		{"open local prefix", prefixLocal, 5140 * time.Microsecond},
		{"open remote prefix", prefixRemote, 7690 * time.Microsecond},
	}
	for _, c := range checks {
		lo, hi := c.paper*65/100, c.paper*135/100
		if c.got < lo || c.got > hi {
			t.Errorf("%s = %v, paper %v (allowed %v..%v)", c.name, c.got, c.paper, lo, hi)
		}
	}
}

// TestE3SequentialReadRate checks the §3.1 streaming file access: with
// read-ahead, the per-page time approaches the disk's 15 ms rate; the
// paper measured 17.13 ms/page.
func TestE3SequentialReadRate(t *testing.T) {
	r := boot(t)
	s := r.WS[0].Session
	const pages = 64
	payload := make([]byte, pages*512)
	for i := range payload {
		payload[i] = byte(i)
	}
	if err := r.FS1.WriteFile("/users/mann/big.dat", "mann", payload); err != nil {
		t.Fatal(err)
	}
	f, err := s.Open("[home]big.dat", proto.ModeRead)
	if err != nil {
		t.Fatal(err)
	}
	start := s.Proc().Now()
	got, err := f.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	elapsed := s.Proc().Now() - start
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(payload) {
		t.Fatalf("read %d bytes", len(got))
	}
	perPage := elapsed / pages
	if perPage < 14*time.Millisecond || perPage > 20*time.Millisecond {
		t.Fatalf("per-page = %v, want near the disk's 15 ms (paper 17.13 ms)", perPage)
	}
}

// --- helpers that extend the rig for individual tests ---

func bootLocalFS(r *Rig, ws *Workstation) (*fileserver.FileServer, error) {
	return fileserver.Start(ws.Host, "local-"+ws.User)
}

func TestNameFaultDiagnostics(t *testing.T) {
	// Extension for the §7 deficiency: when a lookup fails after the name
	// was forwarded through a series of servers, the failure reply says
	// which component failed and at which server.
	r := boot(t)
	s := r.WS[0].Session

	// Fails on FS2, two forwards away from the client (prefix -> FS1 -> FS2).
	_, err := s.ReadFile("[storage]/shared/archive/2026/ghost.mss")
	var ne *core.NameError
	if !errors.As(err, &ne) {
		t.Fatalf("err = %v, want a NameError", err)
	}
	if ne.Component != "ghost.mss" {
		t.Fatalf("component = %q", ne.Component)
	}
	if ne.Server != r.FS2.PID() {
		t.Fatalf("fault server = %v, want FS2 %v", ne.Server, r.FS2.PID())
	}
	if !errors.Is(err, proto.ErrNotFound) {
		t.Fatalf("fault must unwrap to the standard error: %v", err)
	}

	// Fails mid-path on FS1: the index points at the failing component.
	_, err = s.ReadFile("[storage]/users/nobody/f")
	if !errors.As(err, &ne) {
		t.Fatalf("err = %v", err)
	}
	if ne.Component != "nobody" || ne.Server != r.FS1.PID() {
		t.Fatalf("fault = %+v", ne)
	}
	full := "[storage]/users/nobody/f"
	// The index is within the rewritten name as the file server saw it;
	// the component at that index is "nobody".
	if !strings.Contains(full[ne.Index:], "nobody") {
		t.Fatalf("index %d does not locate the component in %q", ne.Index, full)
	}
}

func TestGroupImplementedContextViaPrefix(t *testing.T) {
	// §7 future work, end to end: a prefix bound to a process *group*;
	// the prefix server forwards by multicast and the first member
	// replies. With one member down the name still works.
	r := boot(t)
	ws := r.WS[0]
	s := ws.Session

	if err := r.FS2.SetWellKnown(core.CtxStdPrograms, "/bin"); err != nil {
		t.Fatal(err)
	}
	if err := r.FS2.WriteFile("/bin/hello", "system", []byte("replica image")); err != nil {
		t.Fatal(err)
	}
	gid, err := r.Kernel.CreateGroup()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Kernel.JoinGroup(gid, r.FS1.PID()); err != nil {
		t.Fatal(err)
	}
	if err := r.Kernel.JoinGroup(gid, r.FS2.PID()); err != nil {
		t.Fatal(err)
	}
	if err := ws.Prefix.Define("gbin", core.ContextPair{Server: gid, Ctx: core.CtxStdPrograms}); err != nil {
		t.Fatal(err)
	}

	if _, err := s.Query("[gbin]hello"); err != nil {
		t.Fatalf("group-context query: %v", err)
	}
	// One replica down: the group name keeps working.
	faultFS1(t, r, chaos.Crash)
	if _, err := s.Query("[gbin]hello"); err != nil {
		t.Fatalf("group-context query with FS1 down: %v", err)
	}
}

func TestPatternDirectories(t *testing.T) {
	// §5.6's proposed extension: the server includes only the objects
	// matching a pattern in the returned context directory.
	r := boot(t)
	s := r.WS[0].Session
	for _, name := range []string{"naming.mss", "ipc.mss", "notes.txt", "draft.txt"} {
		if err := s.WriteFile("[home]"+name, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	records, err := s.ListPattern("[home]", "*.mss")
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 2 {
		t.Fatalf("filtered listing = %+v", records)
	}
	for _, d := range records {
		if !strings.HasSuffix(d.Name, ".mss") {
			t.Fatalf("record %q does not match", d.Name)
		}
	}
	// Works uniformly on other context types, e.g. mailboxes.
	boxes, err := s.ListPattern("[mail]", "*@su-score.ARPA")
	if err != nil {
		t.Fatal(err)
	}
	if len(boxes) != 1 || boxes[0].Name != "cheriton@su-score.ARPA" {
		t.Fatalf("mail listing = %+v", boxes)
	}
	// And forwards intact across servers.
	arch, err := s.ListPattern("[storage]/shared/archive/2026", "*.mss")
	if err != nil {
		t.Fatal(err)
	}
	if len(arch) != 1 || arch[0].Name != "paper.mss" {
		t.Fatalf("archive listing = %+v", arch)
	}
}

func TestTimeService(t *testing.T) {
	r := boot(t)
	s := r.WS[0].Session
	// Per-use GetPid binding, the paper's example of a simple service
	// (§4.2).
	t1, err := timeserver.GetTime(s.Proc())
	if err != nil {
		t.Fatal(err)
	}
	t2, err := timeserver.GetTime(s.Proc())
	if err != nil || t2 <= t1 {
		t.Fatalf("time did not advance: %d, %d (%v)", t1, t2, err)
	}
	// The clock is also reachable by name through the [time] prefix.
	d, err := s.Query("[time]clock")
	if err != nil || d.Name != "clock" {
		t.Fatalf("query clock = %+v, %v", d, err)
	}
}

func TestExecInheritsCurrentContext(t *testing.T) {
	// §6: an executed program is passed its current context; a
	// naming-aware program body gets a session carrying it, plus the
	// user's prefix server.
	r := boot(t)
	ws := r.WS[0]
	s := ws.Session

	type result struct {
		welcome []byte
		pwd     string
		err     error
	}
	done := make(chan result, 1)
	ws.Exec.RegisterBody("hello", func(prog *client.Session) {
		data, err := prog.ReadFile("welcome.txt") // relative: inherited context
		if err != nil {
			done <- result{err: err}
			return
		}
		pwd, err := prog.CurrentName()
		if err != nil {
			done <- result{err: err}
			return
		}
		// The program can also use the user's prefixes.
		if _, err := prog.Query("[bin]editor"); err != nil {
			done <- result{err: err}
			return
		}
		done <- result{welcome: data, pwd: pwd}
	})

	// Run with the notes directory as current context.
	if err := s.ChangeContext("[storage]/users/cheriton"); err != nil {
		t.Fatal(err)
	}
	progName, pid, err := s.Exec("[exec]hello")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(progName, "hello.") || pid == kernel.NilPID {
		t.Fatalf("exec returned %q, %v", progName, pid)
	}
	select {
	case res := <-done:
		if res.err != nil {
			t.Fatal(res.err)
		}
		if !strings.Contains(string(res.welcome), "cheriton") {
			t.Fatalf("program read %q — inherited context wrong", res.welcome)
		}
		if !strings.HasSuffix(res.pwd, "/users/cheriton") {
			t.Fatalf("program pwd = %q", res.pwd)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("program never reported")
	}
}

func TestPipeBetweenUsers(t *testing.T) {
	// Two users on different workstations communicate through a named
	// pipe on the services machine — pipes are just one more file-like
	// object under the I/O protocol (§3.2).
	r := boot(t)
	mann, dave := r.WS[0].Session, r.WS[1].Session

	w, err := mann.Open("[pipe]results", proto.ModeWrite|proto.ModeCreate)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := dave.Open("[pipe]results", proto.ModeRead)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("benchmarks done: T1 matches\n")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 128)
	n, err := rd.ReadRetry(buf, 3)
	if err != nil || !strings.Contains(string(buf[:n]), "T1 matches") {
		t.Fatalf("read %q, %v", buf[:n], err)
	}
	// The pipe is a typed, listable object like everything else.
	records, err := dave.List("[pipe]")
	if err != nil || len(records) != 1 || records[0].Tag != proto.TagPipe {
		t.Fatalf("pipe listing = %+v, %v", records, err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := rd.Seek(0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := rd.ReadRetry(buf, 3); err == nil {
		t.Fatal("drained closed pipe should hit EOF")
	}
}

func TestSevenFileServerForest(t *testing.T) {
	// The paper's installation ran 7 file servers (§6). Build seven, give
	// the user a prefix for each, chain them with cross-server links, and
	// resolve one name that traverses the whole forest.
	r := boot(t)
	s := r.WS[0].Session

	servers := make([]*fileserver.FileServer, 7)
	for i := range servers {
		host := r.Kernel.NewHost(fmt.Sprintf("vax%d", i))
		fs, err := fileserver.Start(host, fmt.Sprintf("vax%d", i))
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = fs
		if err := r.WS[0].Prefix.Define(fmt.Sprintf("vax%d", i), fs.RootPair()); err != nil {
			t.Fatal(err)
		}
	}
	// vax6 holds the payload; vax_i links to vax_{i+1}: a 7-hop chain.
	if err := servers[6].WriteFile("/depths/treasure.txt", "system", []byte("found it")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		nextRoot := servers[i+1].RootPair()
		if err := servers[i].AddLink("/", "next", nextRoot); err != nil {
			t.Fatal(err)
		}
	}

	// One request from the client; six forwards between servers; the
	// final server replies directly.
	data, err := s.ReadFile("[vax0]next/next/next/next/next/next/depths/treasure.txt")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "found it" {
		t.Fatalf("read %q", data)
	}

	// Each additional hop costs roughly one more remote transaction leg.
	t0 := s.Proc().Now()
	if _, err := s.Query("[vax6]depths/treasure.txt"); err != nil {
		t.Fatal(err)
	}
	direct := s.Proc().Now() - t0
	t1 := s.Proc().Now()
	if _, err := s.Query("[vax0]next/next/next/next/next/next/depths/treasure.txt"); err != nil {
		t.Fatal(err)
	}
	chained := s.Proc().Now() - t1
	if chained <= direct {
		t.Fatalf("chained traversal (%v) must cost more than direct (%v)", chained, direct)
	}
	perHop := (chained - direct) / 6
	// Each forward is one remote hop plus interpretation; it must be far
	// cheaper than a full round trip per hop (the §5.4 design point:
	// forwarding, not iterating back through the client).
	if perHop >= direct {
		t.Fatalf("per-hop forward cost %v should be below a full round trip %v", perHop, direct)
	}

	// All 7 roots are listable through their prefixes.
	for i := range servers {
		if _, err := s.List(fmt.Sprintf("[vax%d]", i)); err != nil {
			t.Fatalf("list vax%d: %v", i, err)
		}
	}
}

func TestGroupOpenLeaksAtLosers(t *testing.T) {
	// The practical caveat of §7 group contexts: a non-idempotent request
	// (open) multicast to a group performs its side effect at every
	// member, but the client learns only the winner's result — the losing
	// member is left with an orphaned open instance.
	r := boot(t)
	s := r.WS[0].Session
	if err := r.FS2.SetWellKnown(core.CtxStdPrograms, "/bin"); err != nil {
		t.Fatal(err)
	}
	if err := r.FS2.WriteFile("/bin/hello", "system", []byte("replica")); err != nil {
		t.Fatal(err)
	}
	gid, err := r.Kernel.CreateGroup()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Kernel.JoinGroup(gid, r.FS1.PID()); err != nil {
		t.Fatal(err)
	}
	if err := r.Kernel.JoinGroup(gid, r.FS2.PID()); err != nil {
		t.Fatal(err)
	}

	req := &proto.Message{Op: proto.OpCreateInstance}
	proto.SetCSName(req, uint32(core.CtxStdPrograms), "hello")
	proto.SetOpenMode(req, proto.ModeRead)
	reply, err := s.Proc().Send(req, gid)
	if err != nil {
		t.Fatal(err)
	}
	if err := proto.ReplyError(reply.Op); err != nil {
		t.Fatal(err)
	}
	winner := kernel.PID(proto.InstanceOwner(reply))
	rel := &proto.Message{Op: proto.OpReleaseInstance}
	rel.F[0] = reply.F[0]
	if _, err := s.Proc().Send(rel, winner); err != nil {
		t.Fatal(err)
	}
	// Fence: servers process requests serially, so one answered request
	// per server guarantees the group clones have been handled.
	if _, err := s.Query("[storage]/bin/hello"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query("[storage2]/bin/hello"); err != nil {
		t.Fatal(err)
	}
	// One orphaned instance remains at the loser: probe every instance id
	// either server can have handed out so far.
	open := func(server kernel.PID) (n int) {
		for id := 1; id < 256; id++ {
			q := &proto.Message{Op: proto.OpQueryInstance}
			q.F[0] = uint32(id)
			if reply, err := s.Proc().Send(q, server); err == nil && reply.Op == proto.ReplyOK {
				n++
			}
		}
		return n
	}
	total := open(r.FS1.PID()) + open(r.FS2.PID())
	if total != 1 {
		t.Fatalf("open instances after group open+release = %d, want exactly the loser's orphan", total)
	}
}

func TestHardLinksManyToOneInverse(t *testing.T) {
	// Same-server aliases (OpLinkObject): two names for one object. §6:
	// "this is the inverse mapping of a many-to-one function so the
	// CSname may not be the one that was in fact used."
	r := boot(t)
	s := r.WS[0].Session
	if err := s.WriteFile("[home]original.txt", []byte("shared contents")); err != nil {
		t.Fatal(err)
	}
	if err := s.Link("[home]original.txt", "[home]alias.txt"); err != nil {
		t.Fatal(err)
	}

	// Both names read the same object.
	a, err := s.ReadFile("[home]original.txt")
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.ReadFile("[home]alias.txt")
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("alias reads different contents")
	}
	// Same low-level object, link count 2.
	d1, err := s.Query("[home]original.txt")
	if err != nil {
		t.Fatal(err)
	}
	d2, err := s.Query("[home]alias.txt")
	if err != nil {
		t.Fatal(err)
	}
	if d1.ObjectID != d2.ObjectID {
		t.Fatalf("ids differ: %d vs %d", d1.ObjectID, d2.ObjectID)
	}
	if d1.TypeSpecific[0] != 2 {
		t.Fatalf("nlink = %d", d1.TypeSpecific[0])
	}
	// A write through one name is visible through the other.
	if err := s.WriteFile("[home]alias.txt", []byte("updated")); err != nil {
		t.Fatal(err)
	}
	if got, err := s.ReadFile("[home]original.txt"); err != nil || string(got) != "updated" {
		t.Fatalf("through original after alias write: %q, %v", got, err)
	}
	// The inverse mapping reports the name each instance was opened by —
	// two different answers for one object.
	f1, err := s.Open("[home]original.txt", proto.ModeRead)
	if err != nil {
		t.Fatal(err)
	}
	defer f1.Close()
	f2, err := s.Open("[home]alias.txt", proto.ModeRead)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	n1, _ := f1.InstanceName()
	n2, _ := f2.InstanceName()
	if n1 == n2 {
		t.Fatalf("inverse mapping should differ per open name: %q vs %q", n1, n2)
	}
	// Removing one name leaves the object reachable by the other;
	// removing the last destroys it.
	if err := s.Remove("[home]original.txt"); err != nil {
		t.Fatal(err)
	}
	if got, err := s.ReadFile("[home]alias.txt"); err != nil || string(got) != "updated" {
		t.Fatalf("object died with first name: %q, %v", got, err)
	}
	if err := s.Remove("[home]alias.txt"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadFile("[home]alias.txt"); !errors.Is(err, proto.ErrNotFound) {
		t.Fatalf("object survived last name: %v", err)
	}
}

func TestLinkErrors(t *testing.T) {
	r := boot(t)
	s := r.WS[0].Session
	if err := s.Link("[home]ghost", "[home]x"); !errors.Is(err, proto.ErrNotFound) {
		t.Fatalf("link of missing err = %v", err)
	}
	if err := s.Link("[home]notes", "[home]notes2"); !errors.Is(err, proto.ErrIllegalRequest) {
		t.Fatalf("link of directory err = %v", err)
	}
	if err := s.Link("[home]welcome.txt", "[home]notes"); !errors.Is(err, proto.ErrDuplicateName) {
		t.Fatalf("link onto existing err = %v", err)
	}
	if err := s.Link("[home]welcome.txt", "[storage2]w"); !errors.Is(err, proto.ErrIllegalRequest) {
		t.Fatalf("cross-prefix link err = %v", err)
	}
}

// TestNewIsBoot: New is Boot of a Paper scenario — the same hosts, the
// same server and session pids, the same program context and the same
// prefix tables.
func TestNewIsBoot(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Baseline = true
	a := mustNew(t, cfg)
	b, err := cfg.Boot()
	if err != nil {
		t.Fatal(err)
	}
	shape := func(r *Rig) []string {
		out := []string{fmt.Sprint(r.BinCtx)}
		for _, h := range []*kernel.Host{r.FS1Host, r.FS2Host, r.ServicesHost, r.NSHost} {
			out = append(out, fmt.Sprint(h.Name(), h.ID()))
		}
		for _, pid := range []kernel.PID{r.FS1.PID(), r.FS2.PID(), r.Print.PID(), r.Inet.PID(),
			r.Mail.PID(), r.Time.PID(), r.Pipe.PID(), r.NS.PID()} {
			out = append(out, pid.String())
		}
		for _, ws := range r.WS {
			out = append(out, fmt.Sprint(ws.Host.Name(), ws.Host.ID(), ws.Prefix.PID(), ws.Term.PID(),
				ws.Exec.PID(), ws.Session.Proc().PID(), ws.HomeCtx), fmt.Sprint(ws.Prefix.Bindings()))
		}
		return out
	}
	if sa, sb := shape(a), shape(b); !reflect.DeepEqual(sa, sb) {
		t.Fatalf("New and Boot differ:\n%v\n%v", sa, sb)
	}
	// Run boots the same topology and paces its one client.
	cfg.Requests = 20
	_, ev := mustRun(t, cfg)
	if sa, sr := shape(a), shape(ev.Topology); !reflect.DeepEqual(sa, sr) {
		t.Fatalf("New and Run differ:\n%v\n%v", sa, sr)
	}
}
