package prefix

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/netsim"
	"repro/internal/proto"
	"repro/internal/vtime"
)

func TestHasPrefix(t *testing.T) {
	if !HasPrefix("[storage]/x") || HasPrefix("plain") || HasPrefix("") {
		t.Fatal("HasPrefix misclassifies")
	}
}

func TestParse(t *testing.T) {
	pfx, rest, err := Parse("[storage]/users/mann", 0)
	if err != nil {
		t.Fatal(err)
	}
	if pfx != "storage" || "[storage]/users/mann"[rest:] != "users/mann" {
		t.Fatalf("pfx=%q rest=%d", pfx, rest)
	}
}

func TestParseNoSeparatorAfterBracket(t *testing.T) {
	pfx, rest, err := Parse("[home]welcome.txt", 0)
	if err != nil {
		t.Fatal(err)
	}
	if pfx != "home" || "[home]welcome.txt"[rest:] != "welcome.txt" {
		t.Fatalf("pfx=%q rest=%d", pfx, rest)
	}
}

func TestParseBareBrackets(t *testing.T) {
	pfx, rest, err := Parse("[print]", 0)
	if err != nil {
		t.Fatal(err)
	}
	if pfx != "print" || rest != len("[print]") {
		t.Fatalf("pfx=%q rest=%d", pfx, rest)
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{"", "noprefix", "[unterminated", "[]empty"} {
		if _, _, err := Parse(bad, 0); !errors.Is(err, proto.ErrBadArgs) {
			t.Errorf("Parse(%q) err = %v", bad, err)
		}
	}
}

func TestParseAtIndex(t *testing.T) {
	name := "xxx[tty]vgt1"
	pfx, rest, err := Parse(name, 3)
	if err != nil || pfx != "tty" || name[rest:] != "vgt1" {
		t.Fatalf("pfx=%q rest=%d err=%v", pfx, rest, err)
	}
}

func TestQuoteParseRoundTrip(t *testing.T) {
	f := func(raw string) bool {
		name := strings.Map(func(r rune) rune {
			if r == '[' || r == ']' || r == '/' {
				return -1
			}
			return r
		}, raw)
		if name == "" {
			return true
		}
		pfx, _, err := Parse(Quote(name)+"rest", 0)
		return err == nil && pfx == name
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// newPrefixRig builds a minimal domain: one workstation with a prefix
// server, plus a toy target server that records what reaches it.
func newPrefixRig(t *testing.T) (*Server, *kernel.Process, *kernel.Process, chan *proto.Message) {
	t.Helper()
	k := kernel.New(netsim.New(vtime.DefaultModel(), 1))
	ws := k.NewHost("ws")
	srvHost := k.NewHost("srv")

	seen := make(chan *proto.Message, 16)
	target, err := srvHost.Spawn("target", func(p *kernel.Process) {
		for {
			msg, from, err := p.Receive()
			if err != nil {
				return
			}
			seen <- msg.Clone()
			reply := proto.NewReply(proto.ReplyOK)
			reply.F[0] = msg.F[0] // echo context id back
			if err := p.Reply(reply, from); err != nil {
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	ps, err := Start(ws, "mann")
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
		client.Destroy()
	})
	if err := ps.Define("tgt", core.ContextPair{Server: target.PID(), Ctx: 42}); err != nil {
		t.Fatal(err)
	}
	return ps, client, target, seen
}

func TestForwardRewritesContextAndIndex(t *testing.T) {
	ps, client, _, seen := newPrefixRig(t)
	req := &proto.Message{Op: proto.OpQueryObject}
	proto.SetCSName(req, 0, "[tgt]a/b")
	reply, err := client.Send(req, ps.PID())
	if err != nil {
		t.Fatal(err)
	}
	if reply.Op != proto.ReplyOK {
		t.Fatalf("reply = %v", reply.Op)
	}
	got := <-seen
	name, idx, err := proto.CSName(got)
	if err != nil {
		t.Fatal(err)
	}
	if proto.CSNameContext(got) != 42 {
		t.Fatalf("forwarded context = %d", proto.CSNameContext(got))
	}
	if name[idx:] != "a/b" {
		t.Fatalf("forwarded name remainder = %q", name[idx:])
	}
}

func TestUnknownPrefixNotFound(t *testing.T) {
	ps, client, _, _ := newPrefixRig(t)
	req := &proto.Message{Op: proto.OpQueryObject}
	proto.SetCSName(req, 0, "[nope]x")
	reply, err := client.Send(req, ps.PID())
	if err != nil {
		t.Fatal(err)
	}
	if reply.Op != proto.ReplyNotFound {
		t.Fatalf("reply = %v", reply.Op)
	}
}

func TestDynamicBindingUsesGetPid(t *testing.T) {
	ps, client, target, seen := newPrefixRig(t)
	if err := ps.DefineDynamic("svc", kernel.ServiceTime, core.CtxDefault); err != nil {
		t.Fatal(err)
	}
	// Service not yet registered: use fails.
	req := &proto.Message{Op: proto.OpQueryObject}
	proto.SetCSName(req, 0, "[svc]x")
	reply, err := client.Send(req, ps.PID())
	if err != nil || reply.Op != proto.ReplyNotFound {
		t.Fatalf("reply = %v, %v", reply, err)
	}
	// Register the service; the same name now works.
	if err := target.SetPid(kernel.ServiceTime, target.PID(), kernel.ScopeBoth); err != nil {
		t.Fatal(err)
	}
	req2 := &proto.Message{Op: proto.OpQueryObject}
	proto.SetCSName(req2, 0, "[svc]x")
	reply, err = client.Send(req2, ps.PID())
	if err != nil || reply.Op != proto.ReplyOK {
		t.Fatalf("reply = %v, %v", reply, err)
	}
	<-seen
}

func TestAddDeleteViaProtocol(t *testing.T) {
	ps, client, target, _ := newPrefixRig(t)
	add := &proto.Message{Op: proto.OpAddContextName}
	proto.SetCSName(add, 0, "added")
	proto.SetAddContextTarget(add, uint32(target.PID()), 7)
	reply, err := client.Send(add, ps.PID())
	if err != nil || reply.Op != proto.ReplyOK {
		t.Fatalf("add reply = %v, %v", reply, err)
	}
	if _, ok := ps.Bindings()["added"]; !ok {
		t.Fatal("binding missing after add")
	}
	del := &proto.Message{Op: proto.OpDeleteContextName}
	proto.SetCSName(del, 0, "added")
	reply, err = client.Send(del, ps.PID())
	if err != nil || reply.Op != proto.ReplyOK {
		t.Fatalf("delete reply = %v, %v", reply, err)
	}
	if _, ok := ps.Bindings()["added"]; ok {
		t.Fatal("binding still present after delete")
	}
	// Deleting again fails.
	del2 := &proto.Message{Op: proto.OpDeleteContextName}
	proto.SetCSName(del2, 0, "added")
	reply, err = client.Send(del2, ps.PID())
	if err != nil || reply.Op != proto.ReplyNotFound {
		t.Fatalf("second delete reply = %v, %v", reply, err)
	}
}

func TestDefineValidation(t *testing.T) {
	ps, _, _, _ := newPrefixRig(t)
	if err := ps.Define("has/slash", core.ContextPair{}); !errors.Is(err, proto.ErrBadArgs) {
		t.Fatalf("err = %v", err)
	}
	if err := ps.Define("", core.ContextPair{}); !errors.Is(err, proto.ErrBadArgs) {
		t.Fatalf("err = %v", err)
	}
	if err := ps.Define("tgt", core.ContextPair{}); !errors.Is(err, proto.ErrDuplicateName) {
		t.Fatalf("err = %v", err)
	}
}

// TestDefineAll: a batch binds beside what the table holds — brackets
// optional, the inverse mapping kept — or, when any name is malformed,
// repeated or already bound, binds nothing at all.
func TestDefineAll(t *testing.T) {
	ps, _, target, _ := newPrefixRig(t)
	a, b := core.ContextPair{Server: 7, Ctx: 1}, core.ContextPair{Server: 7, Ctx: 2}
	pairs := []core.ContextPair{a, b, a}
	for _, bad := range [][]string{
		{"x", "y"},
		{"x", "has/slash", "y"},
		{"x", "", "y"},
		{"x", "y", "[x]"},
		{"x", "tgt", "y"},
	} {
		err := ps.DefineAll(bad, pairs)
		if !errors.Is(err, proto.ErrBadArgs) && !errors.Is(err, proto.ErrDuplicateName) {
			t.Fatalf("DefineAll(%q) err = %v", bad, err)
		}
		if got := ps.Bindings(); len(got) != 1 || got["tgt"].Pair.Server != target.PID() {
			t.Fatalf("DefineAll(%q) failed but left table %+v", bad, got)
		}
	}
	if err := ps.DefineAll([]string{"x", "[y]", "a.first"}, pairs); err != nil {
		t.Fatal(err)
	}
	got := ps.Bindings()
	if len(got) != 4 || got["x"].Pair != a || got["y"].Pair != b || got["a.first"].Pair != a || got["tgt"].Pair.Server != target.PID() {
		t.Fatalf("table after DefineAll: %+v", got)
	}
	req := &proto.Message{Op: proto.OpGetContextName}
	req.F[0], req.F[1] = uint32(a.Ctx), uint32(a.Server)
	if reply := ps.handleInverse(req); string(reply.Segment) != "[a.first]" {
		t.Fatalf("inverse of %v = %q", a, reply.Segment)
	}
	if err := ps.Define("x", a); !errors.Is(err, proto.ErrDuplicateName) {
		t.Fatalf("Define over a bulk-bound name: %v", err)
	}
}

func TestMapContextOfPrefixServerItself(t *testing.T) {
	ps, client, _, _ := newPrefixRig(t)
	req := &proto.Message{Op: proto.OpMapContext}
	proto.SetCSName(req, 0, "")
	reply, err := client.Send(req, ps.PID())
	if err != nil || reply.Op != proto.ReplyOK {
		t.Fatalf("reply = %v, %v", reply, err)
	}
	pid, ctx := proto.GetMapContextReply(reply)
	if kernel.PID(pid) != ps.PID() || ctx != uint32(core.CtxDefault) {
		t.Fatalf("pair = %#x, %d", pid, ctx)
	}
}

func TestQueryPrefixDescriptor(t *testing.T) {
	ps, client, target, _ := newPrefixRig(t)
	req := &proto.Message{Op: proto.OpQueryObject}
	proto.SetCSName(req, 0, "tgt") // no bracket: the server's own name space
	reply, err := client.Send(req, ps.PID())
	if err != nil || reply.Op != proto.ReplyOK {
		t.Fatalf("reply = %v, %v", reply, err)
	}
	d, _, err := proto.DecodeDescriptor(reply.Segment)
	if err != nil {
		t.Fatal(err)
	}
	if d.Tag != proto.TagContextPrefix || d.Name != "tgt" || d.Owner != "mann" {
		t.Fatalf("descriptor = %+v", d)
	}
	if kernel.PID(d.TypeSpecific[0]) != target.PID() || d.TypeSpecific[1] != 42 {
		t.Fatalf("target = %v", d.TypeSpecific)
	}
}

func TestInverseMapping(t *testing.T) {
	ps, client, target, _ := newPrefixRig(t)
	req := &proto.Message{Op: proto.OpGetContextName}
	req.F[0] = 42
	req.F[1] = uint32(target.PID())
	reply, err := client.Send(req, ps.PID())
	if err != nil || reply.Op != proto.ReplyOK {
		t.Fatalf("reply = %v, %v", reply, err)
	}
	if string(reply.Segment) != "[tgt]" {
		t.Fatalf("inverse = %q", reply.Segment)
	}
	// Unknown pair: not found.
	req2 := &proto.Message{Op: proto.OpGetContextName}
	req2.F[0] = 99
	req2.F[1] = uint32(target.PID())
	reply, err = client.Send(req2, ps.PID())
	if err != nil || reply.Op != proto.ReplyNotFound {
		t.Fatalf("reply = %v, %v", reply, err)
	}
}

func TestModifyThroughDirectoryRecord(t *testing.T) {
	ps, _, target, _ := newPrefixRig(t)
	rec := proto.Descriptor{
		Tag:          proto.TagContextPrefix,
		Name:         "tgt",
		TypeSpecific: [2]uint32{uint32(target.PID()), 77},
	}
	if err := ps.modifyFromRecord(rec); err != nil {
		t.Fatal(err)
	}
	b := ps.Bindings()["tgt"]
	if b.Pair.Ctx != 77 {
		t.Fatalf("binding after modify = %+v", b)
	}
	// Unknown prefix rejected.
	rec.Name = "ghost"
	if err := ps.modifyFromRecord(rec); !errors.Is(err, proto.ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
	// Wrong tag rejected.
	rec.Name = "tgt"
	rec.Tag = proto.TagFile
	if err := ps.modifyFromRecord(rec); !errors.Is(err, proto.ErrBadArgs) {
		t.Fatalf("err = %v", err)
	}
}

func TestTableBytesGrows(t *testing.T) {
	ps, _, _, _ := newPrefixRig(t)
	before := ps.TableBytes()
	if err := ps.Define("another", core.ContextPair{}); err != nil {
		t.Fatal(err)
	}
	if ps.TableBytes() <= before {
		t.Fatal("TableBytes should grow with the table")
	}
}

func TestPrefixProcessingChargesCalibratedCost(t *testing.T) {
	ps, client, _, _ := newPrefixRig(t)
	model := client.Kernel().Model()
	start := client.Now()
	req := &proto.Message{Op: proto.OpQueryObject}
	proto.SetCSName(req, 0, "[tgt]x")
	if _, err := client.Send(req, ps.PID()); err != nil {
		t.Fatal(err)
	}
	elapsed := client.Now() - start
	if elapsed < model.PrefixRewriteCost {
		t.Fatalf("prefixed request cost %v, must include the %v prefix processing", elapsed, model.PrefixRewriteCost)
	}
}
