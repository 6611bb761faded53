package prefix

import (
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/netsim"
	"repro/internal/proto"
	"repro/internal/vio"
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

// serveTarget starts a toy target server, a served process named name on
// h: it answers every request ReplyOK with the request's context id in
// F[0], first handing seen a copy of the request unless seen is nil.
func serveTarget(t *testing.T, h *kernel.Host, name string, seen chan<- *proto.Message) *kernel.Process {
	t.Helper()
	p, err := h.NewProcess(name)
	if err != nil {
		t.Fatal(err)
	}
	p.Serve(func(msg *proto.Message, from kernel.PID) {
		if seen != nil {
			seen <- msg.Clone()
		}
		reply := proto.NewReply(proto.ReplyOK)
		reply.F[0] = msg.F[0] // echo context id back
		_ = p.Reply(reply, from)
	})
	return p
}

// newPrefixRig builds a minimal domain: one workstation with a prefix
// server, plus a toy target server that records what reaches it.
func newPrefixRig(t *testing.T) (*Server, *kernel.Process, *kernel.Process, chan *proto.Message) {
	t.Helper()
	k := kernel.New(netsim.New(vtime.DefaultModel(), 1))
	ws := k.NewHost("ws")
	seen := make(chan *proto.Message, 16)
	target := serveTarget(t, k.NewHost("srv"), "target", seen)

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

// TestInverseResolutionEndToEnd follows OpGetContextName through a served
// prefix server while the names bound to one pair come and go by every
// route the table has — protocol add and delete, a directory-record
// write, DefineAll merging into a non-empty table, a snapshot Restore —
// and requires the sorted first match each time. A dynamic binding whose
// (service, context) pair reads like the static one, under a name smaller
// than all of them, is never the answer.
func TestInverseResolutionEndToEnd(t *testing.T) {
	pair, other := core.ContextPair{Server: 7, Ctx: 1}, core.ContextPair{Server: 7, Ctx: 2}
	five := []string{"m3", "m1", "m5", "m2", "m4"}
	pairs := []core.ContextPair{pair, pair, pair, pair, pair}
	routes := map[string]func(t *testing.T, ps *Server){
		"Define": func(t *testing.T, ps *Server) {
			for _, name := range five {
				if err := ps.Define(name, pair); err != nil {
					t.Fatal(err)
				}
			}
		},
		"DefineAll into a non-empty table": func(t *testing.T, ps *Server) {
			if err := ps.DefineAll(five[:2], pairs[:2]); err != nil {
				t.Fatal(err)
			}
			if err := ps.DefineAll(five[2:], pairs[2:]); err != nil {
				t.Fatal(err)
			}
		},
		"Restore": func(t *testing.T, ps *Server) {
			// What Restore replaces held the pair too, under a smaller name.
			if err := ps.Define("a.stale", pair); err != nil {
				t.Fatal(err)
			}
			proc, err := ps.Proc().Kernel().NewHost("peer").NewProcess("peer")
			if err != nil {
				t.Fatal(err)
			}
			defer proc.Destroy()
			src := New(proc, "mann")
			if err := src.DefineDynamic("a.dynamic", kernel.Service(pair.Server), pair.Ctx); err != nil {
				t.Fatal(err)
			}
			if err := src.DefineAll(append([]string{"tgt"}, five...), append([]core.ContextPair{other}, pairs...)); err != nil {
				t.Fatal(err)
			}
			if err := NewReplicaService(ps).Restore(nil, NewReplicaService(src).Snapshot()); err != nil {
				t.Fatal(err)
			}
		},
	}
	for route, bind := range routes {
		t.Run(route, func(t *testing.T) {
			ps, client, _, _ := newPrefixRig(t)
			send := func(req *proto.Message) *proto.Message {
				t.Helper()
				reply, err := client.Send(req, ps.PID())
				if err != nil {
					t.Fatal(err)
				}
				return reply
			}
			inverse := func(want string) {
				t.Helper()
				req := &proto.Message{Op: proto.OpGetContextName}
				req.F[0], req.F[1] = uint32(pair.Ctx), uint32(pair.Server)
				reply := send(req)
				if want == "" && reply.Op == proto.ReplyNotFound {
					return
				}
				if reply.Op != proto.ReplyOK || string(reply.Segment) != want {
					t.Fatalf("inverse of %v = %v %q, want %q", pair, reply.Op, reply.Segment, want)
				}
			}
			remove := func(name string) {
				t.Helper()
				del := &proto.Message{Op: proto.OpDeleteContextName}
				proto.SetCSName(del, 0, name)
				if reply := send(del); reply.Op != proto.ReplyOK {
					t.Fatalf("delete %q: %v", name, reply.Op)
				}
			}
			inverse("")
			if err := ps.DefineDynamic("a.dynamic", kernel.Service(pair.Server), pair.Ctx); err != nil {
				t.Fatal(err)
			}
			bind(t, ps)
			inverse("[m1]")
			remove("m1")
			inverse("[m2]")

			// Rebind m2 elsewhere by writing its record into the open
			// context directory (§5.6).
			open := &proto.Message{Op: proto.OpCreateInstance}
			proto.SetCSName(open, 0, "")
			proto.SetOpenMode(open, proto.ModeDirectory|proto.ModeRead|proto.ModeWrite)
			opened := send(open)
			if opened.Op != proto.ReplyOK {
				t.Fatalf("open context directory: %v", opened.Op)
			}
			rec := proto.Descriptor{Tag: proto.TagContextPrefix, Name: "m2",
				TypeSpecific: [2]uint32{uint32(other.Server), uint32(other.Ctx)}}
			write := &proto.Message{Op: proto.OpWriteInstance, Segment: rec.AppendEncoded(nil)}
			write.F[0] = uint32(proto.GetInstanceInfo(opened).ID)
			if reply := send(write); reply.Op != proto.ReplyOK {
				t.Fatalf("write record: %v", reply.Op)
			}
			if got := ps.Bindings()["m2"].Pair; got != other {
				t.Fatalf("m2 after the record write is bound to %v", got)
			}
			inverse("[m3]")

			add := &proto.Message{Op: proto.OpAddContextName}
			proto.SetCSName(add, 0, "m0")
			proto.SetAddContextTarget(add, uint32(pair.Server), uint32(pair.Ctx))
			if reply := send(add); reply.Op != proto.ReplyOK {
				t.Fatalf("add m0: %v", reply.Op)
			}
			inverse("[m0]")
			for _, name := range []string{"m0", "m3", "m4"} {
				remove(name)
			}
			inverse("[m5]")
			remove("m5")
			inverse("")
			if _, ok := ps.Bindings()["a.dynamic"]; !ok {
				t.Fatal("the dynamic binding went missing")
			}
		})
	}
}

// TestPackedEntryDropsNothing: the table stores one arm of a Binding, and
// every way of making an entry sets one arm, so what comes back out — by
// Bindings and by Snapshot — is what went in. The snapshot bytes are the
// ones the same calls produced while the entry still held a whole
// Binding.
func TestPackedEntryDropsNothing(t *testing.T) {
	k := kernel.New(netsim.New(vtime.DefaultModel(), 1))
	proc, err := k.NewHost("ws").NewProcess("prefix")
	if err != nil {
		t.Fatal(err)
	}
	defer proc.Destroy()
	ps := New(proc, "mann")
	record := func(name string, dynamic uint32, a, b uint32) proto.Descriptor {
		return proto.Descriptor{Tag: proto.TagContextPrefix, Name: name, ObjectID: dynamic, TypeSpecific: [2]uint32{a, b}}
	}
	for _, err := range []error{
		ps.Define("storage", core.ContextPair{Server: 0x2A0001, Ctx: 7}),
		ps.DefineDynamic("bin", kernel.ServiceStorage, core.CtxStdPrograms),
		ps.DefineAll([]string{"x", "[y]"}, []core.ContextPair{{Server: 9, Ctx: 1}, {Server: 9, Ctx: 0xFFFFFFFF}}),
		ps.modifyFromRecord(record("x", 1, uint32(kernel.ServiceMail), 3)),
		ps.modifyFromRecord(record("bin", 0, 0x10002, 5)),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	want := map[string]Binding{
		"bin":     {Pair: core.ContextPair{Server: 0x10002, Ctx: 5}},
		"storage": {Pair: core.ContextPair{Server: 0x2A0001, Ctx: 7}},
		"x":       {Dynamic: true, Service: kernel.ServiceMail, WellKnown: 3},
		"y":       {Pair: core.ContextPair{Server: 9, Ctx: 0xFFFFFFFF}},
	}
	const image = "040362696e00828004050773746f72616765008180a80107017801070301790009ffffffff0f"
	check := func(ps *Server) {
		t.Helper()
		if got := ps.Bindings(); !reflect.DeepEqual(got, want) {
			t.Fatalf("table = %+v, want %+v", got, want)
		}
		if got := hex.EncodeToString(NewReplicaService(ps).Snapshot()); got != image {
			t.Fatalf("snapshot = %s, want %s", got, image)
		}
	}
	check(ps)
	restored := New(proc, "mann")
	img, _ := hex.DecodeString(image)
	if err := NewReplicaService(restored).Restore(nil, img); err != nil {
		t.Fatal(err)
	}
	check(restored)
}

// TestDirectoryWriteSpansBlocks: writing prefix records back through the
// opened table directory redefines every one of them (§5.6), though
// File.Write splits the 20 records of 44 bytes at a block boundary inside
// a record.
func TestDirectoryWriteSpansBlocks(t *testing.T) {
	ps, client, target, _ := newPrefixRig(t)
	records := make([]proto.Descriptor, 20)
	for i := range records {
		name := fmt.Sprintf("pfx-%04d", i)
		if err := ps.Define(name, core.ContextPair{Server: target.PID(), Ctx: 1}); err != nil {
			t.Fatal(err)
		}
		records[i] = proto.Descriptor{Tag: proto.TagContextPrefix, Name: name, Owner: "mann",
			TypeSpecific: [2]uint32{uint32(target.PID()), uint32(100 + i)}}
	}
	open := &proto.Message{Op: proto.OpCreateInstance}
	proto.SetCSName(open, 0, "")
	proto.SetOpenMode(open, proto.ModeDirectory|proto.ModeRead|proto.ModeWrite)
	opened, err := client.Send(open, ps.PID())
	if err != nil || opened.Op != proto.ReplyOK {
		t.Fatalf("open context directory: %v, %v", opened, err)
	}
	dir := vio.NewFile(client, ps.PID(), proto.GetInstanceInfo(opened))
	stream := proto.EncodeDescriptors(records)
	if n, err := dir.Write(stream); n != 880 || len(stream) != 880 || err != nil {
		t.Fatalf("Write of %d bytes = %d, %v", len(stream), n, err)
	}
	bindings := ps.Bindings()
	for i, rec := range records {
		if got := bindings[rec.Name].Pair.Ctx; got != core.ContextID(100+i) {
			t.Fatalf("%s after the write is bound to context %d, want %d", rec.Name, got, 100+i)
		}
	}
}
