package core

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/proto"
	"repro/internal/raceflag"
	"repro/internal/trace"
	"repro/internal/vio"
)

// toyServer is a minimal CSNH server over a MapStore: objects are byte
// blobs opened as vio instances, contexts can be listed as context
// directories. It exists to exercise the protocol skeleton; the real
// servers live in their own packages.
type toyServer struct {
	srv   *Server
	store *MapStore
	reg   *vio.Registry

	mu      sync.Mutex
	objects map[uint32][]byte
	nextObj uint32
}

func startToyServer(t *testing.T, h *kernel.Host, name string) *toyServer {
	t.Helper()
	return startToyTeam(t, h, name, 1)
}

func (ts *toyServer) addObject(ctx ContextID, name string, content []byte) uint32 {
	ts.mu.Lock()
	ts.nextObj++
	id := ts.nextObj
	ts.objects[id] = content
	ts.mu.Unlock()
	if err := ts.store.Bind(ctx, name, ObjectEntry(proto.TagFile, id)); err != nil {
		panic(err)
	}
	return id
}

func (ts *toyServer) HandleNamed(req *Request, res *Resolution) *proto.Message {
	switch req.Msg.Op {
	case proto.OpQueryObject:
		if res.Entry == nil {
			return ErrorReplyMsg(proto.ErrNotFound)
		}
		if res.Entry.Kind != EntryObject {
			return ErrorReplyMsg(proto.ErrNotAContext)
		}
		ts.mu.Lock()
		content := ts.objects[res.Entry.Object.ID]
		ts.mu.Unlock()
		d := proto.Descriptor{
			Tag:      proto.TagFile,
			ObjectID: res.Entry.Object.ID,
			Size:     uint32(len(content)),
			Name:     res.Last,
		}
		reply := OkReply()
		reply.Segment = d.AppendEncoded(nil)
		return reply

	case proto.OpCreateInstance:
		mode := proto.OpenMode(req.Msg)
		if mode&proto.ModeDirectory != 0 {
			ctx, ok := res.ResolvesToContext()
			if !ok {
				return ErrorReplyMsg(proto.ErrNotAContext)
			}
			names, err := ts.store.Names(ctx)
			if err != nil {
				return ErrorReplyMsg(err)
			}
			records := make([]proto.Descriptor, 0, len(names))
			for _, n := range names {
				e, err := ts.store.Lookup(ctx, n)
				if err != nil {
					continue
				}
				d := proto.Descriptor{Name: n}
				switch {
				case e.Kind == EntryObject:
					d.Tag = e.Object.Tag
					d.ObjectID = e.Object.ID
				case e.Kind == EntryContext:
					d.Tag = proto.TagDirectory
					d.ObjectID = uint32(e.Local)
				case e.Kind == EntryRemote:
					d.Tag = proto.TagLink
					d.TypeSpecific = [2]uint32{uint32(e.Remote.Server), uint32(e.Remote.Ctx)}
				}
				records = append(records, d)
			}
			info, err := ts.reg.Open(vio.NewDirectoryInstance(proto.EncodeDescriptors(records), 0, nil), res.Name)
			if err != nil {
				return ErrorReplyMsg(err)
			}
			reply := OkReply()
			proto.SetInstanceInfo(reply, info)
			return reply
		}
		if res.Entry == nil || res.Entry.Kind != EntryObject {
			return ErrorReplyMsg(proto.ErrNotFound)
		}
		ts.mu.Lock()
		content := ts.objects[res.Entry.Object.ID]
		ts.mu.Unlock()
		// A read-only stream of the object's bytes.
		info, err := ts.reg.Open(vio.NewDirectoryInstance(content, 0, nil), res.Name)
		if err != nil {
			return ErrorReplyMsg(err)
		}
		reply := OkReply()
		proto.SetInstanceInfo(reply, info)
		return reply

	case proto.OpRemoveObject:
		if res.Entry == nil {
			return ErrorReplyMsg(proto.ErrNotFound)
		}
		if err := ts.store.Unbind(res.Final, res.Last); err != nil {
			return ErrorReplyMsg(err)
		}
		return OkReply()

	default:
		return ErrorReplyMsg(proto.ErrIllegalRequest)
	}
}

func (ts *toyServer) HandleOp(req *Request) *proto.Message {
	if reply := ts.reg.HandleOp(req.Proc(), req.Msg, req.From); reply != nil {
		return reply
	}
	return ErrorReplyMsg(proto.ErrIllegalRequest)
}

func newClientProc(t *testing.T, h *kernel.Host) *kernel.Process {
	t.Helper()
	p, err := h.NewProcess("client")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Destroy)
	return p
}

func TestServerQueryObject(t *testing.T) {
	k := newDomain()
	h := k.NewHost("srv")
	ts := startToyServer(t, h, "toy")
	ts.addObject(CtxDefault, "hello.txt", []byte("hello world"))
	client := newClientProc(t, k.NewHost("ws"))

	req := &proto.Message{Op: proto.OpQueryObject}
	proto.SetCSName(req, uint32(CtxDefault), "hello.txt")
	reply, err := Transact(client, ts.srv.PID(), req)
	if err != nil {
		t.Fatal(err)
	}
	d, _, err := proto.DecodeDescriptor(reply.Segment)
	if err != nil {
		t.Fatal(err)
	}
	if d.Tag != proto.TagFile || d.Name != "hello.txt" || d.Size != 11 {
		t.Fatalf("descriptor = %+v", d)
	}
}

func TestServerQueryMissing(t *testing.T) {
	k := newDomain()
	ts := startToyServer(t, k.NewHost("srv"), "toy")
	client := newClientProc(t, k.NewHost("ws"))
	req := &proto.Message{Op: proto.OpQueryObject}
	proto.SetCSName(req, uint32(CtxDefault), "nope")
	if _, err := Transact(client, ts.srv.PID(), req); !errors.Is(err, proto.ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestServerOpenReadInstance(t *testing.T) {
	k := newDomain()
	ts := startToyServer(t, k.NewHost("srv"), "toy")
	content := strings.Repeat("V-System naming! ", 100)
	ts.addObject(CtxDefault, "doc", []byte(content))
	client := newClientProc(t, k.NewHost("ws"))

	req := &proto.Message{Op: proto.OpCreateInstance}
	proto.SetCSName(req, uint32(CtxDefault), "doc")
	proto.SetOpenMode(req, proto.ModeRead)
	reply, err := Transact(client, ts.srv.PID(), req)
	if err != nil {
		t.Fatal(err)
	}
	f := new(vio.File).Init(client, ts.srv.PID(), proto.GetInstanceInfo(reply))
	got, err := f.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != content {
		t.Fatalf("read %d bytes, want %d", len(got), len(content))
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	q := &proto.Message{Op: proto.OpQueryInstance}
	q.F[0] = uint32(f.InstanceID())
	if _, err := Transact(client, ts.srv.PID(), q); err == nil {
		t.Fatal("instance not released")
	}
}

func TestServerInstanceNameInverse(t *testing.T) {
	k := newDomain()
	ts := startToyServer(t, k.NewHost("srv"), "toy")
	ts.addObject(CtxDefault, "doc", []byte("x"))
	client := newClientProc(t, k.NewHost("ws"))

	req := &proto.Message{Op: proto.OpCreateInstance}
	proto.SetCSName(req, uint32(CtxDefault), "doc")
	proto.SetOpenMode(req, proto.ModeRead)
	reply, err := Transact(client, ts.srv.PID(), req)
	if err != nil {
		t.Fatal(err)
	}
	f := new(vio.File).Init(client, ts.srv.PID(), proto.GetInstanceInfo(reply))
	name, err := f.InstanceName()
	if err != nil || name != "doc" {
		t.Fatalf("InstanceName = %q, %v", name, err)
	}
}

func TestServerContextDirectory(t *testing.T) {
	k := newDomain()
	ts := startToyServer(t, k.NewHost("srv"), "toy")
	ts.store.AddContext(5)
	if err := ts.store.Bind(CtxDefault, "sub", ContextEntry(5)); err != nil {
		t.Fatal(err)
	}
	ts.addObject(CtxDefault, "a.txt", []byte("A"))
	ts.addObject(CtxDefault, "b.txt", []byte("BB"))
	client := newClientProc(t, k.NewHost("ws"))

	req := &proto.Message{Op: proto.OpCreateInstance}
	proto.SetCSName(req, uint32(CtxDefault), "")
	proto.SetOpenMode(req, proto.ModeRead|proto.ModeDirectory)
	reply, err := Transact(client, ts.srv.PID(), req)
	if err != nil {
		t.Fatal(err)
	}
	f := new(vio.File).Init(client, ts.srv.PID(), proto.GetInstanceInfo(reply))
	raw, err := f.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	records, err := proto.DecodeDescriptors(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 3 {
		t.Fatalf("directory has %d records, want 3", len(records))
	}
	byName := make(map[string]proto.Descriptor)
	for _, d := range records {
		byName[d.Name] = d
	}
	if byName["a.txt"].Tag != proto.TagFile || byName["sub"].Tag != proto.TagDirectory {
		t.Fatalf("records = %+v", byName)
	}
}

// mapContext resolves name in pair's context to a fully-qualified context
// pair, one OpMapContext transaction (§5.7).
func mapContext(proc *kernel.Process, pair ContextPair, name string) (ContextPair, error) {
	req := &proto.Message{Op: proto.OpMapContext}
	proto.SetCSName(req, uint32(pair.Ctx), name)
	reply, err := Transact(proc, pair.Server, req)
	if err != nil {
		return ContextPair{}, err
	}
	pid, ctx := proto.GetMapContextReply(reply)
	return ContextPair{Server: kernel.PID(pid), Ctx: ContextID(ctx)}, nil
}

func TestServerMapContext(t *testing.T) {
	k := newDomain()
	ts := startToyServer(t, k.NewHost("srv"), "toy")
	ts.store.AddContext(9)
	if err := ts.store.Bind(CtxDefault, "dir", ContextEntry(9)); err != nil {
		t.Fatal(err)
	}
	client := newClientProc(t, k.NewHost("ws"))

	pair, err := mapContext(client, ts.srv.Pair(CtxDefault), "dir")
	if err != nil {
		t.Fatal(err)
	}
	if pair.Server != ts.srv.PID() || pair.Ctx != 9 {
		t.Fatalf("pair = %v", pair)
	}
}

func TestServerMapContextOnObjectFails(t *testing.T) {
	k := newDomain()
	ts := startToyServer(t, k.NewHost("srv"), "toy")
	ts.addObject(CtxDefault, "obj", []byte("x"))
	client := newClientProc(t, k.NewHost("ws"))
	if _, err := mapContext(client, ts.srv.Pair(CtxDefault), "obj"); !errors.Is(err, proto.ErrNotAContext) {
		t.Fatalf("err = %v", err)
	}
}

// TestServerForwarding is the §5.4 mapping procedure across servers: a
// name that crosses into another server's tree is forwarded with rewritten
// context id and name index, and the final server replies directly to the
// client.
func TestServerForwarding(t *testing.T) {
	k := newDomain()
	tsA := startToyServer(t, k.NewHost("srvA"), "A")
	tsB := startToyServer(t, k.NewHost("srvB"), "B")

	tsB.store.AddContext(30)
	if err := tsB.store.Bind(CtxDefault, "deep", ContextEntry(30)); err != nil {
		t.Fatal(err)
	}
	tsB.addObject(30, "leaf.txt", []byte("payload on B"))
	// A's tree points into B's tree (Figure 4's curved arrow).
	if err := tsA.store.Bind(CtxDefault, "onB", RemoteEntry(tsB.srv.Pair(CtxDefault))); err != nil {
		t.Fatal(err)
	}

	client := newClientProc(t, k.NewHost("ws"))
	req := &proto.Message{Op: proto.OpQueryObject}
	proto.SetCSName(req, uint32(CtxDefault), "onB/deep/leaf.txt")
	reply, err := Transact(client, tsA.srv.PID(), req)
	if err != nil {
		t.Fatal(err)
	}
	d, _, err := proto.DecodeDescriptor(reply.Segment)
	if err != nil {
		t.Fatal(err)
	}
	if d.Name != "leaf.txt" || d.Size != uint32(len("payload on B")) {
		t.Fatalf("descriptor = %+v", d)
	}
}

// TestServerForwardedMapContext: mapping a name that lands on another
// server returns the *final* server's pid in the reply, which is why the
// reply carries the pid explicitly.
func TestServerForwardedMapContext(t *testing.T) {
	k := newDomain()
	tsA := startToyServer(t, k.NewHost("srvA"), "A")
	tsB := startToyServer(t, k.NewHost("srvB"), "B")
	tsB.store.AddContext(30)
	if err := tsB.store.Bind(CtxDefault, "deep", ContextEntry(30)); err != nil {
		t.Fatal(err)
	}
	if err := tsA.store.Bind(CtxDefault, "onB", RemoteEntry(tsB.srv.Pair(CtxDefault))); err != nil {
		t.Fatal(err)
	}

	client := newClientProc(t, k.NewHost("ws"))
	pair, err := mapContext(client, tsA.srv.Pair(CtxDefault), "onB/deep")
	if err != nil {
		t.Fatal(err)
	}
	if pair.Server != tsB.srv.PID() || pair.Ctx != 30 {
		t.Fatalf("pair = %v, want server B ctx 30", pair)
	}
}

// TestServerForwardingUnknownOp: a CSNH server can forward a CSname
// request whose operation code it does not understand, because the
// standard fields suffice for interpretation (§5.3).
func TestServerForwardingUnknownOp(t *testing.T) {
	k := newDomain()
	tsA := startToyServer(t, k.NewHost("srvA"), "A")
	tsB := startToyServer(t, k.NewHost("srvB"), "B")
	tsB.addObject(CtxDefault, "obj", []byte("remote object"))
	if err := tsA.store.Bind(CtxDefault, "onB", RemoteEntry(tsB.srv.Pair(CtxDefault))); err != nil {
		t.Fatal(err)
	}
	client := newClientProc(t, k.NewHost("ws"))

	// RemoveObject is "unknown" to A in the sense that A never resolves
	// it locally here; it must still forward cleanly.
	req := &proto.Message{Op: proto.OpRemoveObject}
	proto.SetCSName(req, uint32(CtxDefault), "onB/obj")
	if _, err := Transact(client, tsA.srv.PID(), req); err != nil {
		t.Fatal(err)
	}
	// The object is gone from B.
	q := &proto.Message{Op: proto.OpQueryObject}
	proto.SetCSName(q, uint32(CtxDefault), "obj")
	if _, err := Transact(client, tsB.srv.PID(), q); !errors.Is(err, proto.ErrNotFound) {
		t.Fatalf("object should have been removed on B: %v", err)
	}
}

func TestServerForwardChainThreeServers(t *testing.T) {
	k := newDomain()
	tsA := startToyServer(t, k.NewHost("a"), "A")
	tsB := startToyServer(t, k.NewHost("b"), "B")
	tsC := startToyServer(t, k.NewHost("c"), "C")
	tsC.addObject(CtxDefault, "leaf", []byte("three hops"))
	if err := tsB.store.Bind(CtxDefault, "toC", RemoteEntry(tsC.srv.Pair(CtxDefault))); err != nil {
		t.Fatal(err)
	}
	if err := tsA.store.Bind(CtxDefault, "toB", RemoteEntry(tsB.srv.Pair(CtxDefault))); err != nil {
		t.Fatal(err)
	}
	client := newClientProc(t, k.NewHost("ws"))
	req := &proto.Message{Op: proto.OpQueryObject}
	proto.SetCSName(req, uint32(CtxDefault), "toB/toC/leaf")
	reply, err := Transact(client, tsA.srv.PID(), req)
	if err != nil {
		t.Fatal(err)
	}
	d, _, err := proto.DecodeDescriptor(reply.Segment)
	if err != nil || d.Name != "leaf" {
		t.Fatalf("descriptor = %+v, %v", d, err)
	}
}

func TestServerForwardToDeadServerFailsClient(t *testing.T) {
	k := newDomain()
	tsA := startToyServer(t, k.NewHost("a"), "A")
	deadPair := ContextPair{Server: kernel.MakePID(99, 1), Ctx: CtxDefault}
	if err := tsA.store.Bind(CtxDefault, "dangling", RemoteEntry(deadPair)); err != nil {
		t.Fatal(err)
	}
	client := newClientProc(t, k.NewHost("ws"))
	req := &proto.Message{Op: proto.OpQueryObject}
	proto.SetCSName(req, uint32(CtxDefault), "dangling/x")
	if _, err := Transact(client, tsA.srv.PID(), req); !errors.Is(err, kernel.ErrNonexistentProcess) {
		t.Fatalf("err = %v", err)
	}
}

func TestServerBadCSNameFields(t *testing.T) {
	k := newDomain()
	ts := startToyServer(t, k.NewHost("srv"), "toy")
	client := newClientProc(t, k.NewHost("ws"))
	req := &proto.Message{Op: proto.OpQueryObject}
	proto.SetCSName(req, uint32(CtxDefault), "abc")
	req.F[2] = 1000 // corrupt name length
	if _, err := Transact(client, ts.srv.PID(), req); !errors.Is(err, proto.ErrBadArgs) {
		t.Fatalf("err = %v", err)
	}
}

func TestServerIllegalOp(t *testing.T) {
	k := newDomain()
	ts := startToyServer(t, k.NewHost("srv"), "toy")
	client := newClientProc(t, k.NewHost("ws"))
	req := &proto.Message{Op: proto.Code(0x4242)}
	if _, err := Transact(client, ts.srv.PID(), req); !errors.Is(err, proto.ErrIllegalRequest) {
		t.Fatalf("err = %v", err)
	}
}

func TestTransactMapsKernelErrors(t *testing.T) {
	k := newDomain()
	client := newClientProc(t, k.NewHost("ws"))
	req := &proto.Message{Op: proto.OpEcho}
	if _, err := Transact(client, kernel.MakePID(9, 9), req); !errors.Is(err, kernel.ErrNonexistentProcess) {
		t.Fatalf("err = %v", err)
	}
}

func TestIsNotFoundHelper(t *testing.T) {
	if !IsNotFound(proto.ErrNotFound) || IsNotFound(proto.ErrBadContext) || IsNotFound(nil) {
		t.Fatal("IsNotFound misclassifies")
	}
}

// TestServerSeries reads a server's protocol activity from the registry
// series A14 and vstat read: a forward is counted by the server that
// passed it on, an answer (and a failure) by the one that answered.
func TestServerSeries(t *testing.T) {
	k := newDomain()
	reg := metrics.New()
	k.SetMetrics(reg)
	tsA := startToyServer(t, k.NewHost("srvA"), "A")
	tsB := startToyServer(t, k.NewHost("srvB"), "B")
	tsB.addObject(CtxDefault, "obj", []byte("x"))
	if err := tsA.store.Bind(CtxDefault, "onB", RemoteEntry(tsB.srv.Pair(CtxDefault))); err != nil {
		t.Fatal(err)
	}
	client := newClientProc(t, k.NewHost("ws"))

	// One forwarded query, one local failure, one non-name op.
	req := &proto.Message{Op: proto.OpQueryObject}
	proto.SetCSName(req, uint32(CtxDefault), "onB/obj")
	if _, err := Transact(client, tsA.srv.PID(), req); err != nil {
		t.Fatal(err)
	}
	bad := &proto.Message{Op: proto.OpQueryObject}
	proto.SetCSName(bad, uint32(CtxDefault), "missing")
	if _, err := Transact(client, tsA.srv.PID(), bad); !errors.Is(err, proto.ErrNotFound) {
		t.Fatal(err)
	}
	if _, err := Transact(client, tsA.srv.PID(), &proto.Message{Op: proto.OpQueryInstance}); err == nil {
		t.Fatal("expected instance error")
	}

	a := counted(reg, "A")
	if a["server_requests_total"] != 2 || a["server_forwarded_total"] != 1 || a["server_failures_total"] != 2 {
		t.Fatalf("A counters = %v", a)
	}
	b := counted(reg, "B")
	if b["server_requests_total"] != 1 || b["server_forwarded_total"] != 0 || b["server_failures_total"] != 0 {
		t.Fatalf("B counters = %v", b)
	}
}

// TestMapContextAnswersInRequest pins the serve path's allocation
// contract: an untraced OpMapContext through a team-of-one Server is
// answered in the request itself and allocates nothing, an empty name or
// not: the name is read where it lies in the request's segment. The
// request's resolution lives in the server's reused storage, and the
// kernel transaction and the serving turn allocate nothing.
func TestMapContextAnswersInRequest(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("AllocsPerRun counts the race detector's own allocations")
	}
	h := newDomain().NewHost("srv")
	ts := startToyServer(t, h, "toy")
	ts.store.AddContext(7)
	if err := ts.store.Bind(CtxDefault, "users", ContextEntry(7)); err != nil {
		t.Fatal(err)
	}
	client := newClientProc(t, h)
	for name, want := range map[string]float64{"": 0, "users": 0} {
		req := &proto.Message{}
		send := func() {
			// Re-initialised per call: the last answer landed in it.
			*req = proto.Message{Op: proto.OpMapContext, Segment: req.Segment}
			proto.SetCSName(req, uint32(CtxDefault), name)
			reply, err := client.Send(req, ts.srv.PID())
			if err != nil || reply != req || reply.Op != proto.ReplyOK {
				t.Fatalf("MapContext %q: reply %v (request %p), err %v", name, reply, req, err)
			}
		}
		// Warm the sender's record and the pending table before counting.
		for i := 0; i < 64; i++ {
			send()
		}
		if allocs := testing.AllocsPerRun(1000, send); allocs != want {
			t.Errorf("MapContext %q: %v allocs/op, want %v", name, allocs, want)
		}
	}
}

// TestWholeFileReadCountsNoFailure: the end-of-file answer that ends a
// whole-file read is how the protocol says "no more", not a failure. The
// server counts every ReadInstance it answered, that one included, and
// no failure; the serve span still carries the answer's class.
func TestWholeFileReadCountsNoFailure(t *testing.T) {
	k := newDomain()
	reg, tr := metrics.New(), trace.New()
	k.SetMetrics(reg)
	k.SetTracer(tr)
	ts := startToyServer(t, k.NewHost("srv"), "toy")
	content := strings.Repeat("V-System naming!", 4*vio.DefaultBlockSize/16)
	ts.addObject(CtxDefault, "doc", []byte(content))
	client := newClientProc(t, k.NewHost("ws"))

	req := &proto.Message{Op: proto.OpCreateInstance}
	proto.SetCSName(req, uint32(CtxDefault), "doc")
	proto.SetOpenMode(req, proto.ModeRead)
	reply, err := Transact(client, ts.srv.PID(), req)
	if err != nil {
		t.Fatal(err)
	}
	f := new(vio.File).Init(client, ts.srv.PID(), proto.GetInstanceInfo(reply))
	if got, err := f.ReadAll(); err != nil || string(got) != content {
		t.Fatalf("ReadAll = %d bytes, %v", len(got), err)
	}
	reads := uint64(0)
	for _, c := range reg.Snapshot().Counters {
		switch {
		case c.Labels.Server != "toy":
		case c.Name == "server_failures_total":
			t.Errorf("%s{op=%q} = %d after a whole-file read", c.Name, c.Labels.Op, c.Value)
		case c.Name == "server_requests_total" && c.Labels.Op == proto.OpReadInstance.String():
			reads = c.Value
		}
	}
	// Four whole blocks, then the block past them twice: once to end
	// ReadAll's first window, once to end the file. Both answer
	// end-of-file.
	if want := uint64(6); reads != want {
		t.Fatalf("server_requests_total{op=ReadInstance} = %d, want %d", reads, want)
	}
	eof := 0
	for _, sp := range tr.Snapshot() {
		if sp.Kind == trace.KindServe && sp.Err == proto.ReplyEndOfFile.String() {
			eof++
		}
	}
	if eof != 2 {
		t.Fatalf("%d serve spans carry class %s, want 2", eof, proto.ReplyEndOfFile)
	}
}
