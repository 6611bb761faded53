package fileserver

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/netsim"
	"repro/internal/proto"
	"repro/internal/vio"
	"repro/internal/vtime"
)

func startFS(t *testing.T) (*FileServer, *kernel.Process) {
	t.Helper()
	k := kernel.New(netsim.New(vtime.DefaultModel(), 1))
	host := k.NewHost("fs")
	fs, err := Start(host, "test")
	if err != nil {
		t.Fatal(err)
	}
	clientHost := k.NewHost("ws")
	client, err := clientHost.NewProcess("client")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		fs.Proc().Destroy()
		client.Destroy()
	})
	return fs, client
}

func send(t *testing.T, client *kernel.Process, fs *FileServer, req *proto.Message) *proto.Message {
	t.Helper()
	reply, err := client.Send(req, fs.PID())
	if err != nil {
		t.Fatal(err)
	}
	return reply
}

// query is the description record of the object at path as client sees
// it: one OpQueryObject, path relative to the root context.
func query(client *kernel.Process, fs *FileServer, path string) (proto.Descriptor, error) {
	req := &proto.Message{Op: proto.OpQueryObject}
	proto.SetCSName(req, uint32(core.CtxDefault), path)
	reply, err := core.Transact(client, fs.PID(), req)
	if err != nil {
		return proto.Descriptor{}, err
	}
	d, _, err := proto.DecodeDescriptor(reply.Segment)
	return d, err
}

func TestMkdirAllIdempotent(t *testing.T) {
	fs, _ := startFS(t)
	a, err := fs.MkdirAll("/x/y/z", "o")
	if err != nil {
		t.Fatal(err)
	}
	b, err := fs.MkdirAll("/x/y/z", "o")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("MkdirAll not idempotent: %v vs %v", a, b)
	}
}

func TestMkdirAllThroughFile(t *testing.T) {
	fs, _ := startFS(t)
	if err := fs.WriteFile("/x/file", "o", []byte("data")); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.MkdirAll("/x/file/sub", "o"); !errors.Is(err, proto.ErrNotAContext) {
		t.Fatalf("err = %v", err)
	}
}

func TestWriteFileReplaces(t *testing.T) {
	fs, _ := startFS(t)
	if err := fs.WriteFile("/f", "o", []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/f", "o", []byte("second")); err != nil {
		t.Fatal(err)
	}
	d, err := fs.vol.describe(core.CtxDefault, "f")
	if err != nil || d.Size != 6 {
		t.Fatalf("descriptor = %+v, %v", d, err)
	}
}

func TestWriteFileOverDirectoryFails(t *testing.T) {
	fs, _ := startFS(t)
	if _, err := fs.MkdirAll("/d", "o"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/d", "o", nil); !errors.Is(err, proto.ErrDuplicateName) {
		t.Fatalf("err = %v", err)
	}
}

func TestOpenCreateAndEOF(t *testing.T) {
	fs, client := startFS(t)
	req := &proto.Message{Op: proto.OpCreateInstance}
	proto.SetCSName(req, uint32(core.CtxDefault), "new.txt")
	proto.SetOpenMode(req, proto.ModeRead|proto.ModeWrite|proto.ModeCreate)
	reply := send(t, client, fs, req)
	if reply.Op != proto.ReplyOK {
		t.Fatalf("open reply = %v", reply.Op)
	}
	f := new(vio.File).Init(client, fs.PID(), proto.GetInstanceInfo(reply))
	if _, err := f.Write([]byte("contents")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Seek(0, 0); err != nil {
		t.Fatal(err)
	}
	got, err := f.ReadAll()
	if err != nil || string(got) != "contents" {
		t.Fatalf("read %q, %v", got, err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	q := &proto.Message{Op: proto.OpQueryInstance}
	q.F[0] = uint32(f.InstanceID())
	if reply := send(t, client, fs, q); reply.Op == proto.ReplyOK {
		t.Fatal("instance leaked")
	}
}

func TestOpenWithoutCreateFails(t *testing.T) {
	fs, client := startFS(t)
	req := &proto.Message{Op: proto.OpCreateInstance}
	proto.SetCSName(req, uint32(core.CtxDefault), "absent")
	proto.SetOpenMode(req, proto.ModeRead)
	if reply := send(t, client, fs, req); reply.Op != proto.ReplyNotFound {
		t.Fatalf("reply = %v", reply.Op)
	}
}

func TestOpenDirectoryWithoutModeFails(t *testing.T) {
	fs, client := startFS(t)
	if _, err := fs.MkdirAll("/d", "o"); err != nil {
		t.Fatal(err)
	}
	req := &proto.Message{Op: proto.OpCreateInstance}
	proto.SetCSName(req, uint32(core.CtxDefault), "d")
	proto.SetOpenMode(req, proto.ModeRead)
	if reply := send(t, client, fs, req); reply.Op != proto.ReplyModeNotSupported {
		t.Fatalf("reply = %v", reply.Op)
	}
}

func TestTruncateOnOpen(t *testing.T) {
	fs, client := startFS(t)
	if err := fs.WriteFile("/f", "o", []byte("old contents")); err != nil {
		t.Fatal(err)
	}
	req := &proto.Message{Op: proto.OpCreateInstance}
	proto.SetCSName(req, uint32(core.CtxDefault), "f")
	proto.SetOpenMode(req, proto.ModeWrite|proto.ModeTruncate)
	reply := send(t, client, fs, req)
	info := proto.GetInstanceInfo(reply)
	if info.SizeBytes != 0 {
		t.Fatalf("size after truncate = %d", info.SizeBytes)
	}
}

func TestRemoveDirectorySemantics(t *testing.T) {
	fs, client := startFS(t)
	if err := fs.WriteFile("/d/f", "o", []byte("x")); err != nil {
		t.Fatal(err)
	}
	rm := func(name string) proto.Code {
		req := &proto.Message{Op: proto.OpRemoveObject}
		proto.SetCSName(req, uint32(core.CtxDefault), name)
		return send(t, client, fs, req).Op
	}
	if got := rm("d"); got != proto.ReplyNotEmpty {
		t.Fatalf("remove non-empty dir = %v", got)
	}
	if got := rm("d/f"); got != proto.ReplyOK {
		t.Fatalf("remove file = %v", got)
	}
	if got := rm("d"); got != proto.ReplyOK {
		t.Fatalf("remove empty dir = %v", got)
	}
	if got := rm("d"); got != proto.ReplyNotFound {
		t.Fatalf("remove again = %v", got)
	}
}

func TestRenameDuplicateTargetFails(t *testing.T) {
	fs, client := startFS(t)
	if err := fs.WriteFile("/a", "o", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/b", "o", []byte("y")); err != nil {
		t.Fatal(err)
	}
	req := &proto.Message{Op: proto.OpRenameObject}
	proto.SetCSName(req, uint32(core.CtxDefault), "a")
	proto.AppendNewName(req, "b")
	if reply := send(t, client, fs, req); reply.Op != proto.ReplyDuplicateName {
		t.Fatalf("reply = %v", reply.Op)
	}
}

func TestGetContextNamePath(t *testing.T) {
	fs, client := startFS(t)
	ctx, err := fs.MkdirAll("/users/mann/notes", "mann")
	if err != nil {
		t.Fatal(err)
	}
	req := &proto.Message{Op: proto.OpGetContextName}
	req.F[0] = uint32(ctx)
	reply := send(t, client, fs, req)
	if reply.Op != proto.ReplyOK || string(reply.Segment) != "/users/mann/notes" {
		t.Fatalf("path = %q (%v)", reply.Segment, reply.Op)
	}
	// Root names itself "/".
	req2 := &proto.Message{Op: proto.OpGetContextName}
	req2.F[0] = uint32(core.CtxDefault)
	reply = send(t, client, fs, req2)
	if string(reply.Segment) != "/" {
		t.Fatalf("root path = %q", reply.Segment)
	}
	// Unknown context.
	req3 := &proto.Message{Op: proto.OpGetContextName}
	req3.F[0] = 0xDEAD
	if reply = send(t, client, fs, req3); reply.Op != proto.ReplyBadContext {
		t.Fatalf("reply = %v", reply.Op)
	}
}

func TestInverseMappingAfterRename(t *testing.T) {
	// §6: the inverse mapping reflects the object's *current* name, which
	// may not be the name the context was obtained under.
	fs, client := startFS(t)
	ctx, err := fs.MkdirAll("/old/place", "o")
	if err != nil {
		t.Fatal(err)
	}
	req := &proto.Message{Op: proto.OpRenameObject}
	proto.SetCSName(req, uint32(core.CtxDefault), "old/place")
	proto.AppendNewName(req, "old/renamed")
	if reply := send(t, client, fs, req); reply.Op != proto.ReplyOK {
		t.Fatalf("rename = %v", reply.Op)
	}
	nameReq := &proto.Message{Op: proto.OpGetContextName}
	nameReq.F[0] = uint32(ctx)
	reply := send(t, client, fs, nameReq)
	if string(reply.Segment) != "/old/renamed" {
		t.Fatalf("path after rename = %q", reply.Segment)
	}
}

func TestWellKnownContexts(t *testing.T) {
	fs, client := startFS(t)
	if err := fs.WriteFile("/bin/cc", "sys", []byte("img")); err != nil {
		t.Fatal(err)
	}
	if err := fs.SetWellKnown(core.CtxStdPrograms, "/bin"); err != nil {
		t.Fatal(err)
	}
	req := &proto.Message{Op: proto.OpQueryObject}
	proto.SetCSName(req, uint32(core.CtxStdPrograms), "cc")
	reply := send(t, client, fs, req)
	if reply.Op != proto.ReplyOK {
		t.Fatalf("reply = %v", reply.Op)
	}
	// Unconfigured well-known id is a bad context.
	req2 := &proto.Message{Op: proto.OpQueryObject}
	proto.SetCSName(req2, uint32(core.CtxHome), "cc")
	if reply = send(t, client, fs, req2); reply.Op != proto.ReplyBadContext {
		t.Fatalf("reply = %v", reply.Op)
	}
}

func TestDotDotNavigation(t *testing.T) {
	fs, client := startFS(t)
	if err := fs.WriteFile("/a/b/f", "o", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/a/sibling", "o", []byte("y")); err != nil {
		t.Fatal(err)
	}
	ctx, err := fs.MkdirAll("/a/b", "o")
	if err != nil {
		t.Fatal(err)
	}
	req := &proto.Message{Op: proto.OpQueryObject}
	proto.SetCSName(req, uint32(ctx), "../sibling")
	reply := send(t, client, fs, req)
	if reply.Op != proto.ReplyOK {
		t.Fatalf("reply = %v", reply.Op)
	}
	d, _, err := proto.DecodeDescriptor(reply.Segment)
	if err != nil || d.Name != "sibling" {
		t.Fatalf("descriptor = %+v, %v", d, err)
	}
}

func TestAddLinkValidation(t *testing.T) {
	fs, _ := startFS(t)
	target := core.ContextPair{Server: kernel.MakePID(9, 9), Ctx: 1}
	if err := fs.AddLink("/links", "x", target); err != nil {
		t.Fatal(err)
	}
	if err := fs.AddLink("/links", "x", target); !errors.Is(err, proto.ErrDuplicateName) {
		t.Fatalf("err = %v", err)
	}
}

// TestLinkNamedDotDotRefused: "..", "." and "" are names no lookup
// reaches — the first two resolve to the directories themselves — so a
// link may not be bound under them, as no file or directory may, and a
// refused link leaves the directory as it was.
func TestLinkNamedDotDotRefused(t *testing.T) {
	fs, _ := startFS(t)
	target := core.ContextPair{Server: kernel.MakePID(9, 9), Ctx: 1}
	if _, err := fs.MkdirAll("/links/sub", ""); err != nil {
		t.Fatal(err)
	}
	image := fs.Image()
	for _, name := range []string{"..", ".", ""} {
		if err := fs.AddLink("/links/sub", name, target); !errors.Is(err, proto.ErrBadArgs) {
			t.Errorf("link named %q: err = %v, want BadArgs", name, err)
		}
	}
	if !bytes.Equal(fs.Image(), image) {
		t.Fatal("a refused link changed the volume")
	}
}

func TestRemoveLinkBinding(t *testing.T) {
	// OpDeleteContextName removes the local binding of a cross-server
	// link without contacting the (here: long dead) remote server; a
	// plain OpRemoveObject on the same name follows the §5.4 forwarding
	// rule and fails on the dead target.
	fs, client := startFS(t)
	target := core.ContextPair{Server: kernel.MakePID(9, 9), Ctx: 1}
	if err := fs.AddLink("/", "remote", target); err != nil {
		t.Fatal(err)
	}
	rm := &proto.Message{Op: proto.OpRemoveObject}
	proto.SetCSName(rm, uint32(core.CtxDefault), "remote")
	if _, err := client.Send(rm, fs.PID()); !errors.Is(err, kernel.ErrNonexistentProcess) {
		t.Fatalf("remove-through-link err = %v", err)
	}

	del := &proto.Message{Op: proto.OpDeleteContextName}
	proto.SetCSName(del, uint32(core.CtxDefault), "remote")
	if reply := send(t, client, fs, del); reply.Op != proto.ReplyOK {
		t.Fatalf("delete binding reply = %v", reply.Op)
	}
	q := &proto.Message{Op: proto.OpQueryObject}
	proto.SetCSName(q, uint32(core.CtxDefault), "remote")
	if reply := send(t, client, fs, q); reply.Op != proto.ReplyNotFound {
		t.Fatalf("query after unlink = %v", reply.Op)
	}
}

func TestLoadProgramMissingFile(t *testing.T) {
	fs, client := startFS(t)
	req := &proto.Message{Op: proto.OpLoadProgram}
	proto.SetCSName(req, uint32(core.CtxDefault), "ghost")
	buf := make([]byte, 16)
	reply, err := client.SendMove(req, fs.PID(), nil, buf)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Op != proto.ReplyNotFound {
		t.Fatalf("reply = %v", reply.Op)
	}
}

func TestReadChargesDiskTime(t *testing.T) {
	fs, client := startFS(t)
	if err := fs.WriteFile("/f", "o", make([]byte, 512)); err != nil {
		t.Fatal(err)
	}
	req := &proto.Message{Op: proto.OpCreateInstance}
	proto.SetCSName(req, uint32(core.CtxDefault), "f")
	proto.SetOpenMode(req, proto.ModeRead)
	reply := send(t, client, fs, req)
	f := new(vio.File).Init(client, fs.PID(), proto.GetInstanceInfo(reply))
	start := client.Now()
	if _, err := f.ReadBlock(0, nil); err != nil {
		t.Fatal(err)
	}
	elapsed := client.Now() - start
	if elapsed < 15*time.Millisecond {
		t.Fatalf("first page read cost %v, must include the 15 ms disk fetch", elapsed)
	}
}

func TestWriteIsWriteBehind(t *testing.T) {
	fs, client := startFS(t)
	if err := fs.WriteFile("/f", "o", nil); err != nil {
		t.Fatal(err)
	}
	req := &proto.Message{Op: proto.OpCreateInstance}
	proto.SetCSName(req, uint32(core.CtxDefault), "f")
	proto.SetOpenMode(req, proto.ModeWrite)
	reply := send(t, client, fs, req)
	f := new(vio.File).Init(client, fs.PID(), proto.GetInstanceInfo(reply))
	start := client.Now()
	if _, err := f.Write(make([]byte, 512)); err != nil {
		t.Fatal(err)
	}
	elapsed := client.Now() - start
	if elapsed > 10*time.Millisecond {
		t.Fatalf("write cost %v; write-behind must not wait for the disk", elapsed)
	}
}

func TestOpenByUIDAndRemoveByUID(t *testing.T) {
	fs, client := startFS(t)
	if err := fs.WriteFile("/f", "o", []byte("uid test")); err != nil {
		t.Fatal(err)
	}
	// Each send builds its request afresh: a successful answer lands in
	// the request that asked.
	query := func() *proto.Message {
		q := &proto.Message{Op: proto.OpQueryObject}
		proto.SetCSName(q, uint32(core.CtxDefault), "f")
		return q
	}
	d, _, err := proto.DecodeDescriptor(send(t, client, fs, query()).Segment)
	if err != nil {
		t.Fatal(err)
	}

	open := func() *proto.Message {
		m := &proto.Message{Op: proto.OpOpenByUID}
		proto.SetOpenMode(m, proto.ModeRead)
		m.F[3] = d.ObjectID
		return m
	}
	reply := send(t, client, fs, open())
	if reply.Op != proto.ReplyOK {
		t.Fatalf("open by uid = %v", reply.Op)
	}
	f := new(vio.File).Init(client, fs.PID(), proto.GetInstanceInfo(reply))
	got, err := f.ReadAll()
	if err != nil || string(got) != "uid test" {
		t.Fatalf("read %q, %v", got, err)
	}

	rm := &proto.Message{Op: proto.OpRemoveByUID}
	rm.F[3] = d.ObjectID
	if reply := send(t, client, fs, rm); reply.Op != proto.ReplyOK {
		t.Fatalf("remove by uid = %v", reply.Op)
	}
	if reply := send(t, client, fs, open()); reply.Op != proto.ReplyNotFound {
		t.Fatalf("open after remove = %v", reply.Op)
	}
	// The name is gone too (name lives with the object).
	if reply := send(t, client, fs, query()); reply.Op != proto.ReplyNotFound {
		t.Fatalf("query after remove = %v", reply.Op)
	}
}

func TestVolumePropertyWriteThenRead(t *testing.T) {
	// Property: WriteFile then protocol read returns the same bytes, for
	// arbitrary content and path shapes.
	fs, client := startFS(t)
	n := 0
	f := func(content []byte, depth uint8) bool {
		n++
		path := "/p"
		for i := 0; i < int(depth%4); i++ {
			path += fmt.Sprintf("/d%d", i)
		}
		path += fmt.Sprintf("/file%d", n)
		if err := fs.WriteFile(path, "o", content); err != nil {
			return false
		}
		req := &proto.Message{Op: proto.OpCreateInstance}
		proto.SetCSName(req, uint32(core.CtxDefault), strings.TrimPrefix(path, "/"))
		proto.SetOpenMode(req, proto.ModeRead)
		reply, err := client.Send(req, fs.PID())
		if err != nil || reply.Op != proto.ReplyOK {
			return false
		}
		file := new(vio.File).Init(client, fs.PID(), proto.GetInstanceInfo(reply))
		got, err := file.ReadAll()
		if err != nil {
			return false
		}
		if err := file.Close(); err != nil {
			return false
		}
		return string(got) == string(content)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestBufferCacheServesRepeatedReads(t *testing.T) {
	fs, client := startFS(t)
	if err := fs.WriteFile("/f", "o", make([]byte, 1024)); err != nil {
		t.Fatal(err)
	}
	open := func() *vio.File {
		req := &proto.Message{Op: proto.OpCreateInstance}
		proto.SetCSName(req, uint32(core.CtxDefault), "f")
		proto.SetOpenMode(req, proto.ModeRead)
		reply := send(t, client, fs, req)
		return new(vio.File).Init(client, fs.PID(), proto.GetInstanceInfo(reply))
	}
	// First read: disk time.
	f1 := open()
	start := client.Now()
	if _, err := f1.ReadAll(); err != nil {
		t.Fatal(err)
	}
	cold := client.Now() - start
	if err := f1.Close(); err != nil {
		t.Fatal(err)
	}
	// Second read through a fresh instance: buffer cache, no disk time.
	f2 := open()
	start = client.Now()
	if _, err := f2.ReadAll(); err != nil {
		t.Fatal(err)
	}
	warm := client.Now() - start
	if err := f2.Close(); err != nil {
		t.Fatal(err)
	}
	if cold < 15*time.Millisecond {
		t.Fatalf("cold read %v must include disk time", cold)
	}
	// The warm read is pure IPC: at least one full disk fetch cheaper.
	if warm > cold-14*time.Millisecond {
		t.Fatalf("warm read %v vs cold %v: buffer cache not effective", warm, cold)
	}
	if fs.cache.size == 0 {
		t.Fatal("cache empty after reads")
	}
}

func TestBufferCacheInvalidatedByTruncate(t *testing.T) {
	fs, client := startFS(t)
	if err := fs.WriteFile("/f", "o", make([]byte, 512)); err != nil {
		t.Fatal(err)
	}
	req := &proto.Message{Op: proto.OpCreateInstance}
	proto.SetCSName(req, uint32(core.CtxDefault), "f")
	proto.SetOpenMode(req, proto.ModeRead)
	reply := send(t, client, fs, req)
	f := new(vio.File).Init(client, fs.PID(), proto.GetInstanceInfo(reply))
	if _, err := f.ReadAll(); err != nil {
		t.Fatal(err)
	}
	if fs.cache.size == 0 {
		t.Fatal("no pages cached")
	}
	if err := fs.WriteFile("/f", "o", make([]byte, 512)); err != nil {
		t.Fatal(err)
	}
	// Re-read costs disk time again after the truncate invalidation...
	req2 := &proto.Message{Op: proto.OpCreateInstance}
	proto.SetCSName(req2, uint32(core.CtxDefault), "f")
	proto.SetOpenMode(req2, proto.ModeRead)
	reply = send(t, client, fs, req2)
	f2 := new(vio.File).Init(client, fs.PID(), proto.GetInstanceInfo(reply))
	start := client.Now()
	if _, err := f2.ReadAll(); err != nil {
		t.Fatal(err)
	}
	if client.Now()-start < 15*time.Millisecond {
		t.Fatal("read after truncate should fetch from disk")
	}
}

func TestBufferCacheLRUEviction(t *testing.T) {
	c := newBlockCache(2)
	c.access(1, 0, true)
	c.access(1, 1, true)
	c.access(1, 2, true) // evicts (1,0)
	if c.access(1, 0, false) {
		t.Fatal("LRU victim still cached")
	}
	if !c.access(1, 1, false) || !c.access(1, 2, false) {
		t.Fatal("recent pages missing")
	}
	// Touch (1,1) so (1,2) becomes the LRU victim of the next insert.
	if !c.access(1, 1, false) {
		t.Fatal("page lost")
	}
	c.access(1, 3, true)
	if !c.access(1, 1, false) || c.access(1, 2, false) {
		t.Fatal("LRU order not respected")
	}
	c.invalidate(1)
	if c.size != 0 {
		t.Fatal("invalidate left pages behind")
	}
}

func TestPermissionEnforcement(t *testing.T) {
	// §5.5: the access-control bits in the description record govern
	// access; they are changed through the uniform modify operation.
	fs, client := startFS(t)
	if err := fs.WriteFile("/locked", "o", []byte("contents")); err != nil {
		t.Fatal(err)
	}
	// Drop write permission via the protocol's modify operation.
	rec := proto.Descriptor{Tag: proto.TagFile, Perms: proto.PermRead, Owner: "o"}
	mod := &proto.Message{Op: proto.OpModifyObject}
	proto.SetCSName(mod, uint32(core.CtxDefault), "locked")
	mod.Segment = rec.AppendEncoded(mod.Segment)
	if reply := send(t, client, fs, mod); reply.Op != proto.ReplyOK {
		t.Fatalf("modify = %v", reply.Op)
	}

	openWith := func(mode uint32) proto.Code {
		req := &proto.Message{Op: proto.OpCreateInstance}
		proto.SetCSName(req, uint32(core.CtxDefault), "locked")
		proto.SetOpenMode(req, mode)
		return send(t, client, fs, req).Op
	}
	if got := openWith(proto.ModeRead); got != proto.ReplyOK {
		t.Fatalf("read open = %v", got)
	}
	if got := openWith(proto.ModeWrite); got != proto.ReplyNoPermission {
		t.Fatalf("write open = %v", got)
	}
	if got := openWith(proto.ModeRead | proto.ModeTruncate); got != proto.ReplyNoPermission {
		t.Fatalf("truncate open = %v", got)
	}
	// The refused truncate must not have emptied the file.
	d, err := query(client, fs, "locked")
	if err != nil || d.Size != uint32(len("contents")) {
		t.Fatalf("size after refused truncate = %+v, %v", d, err)
	}
	// Restore write permission; write works again.
	rec.Perms = proto.PermRead | proto.PermWrite
	mod2 := &proto.Message{Op: proto.OpModifyObject}
	proto.SetCSName(mod2, uint32(core.CtxDefault), "locked")
	mod2.Segment = rec.AppendEncoded(mod2.Segment)
	if reply := send(t, client, fs, mod2); reply.Op != proto.ReplyOK {
		t.Fatalf("modify back = %v", reply.Op)
	}
	if got := openWith(proto.ModeWrite); got != proto.ReplyOK {
		t.Fatalf("write open after restore = %v", got)
	}
}
