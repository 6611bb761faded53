package fileserver

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/netsim"
	"repro/internal/proto"
	"repro/internal/vtime"
)

// seedVolume builds a small but representative name space: nested
// directories, two files, a well-known binding, and a remote link.
func seedVolume(t *testing.T, fs *FileServer) {
	t.Helper()
	if _, err := fs.MkdirAll("/users/mann/notes", "mann"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.MkdirAll("/bin", "system"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/users/mann/notes/todo.txt", "mann", []byte("ship it")); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/bin/hello", "system", []byte("hello image")); err != nil {
		t.Fatal(err)
	}
	if err := fs.SetWellKnown(core.CtxStdPrograms, "/bin"); err != nil {
		t.Fatal(err)
	}
	if err := fs.AddLink("/users/mann", "shared", core.ContextPair{Server: 42, Ctx: 7}); err != nil {
		t.Fatal(err)
	}
}

// TestVolumeSnapshotRoundTrip: two volumes seeded by the same sequence at
// different virtual times have equal images — the mtimes differ, and the
// image leaves them out — and a mutation of either makes them differ.
func TestVolumeSnapshotRoundTrip(t *testing.T) {
	k := kernel.New(netsim.New(vtime.DefaultModel(), 1))
	a, err := Start(k.NewHost("a"), "a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Start(k.NewHost("b"), "b")
	if err != nil {
		t.Fatal(err)
	}
	seedVolume(t, a)
	b.Proc().ChargeCompute(time.Second)
	seedVolume(t, b)
	client, err := k.NewHost("ws").NewProcess("client")
	if err != nil {
		t.Fatal(err)
	}
	da, _ := query(client, a, "/users/mann/notes/todo.txt")
	db, _ := query(client, b, "/users/mann/notes/todo.txt")
	if da.Modified == db.Modified {
		t.Fatalf("both volumes seeded at %d: the test needs different times", da.Modified)
	}
	img := a.Image()
	if !bytes.Equal(b.Image(), img) {
		t.Fatal("identically seeded volumes have different images")
	}
	if !bytes.Equal(a.Image(), img) {
		t.Fatal("taking an image changed it")
	}
	if err := b.WriteFile("/users/mann/notes/todo.txt", "mann", []byte("shipped")); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(b.Image(), img) {
		t.Fatal("a rewritten file left the image unchanged")
	}
}

// TestReplicatedFileServer: a WithReadOnly server — one member of a
// replicated file service — refuses every mutation, by name or by
// identifier, with NoPermission and leaves its image as seeded, while
// reads, read-only opens and context mapping answer as usual.
func TestReplicatedFileServer(t *testing.T) {
	k := kernel.New(netsim.New(vtime.DefaultModel(), 1))
	fs, err := Start(k.NewHost("fs"), "fs", WithReadOnly())
	if err != nil {
		t.Fatal(err)
	}
	seedVolume(t, fs) // boot-time seeding writes the volume directly
	img := fs.Image()
	client, err := k.NewHost("ws").NewProcess("client")
	if err != nil {
		t.Fatal(err)
	}
	todo, err := query(client, fs, "users/mann/notes/todo.txt")
	if err != nil {
		t.Fatal(err)
	}
	named := func(op proto.Code, name string, mode uint32) *proto.Message {
		req := &proto.Message{Op: op}
		proto.SetCSName(req, uint32(core.CtxDefault), name)
		if mode != 0 {
			proto.SetOpenMode(req, mode)
		}
		return req
	}
	// An identifier and an open mode share F[3] (proto.SetOpenMode): the
	// server opens by identifier in the mode that field reads as.
	byUID := func(op proto.Code, uid uint32) *proto.Message {
		req := &proto.Message{Op: op}
		req.F[3] = uid
		return req
	}
	rename := &proto.Message{Op: proto.OpRenameObject}
	proto.SetCSName(rename, uint32(core.CtxDefault), "bin/hello")
	proto.AppendNewName(rename, "bin/bye")
	link := &proto.Message{Op: proto.OpLinkObject}
	proto.SetCSName(link, uint32(core.CtxDefault), "bin/hello")
	proto.AppendNewName(link, "bin/alias")
	for _, c := range []struct {
		what string
		req  *proto.Message
		want proto.Code
	}{
		{"remove", named(proto.OpRemoveObject, "users/mann/notes/todo.txt", 0), proto.ReplyNoPermission},
		{"remove by UID", byUID(proto.OpRemoveByUID, todo.ObjectID), proto.ReplyNoPermission},
		{"rename", rename, proto.ReplyNoPermission},
		{"link", link, proto.ReplyNoPermission},
		{"add context name", named(proto.OpAddContextName, "users/elsewhere", 0), proto.ReplyNoPermission},
		{"delete context name", named(proto.OpDeleteContextName, "users/mann/shared", 0), proto.ReplyNoPermission},
		{"modify", named(proto.OpModifyObject, "bin/hello", 0), proto.ReplyNoPermission},
		{"open to write", named(proto.OpCreateInstance, "bin/hello", proto.ModeRead|proto.ModeWrite), proto.ReplyNoPermission},
		{"open to create", named(proto.OpCreateInstance, "bin/new", proto.ModeRead|proto.ModeCreate), proto.ReplyNoPermission},
		{"open to append", named(proto.OpCreateInstance, "bin/hello", proto.ModeRead|proto.ModeAppend), proto.ReplyNoPermission},
		{"open to truncate", named(proto.OpCreateInstance, "bin/hello", proto.ModeRead|proto.ModeTruncate), proto.ReplyNoPermission},
		{"open by UID to write", byUID(proto.OpOpenByUID, proto.ModeRead|proto.ModeWrite), proto.ReplyNoPermission},
		{"query", named(proto.OpQueryObject, "bin/hello", 0), proto.ReplyOK},
		{"map a context", named(proto.OpMapContext, "users/mann", 0), proto.ReplyOK},
		{"open to read", named(proto.OpCreateInstance, "bin/hello", proto.ModeRead), proto.ReplyOK},
		{"open a directory", named(proto.OpCreateInstance, "bin", proto.ModeRead|proto.ModeDirectory), proto.ReplyOK},
	} {
		if got := send(t, client, fs, c.req).Op; got != c.want {
			t.Errorf("%s: reply %v, want %v", c.what, got, c.want)
		}
		if !bytes.Equal(fs.Image(), img) {
			t.Fatalf("%s changed the image", c.what)
		}
	}
	if _, err := query(client, fs, "users/mann/notes/todo.txt"); err != nil {
		t.Fatalf("the file every refused mutation named: %v", err)
	}
}
