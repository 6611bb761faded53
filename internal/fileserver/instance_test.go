package fileserver

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/proto"
	"repro/internal/vio"
)

// An open instance names its file by i-node number and looks the i-node
// up on every request, so it follows whatever the volume holds under that
// number now. These tests pin that across the events that rewrite, drop
// or rebind i-nodes behind an open instance — a rewrite in place, a
// removal, and a name restored under a new i-node — which a pointer held
// past the volume lock would get wrong.

func openNamed(t *testing.T, client *kernel.Process, fs *FileServer, name string, mode uint32) *vio.File {
	t.Helper()
	req := &proto.Message{Op: proto.OpCreateInstance}
	proto.SetCSName(req, uint32(core.CtxDefault), name)
	proto.SetOpenMode(req, mode)
	reply := send(t, client, fs, req)
	if reply.Op != proto.ReplyOK {
		t.Fatalf("open %q: %v", name, reply.Op)
	}
	return new(vio.File).Init(client, fs.PID(), proto.GetInstanceInfo(reply))
}

// TestOpenInstanceAcrossRestore: /kept is rewritten in place (same
// i-node) and /late is removed and restored under the same name (a new
// i-node) while both are open. The instance of /kept reads the new bytes;
// the instance of the old /late finds no i-node, and the restored file is
// not reachable through it.
func TestOpenInstanceAcrossRestore(t *testing.T) {
	fs, client := startFS(t)
	if err := fs.WriteFile("/kept", "o", []byte("first bytes")); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/late", "o", []byte("born early")); err != nil {
		t.Fatal(err)
	}
	kept := openNamed(t, client, fs, "kept", proto.ModeRead)
	late := openNamed(t, client, fs, "late", proto.ModeRead)
	if err := fs.WriteFile("/kept", "o", []byte("rewritten in place")); err != nil {
		t.Fatal(err)
	}
	if err := fs.vol.remove(core.ContextID(rootIno), "late", 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/late", "o", []byte("restored")); err != nil {
		t.Fatal(err)
	}

	got, err := kept.ReadAll()
	if err != nil || string(got) != "rewritten in place" {
		t.Fatalf("rewritten i-node read %q, %v; want the new bytes", got, err)
	}
	if _, err := late.ReadAll(); !errors.Is(err, proto.ErrNotFound) {
		t.Fatalf("removed i-node read err = %v, want ErrNotFound", err)
	}
	if _, err := late.Write([]byte("x")); !errors.Is(err, proto.ErrModeNotSupported) {
		t.Fatalf("write through a read instance err = %v", err)
	}
	if err := late.Close(); err != nil {
		t.Fatalf("closing an instance of a removed i-node: %v", err)
	}
	if got, err := openNamed(t, client, fs, "late", proto.ModeRead).ReadAll(); err != nil || string(got) != "restored" {
		t.Fatalf("the restored name reads %q, %v", got, err)
	}
}

func TestOpenInstanceAcrossRemove(t *testing.T) {
	fs, client := startFS(t)
	if err := fs.WriteFile("/d/doomed", "o", []byte("contents")); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/d/stays", "o", []byte("more")); err != nil {
		t.Fatal(err)
	}
	f := openNamed(t, client, fs, "d/doomed", proto.ModeRead|proto.ModeWrite)
	dir := openNamed(t, client, fs, "d", proto.ModeRead|proto.ModeDirectory)

	rm := &proto.Message{Op: proto.OpRemoveObject}
	proto.SetCSName(rm, uint32(core.CtxDefault), "d/doomed")
	if reply := send(t, client, fs, rm); reply.Op != proto.ReplyOK {
		t.Fatalf("remove: %v", reply.Op)
	}

	if _, err := f.ReadAll(); !errors.Is(err, proto.ErrNotFound) {
		t.Fatalf("read of a removed file err = %v, want ErrNotFound", err)
	}
	if _, err := f.Write([]byte("x")); !errors.Is(err, proto.ErrNotFound) {
		t.Fatalf("write to a removed file err = %v, want ErrNotFound", err)
	}

	// The directory instance is a snapshot fabricated at open (§5.6): it
	// still lists the removed name, with the description it had then.
	raw, err := dir.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	records, err := proto.DecodeDescriptors(raw)
	if err != nil || len(records) != 2 || records[0].Name != "doomed" || records[0].Size != 8 || records[1].Name != "stays" {
		t.Fatalf("directory opened before the remove streams %+v, %v", records, err)
	}
	// A directory opened now does not.
	now, err := openNamed(t, client, fs, "d", proto.ModeRead|proto.ModeDirectory).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if records, _ := proto.DecodeDescriptors(now); len(records) != 1 || records[0].Name != "stays" {
		t.Fatalf("directory opened after the remove streams %+v", records)
	}
}

// TestAliasSurvivesRestoreAndRemove: an alias and the name it was made
// from are two entries for one i-node; the volume's image records both
// naming that i-node, so a second volume seeded with the same sequence has
// the same image; and removing one name must leave the other describing
// the i-node, even once the removed name is restored to a new file.
func TestAliasSurvivesRestoreAndRemove(t *testing.T) {
	fs, client := startFS(t)
	if err := fs.WriteFile("/a/first", "o", []byte("shared")); err != nil {
		t.Fatal(err)
	}
	first, err := query(client, fs, "/a/first")
	if err != nil {
		t.Fatal(err)
	}
	b, err := fs.MkdirAll("/b", "o")
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.vol.addAlias(b, "second", first.ObjectID, 0); err != nil {
		t.Fatal(err)
	}
	twin, _ := startFS(t)
	if err := twin.WriteFile("/a/first", "o", []byte("shared")); err != nil {
		t.Fatal(err)
	}
	tb, _ := twin.MkdirAll("/b", "o")
	if err := twin.vol.addAlias(tb, "second", first.ObjectID, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(twin.Image(), fs.Image()) {
		t.Fatal("identically aliased volumes have different images")
	}
	if _, err := fs.vol.writeAt(first.ObjectID, 0, []byte("SHARED!"), 0); err != nil {
		t.Fatal(err)
	}
	second, err := query(client, fs, "/b/second")
	if err != nil || second.ObjectID != first.ObjectID || second.Size != 7 || second.TypeSpecific[0] != 2 {
		t.Fatalf("alias after a write through its first name describes %+v, %v", second, err)
	}
	a, _ := fs.MkdirAll("/a", "o")
	if err := fs.vol.remove(a, "first", 0); err != nil {
		t.Fatal(err)
	}
	second, err = query(client, fs, "/b/second")
	if err != nil || second.ObjectID != first.ObjectID || second.Size != 7 || second.TypeSpecific[0] != 1 {
		t.Fatalf("alias after its other name was removed describes %+v, %v", second, err)
	}

	// The file's recorded name is still /a/first, which now names a
	// different file. Removal by UID must not unbind that one, nor delete
	// the i-node out from under the alias: it refuses.
	if err := fs.WriteFile("/a/first", "o", []byte("an unrelated newcomer")); err != nil {
		t.Fatal(err)
	}
	if err := fs.vol.removeByIno(first.ObjectID, 0); !errors.Is(err, proto.ErrIllegalRequest) {
		t.Fatalf("removeByIno through a stale recorded name: %v", err)
	}
	if d, err := query(client, fs, "/a/first"); err != nil || d.Size != 21 {
		t.Fatalf("the newcomer under the recorded name: %+v, %v", d, err)
	}
	if d, err := query(client, fs, "/b/second"); err != nil || d.ObjectID != first.ObjectID {
		t.Fatalf("the alias after the refused removal: %+v, %v", d, err)
	}
}

// TestDirectoryWriteSpansBlocks: writing records back through an opened
// context directory modifies their objects (§5.6) however File.Write
// splits the records at block boundaries — 20 records of 44 bytes, two
// blocks with a record torn across them.
func TestDirectoryWriteSpansBlocks(t *testing.T) {
	fs, client := startFS(t)
	for i := 0; i < 20; i++ {
		if err := fs.WriteFile(fmt.Sprintf("/d/entry-%03d", i), "abc", nil); err != nil {
			t.Fatal(err)
		}
	}
	dir := openNamed(t, client, fs, "d", proto.ModeRead|proto.ModeWrite|proto.ModeDirectory)
	raw, err := dir.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	records, err := proto.DecodeDescriptors(raw)
	if err != nil || len(records) != 20 {
		t.Fatalf("directory = %d records, %v", len(records), err)
	}
	for i := range records {
		records[i].Owner, records[i].Perms = "xyz", proto.PermRead
	}
	stream := proto.EncodeDescriptors(records)
	if n, err := dir.Write(stream); n != 880 || len(stream) != 880 || err != nil {
		t.Fatalf("Write of %d bytes = %d, %v", len(stream), n, err)
	}
	for i := 0; i < 20; i++ {
		d, err := query(client, fs, fmt.Sprintf("/d/entry-%03d", i))
		if err != nil || d.Owner != "xyz" || d.Perms != proto.PermRead {
			t.Fatalf("entry-%03d after the write: %+v, %v", i, d, err)
		}
	}
}

// TestListingFollowsEveryChange: the file server keeps each directory's
// context directory between changes, and a List after each kind of change
// — to a listed file, to a record written back, to a second name, to a
// subdirectory's entries — streams what a fresh fabrication does, and not
// what the kept one did.
func TestListingFollowsEveryChange(t *testing.T) {
	fs, client := startFS(t)
	if err := fs.WriteFile("/a/f", "o", []byte("first")); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.MkdirAll("/a/sub", "o"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.MkdirAll("/b", "o"); err != nil {
		t.Fatal(err)
	}
	dirs := []string{"", "a", "a/sub", "b"}
	list := func(path string) []proto.Descriptor {
		t.Helper()
		dir := openNamed(t, client, fs, path, proto.ModeRead|proto.ModeDirectory)
		raw, err := dir.ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		if err := dir.Close(); err != nil {
			t.Fatal(err)
		}
		records, err := proto.DecodeDescriptors(raw)
		if err != nil {
			t.Fatal(err)
		}
		return records
	}
	fresh := func(path string) []proto.Descriptor {
		t.Helper()
		ctx, err := fs.MkdirAll(path, "")
		if err != nil {
			t.Fatal(err)
		}
		fs.vol.mu.Lock()
		stream, _ := fs.vol.nodes[ino(ctx)].fabricate("")
		fs.vol.mu.Unlock()
		records, err := proto.DecodeDescriptors(stream)
		if err != nil {
			t.Fatal(err)
		}
		return records
	}
	ok := func(reply *proto.Message) {
		t.Helper()
		if reply.Op != proto.ReplyOK {
			t.Fatalf("reply %v", reply.Op)
		}
	}
	for _, step := range []struct {
		what    string
		changes []string // the listings the change must show in
		change  func()
	}{
		{"a write to a listed file", []string{"a"}, func() {
			f := openNamed(t, client, fs, "a/f", proto.ModeRead|proto.ModeWrite)
			if _, err := f.Write([]byte("rewritten, longer")); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
		}},
		{"a directory-record write-back", []string{"a"}, func() {
			dir := openNamed(t, client, fs, "a", proto.ModeRead|proto.ModeWrite|proto.ModeDirectory)
			rec := proto.Descriptor{Tag: proto.TagFile, Name: "f", Owner: "x", Perms: proto.PermRead}
			if _, err := dir.Write(rec.AppendEncoded(nil)); err != nil {
				t.Fatal(err)
			}
			if err := dir.Close(); err != nil {
				t.Fatal(err)
			}
		}},
		{"an alias into a second directory", []string{"a", "b"}, func() {
			alias := &proto.Message{Op: proto.OpLinkObject}
			proto.SetCSName(alias, uint32(core.CtxDefault), "a/f")
			proto.AppendNewName(alias, "b/g")
			ok(send(t, client, fs, alias))
		}},
		{"a mkdir in a subdirectory", []string{"a", "a/sub"}, func() {
			mkdir := &proto.Message{Op: proto.OpCreateInstance}
			proto.SetCSName(mkdir, uint32(core.CtxDefault), "a/sub/new")
			proto.SetOpenMode(mkdir, proto.ModeRead|proto.ModeDirectory|proto.ModeCreate)
			ok(send(t, client, fs, mkdir))
		}},
	} {
		before := make(map[string][]proto.Descriptor, len(dirs))
		for _, d := range dirs {
			before[d] = list(d) // kept from here on
		}
		step.change()
		for _, d := range dirs {
			got, want := list(d), fresh(d)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("after %s, List(%q) =\n %+v\nfresh:\n %+v", step.what, d, got, want)
			}
		}
		for _, d := range step.changes {
			if reflect.DeepEqual(before[d], list(d)) {
				t.Fatalf("%s did not change List(%q)", step.what, d)
			}
		}
	}
}
