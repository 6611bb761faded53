package fileserver

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/raceflag"
	"repro/internal/vio"
)

// TestRewriteReusesFreedPages: a truncated file gives its pages back and
// keeps its page list, so rewriting it with as many pages as it had takes
// them back and allocates nothing — no slab, no list, no new page.
func TestRewriteReusesFreedPages(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("AllocsPerRun counts the race detector's own allocations")
	}
	fs, _ := startFS(t)
	n, err := fs.vol.create(kindFile, core.ContextID(rootIno), "f", "o", 0)
	if err != nil {
		t.Fatal(err)
	}
	id := uint32(n.id)
	const pages = 9
	data := bytes.Repeat([]byte("page store "), pages*pageSize/11)
	write := func() {
		for off := 0; off < len(data); off += pageSize {
			if _, err := fs.vol.writeAt(id, int64(off), data[off:min(off+pageSize, len(data))], 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	write()
	carved := fs.vol.store.carved
	if err := fs.vol.truncate(id, 0); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, write); allocs != 0 {
		t.Fatalf("rewriting %d pages after a truncate: %v allocs", pages, allocs)
	}
	if err := fs.vol.truncate(id, 0); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		_ = fs.vol.truncate(id, 0)
		write()
	}); allocs != 0 {
		t.Fatalf("truncate and rewrite of %d pages: %v allocs", pages, allocs)
	}
	if fs.vol.store.carved != carved || len(fs.vol.store.free) != 0 {
		t.Fatalf("pages carved %d → %d, %d free; a rewrite should take back its own", carved, fs.vol.store.carved, len(fs.vol.store.free))
	}
	got, err := fs.vol.snapshot(id)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("rewritten file: %d bytes, %v; want %d", len(got), err, len(data))
	}
}

// TestWritePastFileLimitRefused: one WriteInstance whose block index puts
// its end terabytes into the file is refused with NoServerResources
// before the volume or the buffer cache is touched, instead of asking the
// host for the memory.
func TestWritePastFileLimitRefused(t *testing.T) {
	fs, client := startFS(t)
	if err := fs.WriteFile("/f", "o", []byte("kept as it was")); err != nil {
		t.Fatal(err)
	}
	f := openNamed(t, client, fs, "f", proto.ModeWrite)
	image, buffered := fs.Image(), fs.cache.size
	before, err := query(client, fs, "f")
	if err != nil {
		t.Fatal(err)
	}

	req := &proto.Message{Op: proto.OpWriteInstance, Segment: []byte("x")}
	req.F[0] = uint32(f.InstanceID())
	req.F[1] = 0xFFFFFFF0
	if reply := send(t, client, fs, req); reply.Op != proto.ReplyNoServerResources {
		t.Fatalf("write at block %#x: %v, want NoServerResources", req.F[1], reply.Op)
	}
	if after, err := query(client, fs, "f"); err != nil || after != before || !bytes.Equal(fs.Image(), image) || fs.cache.size != buffered {
		t.Fatal("a refused write changed the file or the buffer cache")
	}
	if _, err := fs.vol.writeAt(uint32(before.ObjectID), vio.MaxFileSize, []byte("x"), 0); !errors.Is(err, proto.ErrNoServerResources) {
		t.Fatalf("a write ending one byte past the limit: %v", err)
	}
	if _, err := fs.vol.writeAt(uint32(before.ObjectID), vio.MaxFileSize-1, []byte("x"), 0); err != nil {
		t.Fatalf("a write ending at the limit: %v", err)
	}
}
