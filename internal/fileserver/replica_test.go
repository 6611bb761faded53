package fileserver

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/netsim"
	"repro/internal/proto"
	"repro/internal/replica"
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

// TestVolumeSnapshotRoundTrip pins the snapshot codec: restoring an
// encoded volume reproduces the name space exactly, and the canonical
// encoding makes the round trip byte-stable.
func TestVolumeSnapshotRoundTrip(t *testing.T) {
	k := kernel.New(netsim.New(vtime.DefaultModel(), 1))
	src, err := Start(k.NewHost("src"), "src")
	if err != nil {
		t.Fatal(err)
	}
	seedVolume(t, src)
	img := src.vol.encode(true)

	dst, err := Start(k.NewHost("dst"), "dst")
	if err != nil {
		t.Fatal(err)
	}
	// Pre-populate the destination with divergent state the restore must
	// wipe out.
	if err := dst.WriteFile("/stale/junk.txt", "nobody", []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := dst.restoreVolume(img); err != nil {
		t.Fatal(err)
	}
	if got := dst.vol.encode(true); !bytes.Equal(got, img) {
		t.Fatalf("restored volume re-encodes differently (%d vs %d bytes)", len(got), len(img))
	}
	client, err := k.NewHost("ws").NewProcess("client")
	if err != nil {
		t.Fatal(err)
	}
	d, err := query(client, dst, "/users/mann/notes/todo.txt")
	if err != nil {
		t.Fatal(err)
	}
	if d.Size != uint32(len("ship it")) {
		t.Fatalf("restored file size = %d", d.Size)
	}
	if _, err := query(client, dst, "/stale/junk.txt"); err == nil {
		t.Fatalf("pre-restore state survived the restore")
	}
}

// TestVolumeSnapshotCorrupt: every truncation of a valid image must be
// rejected, never half-applied.
func TestVolumeSnapshotCorrupt(t *testing.T) {
	k := kernel.New(netsim.New(vtime.DefaultModel(), 1))
	fs, err := Start(k.NewHost("fs"), "fs")
	if err != nil {
		t.Fatal(err)
	}
	seedVolume(t, fs)
	img := fs.vol.encode(true)
	for _, cut := range []int{0, 1, len(img) / 2, len(img) - 1} {
		if _, _, _, err := decodeVolume(img[:cut]); err == nil {
			t.Fatalf("decodeVolume accepted a %d-byte truncation", cut)
		}
	}
	if _, _, _, err := decodeVolume(append(append([]byte(nil), img...), 0)); err == nil {
		t.Fatalf("decodeVolume accepted trailing garbage")
	}
}

// TestVolumeSnapshotRejectsBadEntries: a directory in an image must list
// its entries in strictly ascending name order, as encode writes them, and
// every local entry must name a node of the image — lookups binary-search
// the order and follow the link without a check.
func TestVolumeSnapshotRejectsBadEntries(t *testing.T) {
	type entry struct {
		name  string
		child uint64
	}
	// image is a root directory with the given entries beside file 1.
	image := func(count uint64, entries ...entry) []byte {
		e := &enc{}
		e.u64(2)
		for _, v := range []uint64{0, uint64(kindDir), 0} { // id, kind, parent
			e.u64(v)
		}
		e.str("")
		e.str("")
		for _, v := range []uint64{3, 0, 0, count} { // perms, mtime, nlink, entries
			e.u64(v)
		}
		for _, de := range entries {
			e.str(de.name)
			e.u64(0)
			e.u64(de.child)
		}
		for _, v := range []uint64{1, uint64(kindFile), 0} {
			e.u64(v)
		}
		e.str("a")
		e.str("")
		for _, v := range []uint64{3, 0, 2} {
			e.u64(v)
		}
		e.bytes([]byte("data"))
		e.u64(0) // well-known aliases
		e.u64(1) // next
		return e.b
	}
	nodes, _, _, err := decodeVolume(image(2, entry{"a", 1}, entry{"b", 1}))
	if err != nil {
		t.Fatalf("well-formed image rejected: %v", err)
	}
	if root := nodes[rootIno]; len(root.entries) != 2 || root.entries[0].child != nodes[1] || root.entries[1].child != nodes[1] {
		t.Fatalf("entries not linked to the decoded node: %+v", root.entries)
	}
	for name, img := range map[string][]byte{
		"out of order":    image(2, entry{"b", 1}, entry{"a", 1}),
		"repeated name":   image(2, entry{"a", 1}, entry{"a", 1}),
		"dangling child":  image(2, entry{"a", 1}, entry{"b", 7}),
		"count too large": image(1<<40, entry{"a", 1}),
	} {
		if _, _, _, err := decodeVolume(img); err == nil {
			t.Errorf("decodeVolume accepted an image with %s entries", name)
		}
	}
}

// replicatedFS is one group member: a local file server fronted by a
// replica running its ReplicaService.
type replicatedFS struct {
	fs  *FileServer
	rep *replica.Replica
}

// startReplicatedFS boots an n-member file-server replication group plus
// a client process, mirroring the rig's topology at package scale.
func startReplicatedFS(t *testing.T, n int) (*replica.Group, []replicatedFS, *kernel.Process) {
	t.Helper()
	k := kernel.New(netsim.New(vtime.DefaultModel(), 1))
	g, err := replica.NewGroup(k.NewHost("mon"), replica.Config{Name: "fs", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	members := make([]replicatedFS, n)
	for i := 0; i < n; i++ {
		host := k.NewHost(string(rune('a' + i)))
		fs, err := Start(host, "fs"+string(rune('a'+i)))
		if err != nil {
			t.Fatal(err)
		}
		svc := NewReplicaService(fs)
		rep, err := replica.Start(host, "front", svc)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Add(host.Name(), rep); err != nil {
			t.Fatal(err)
		}
		members[i] = replicatedFS{fs: fs, rep: rep}
	}
	if err := g.Bootstrap(0); err != nil {
		t.Fatal(err)
	}
	client, err := k.NewHost("ws").NewProcess("client")
	if err != nil {
		t.Fatal(err)
	}
	return g, members, client
}

// TestReplicatedFileServer drives the read-only front: a mutation is
// refused on leader and follower alike, context mapping is proxied, reads
// are served through any member, and the members' volumes stay equal.
func TestReplicatedFileServer(t *testing.T) {
	g, members, client := startReplicatedFS(t, 3)
	var safety replica.Safety

	// Boot-seed every member volume directly with the same sequence, the
	// way the rig does.
	for _, m := range members {
		seedVolume(t, m.fs)
	}
	if err := safety.Check(g); err != nil {
		t.Fatal(err)
	}

	// A mutation is refused by the leader's front and by a follower's,
	// which does not pass it on to the leader.
	for i, m := range members[:2] {
		req := &proto.Message{Op: proto.OpRemoveObject}
		proto.SetCSName(req, uint32(core.CtxDefault), "users/mann/notes/todo.txt")
		r, err := client.Send(req, m.rep.PID())
		if err != nil {
			t.Fatal(err)
		}
		if r.Op != proto.ReplyNoPermission {
			t.Fatalf("member %d: Remove reply %v, want NoPermission", i, r.Op)
		}
	}
	for i, m := range members {
		if _, err := query(client, m.fs, "/users/mann/notes/todo.txt"); err != nil {
			t.Fatalf("member %d lost the file a refused Remove named: %v", i, err)
		}
	}

	// MapContext through the front names the front, not the local server:
	// cached pairs must keep routing through the group.
	mc := &proto.Message{Op: proto.OpMapContext}
	proto.SetCSName(mc, uint32(core.CtxDefault), "users/mann")
	r3, err := client.Send(mc, members[0].rep.PID())
	if err != nil {
		t.Fatal(err)
	}
	if r3.Op != proto.ReplyOK {
		t.Fatalf("MapContext reply %v", r3.Op)
	}
	if pid, _ := proto.GetMapContextReply(r3); pid != uint32(members[0].rep.PID()) {
		t.Fatalf("MapContext names pid %d, want the front %d", pid, members[0].rep.PID())
	}

	// A read sent to a follower's front is forwarded to the leader's.
	q := &proto.Message{Op: proto.OpQueryObject}
	proto.SetCSName(q, uint32(core.CtxDefault), "users/mann")
	r4, err := client.Send(q, members[1].rep.PID())
	if err != nil {
		t.Fatal(err)
	}
	if r4.Op != proto.ReplyOK {
		t.Fatalf("QueryObject via a follower's front reply %v", r4.Op)
	}

	// Every member holds the same name-space structure and file bytes —
	// the replicated invariant, modulo the server-local mtimes (§11.5).
	img := structuralImage(t, members[0].fs)
	for i, m := range members[1:] {
		if !bytes.Equal(structuralImage(t, m.fs), img) {
			t.Fatalf("member %d volume diverged from member 0", i+1)
		}
	}
	if err := safety.Check(g); err != nil {
		t.Fatal(err)
	}

	// The service snapshot is the volume image; a fresh front over the
	// same member serves it unchanged (the rejoin path reads this).
	svc := NewReplicaService(members[0].fs)
	if !bytes.Equal(svc.Snapshot(), members[0].fs.vol.encode(true)) {
		t.Fatalf("service snapshot differs from the volume encoding")
	}
}

// structuralImage encodes a volume with every mtime zeroed: the bytes two
// replicas must agree on.
func structuralImage(t *testing.T, fs *FileServer) []byte {
	t.Helper()
	nodes, next, wk, err := decodeVolume(fs.vol.encode(true))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		n.mtime = 0
	}
	v := &volume{nodes: nodes, next: next, wellKnown: wk}
	return v.encode(true)
}
