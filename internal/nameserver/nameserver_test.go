package nameserver

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/fileserver"
	"repro/internal/kernel"
	"repro/internal/netsim"
	"repro/internal/proto"
	"repro/internal/vtime"
)

func startRig(t *testing.T) (*Server, *Client, *fileserver.FileServer) {
	t.Helper()
	k := kernel.New(netsim.New(vtime.DefaultModel(), 1))
	nsHost := k.NewHost("ns")
	ns, err := Start(nsHost)
	if err != nil {
		t.Fatal(err)
	}
	fsHost := k.NewHost("fs")
	fs, err := fileserver.Start(fsHost, "fs")
	if err != nil {
		t.Fatal(err)
	}
	wsHost := k.NewHost("ws")
	proc, err := wsHost.NewProcess("client")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(proc.Destroy)
	return ns, NewClient(proc, ns.PID()), fs
}

// registerFile creates a file on fs and registers it, returning its uid.
func registerFile(t *testing.T, nc *Client, fs *fileserver.FileServer, path string) uint32 {
	t.Helper()
	if err := fs.WriteFile(path, "o", []byte("data of "+path)); err != nil {
		t.Fatal(err)
	}
	q := &proto.Message{Op: proto.OpQueryObject}
	proto.SetCSName(q, 0, path)
	reply, err := core.Transact(nc.proc, fs.PID(), q)
	if err != nil {
		t.Fatal(err)
	}
	d, _, err := proto.DecodeDescriptor(reply.Segment)
	if err != nil {
		t.Fatal(err)
	}
	if err := nc.Register("fs:"+path, fs.PID(), d.ObjectID); err != nil {
		t.Fatal(err)
	}
	return d.ObjectID
}

// registered counts the names the server lists.
func registered(t *testing.T, nc *Client) int {
	t.Helper()
	entries, err := nc.List()
	if err != nil {
		t.Fatal(err)
	}
	return len(entries)
}

func TestRegisterLookupUnregister(t *testing.T) {
	_, nc, fs := startRig(t)
	uid := registerFile(t, nc, fs, "/a/f")
	b, err := nc.Lookup("fs:/a/f")
	if err != nil || b.UID != uid || b.Server != fs.PID() {
		t.Fatalf("lookup = %+v, %v", b, err)
	}
	if n := registered(t, nc); n != 1 {
		t.Fatalf("size = %d", n)
	}
	if err := nc.Unregister("fs:/a/f"); err != nil {
		t.Fatal(err)
	}
	if _, err := nc.Lookup("fs:/a/f"); !errors.Is(err, proto.ErrNotFound) {
		t.Fatalf("lookup after unregister err = %v", err)
	}
}

func TestRegisterDuplicate(t *testing.T) {
	_, nc, fs := startRig(t)
	registerFile(t, nc, fs, "/a/f")
	if err := nc.Register("fs:/a/f", fs.PID(), 999); !errors.Is(err, proto.ErrDuplicateName) {
		t.Fatalf("err = %v", err)
	}
}

func TestRegisterEmptyName(t *testing.T) {
	_, nc, fs := startRig(t)
	if err := nc.Register("", fs.PID(), 1); !errors.Is(err, proto.ErrBadArgs) {
		t.Fatalf("err = %v", err)
	}
}

func TestOpenThroughNameServer(t *testing.T) {
	_, nc, fs := startRig(t)
	registerFile(t, nc, fs, "/a/f")
	info, server, err := nc.Open("fs:/a/f", proto.ModeRead)
	if err != nil || server != fs.PID() {
		t.Fatalf("open = %+v, %v, %v", info, server, err)
	}
	if info.SizeBytes != uint32(len("data of /a/f")) {
		t.Fatalf("size = %d", info.SizeBytes)
	}
}

func TestOpenUnknownName(t *testing.T) {
	_, nc, _ := startRig(t)
	if _, _, err := nc.Open("ghost", proto.ModeRead); !errors.Is(err, proto.ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestRemoveCleanly(t *testing.T) {
	_, nc, fs := startRig(t)
	registerFile(t, nc, fs, "/a/f")
	if err := nc.Remove("fs:/a/f", false); err != nil {
		t.Fatal(err)
	}
	if registered(t, nc) != 0 {
		t.Fatal("name not unregistered")
	}
	dangling, err := nc.Verify()
	if err != nil || len(dangling) != 0 {
		t.Fatalf("dangling = %v, %v", dangling, err)
	}
}

func TestRemoveWithCrashLeavesDanglingName(t *testing.T) {
	// The §2.2 consistency failure: the object dies, the name survives.
	_, nc, fs := startRig(t)
	registerFile(t, nc, fs, "/a/f")
	if err := nc.Remove("fs:/a/f", true); err != nil {
		t.Fatal(err)
	}
	if registered(t, nc) != 1 {
		t.Fatal("name should still be registered after the crash window")
	}
	dangling, err := nc.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if len(dangling) != 1 || dangling[0] != "fs:/a/f" {
		t.Fatalf("dangling = %v", dangling)
	}
}

func TestListSorted(t *testing.T) {
	_, nc, fs := startRig(t)
	for _, p := range []string{"/z", "/a", "/m"} {
		registerFile(t, nc, fs, p)
	}
	entries, err := nc.List()
	if err != nil || len(entries) != 3 {
		t.Fatalf("entries = %v, %v", entries, err)
	}
	want := []string{"fs:/a", "fs:/m", "fs:/z"}
	for i := range want {
		if entries[i].Name != want[i] {
			t.Fatalf("entries[%d] = %q", i, entries[i].Name)
		}
	}
}

func TestLookupAfterServerCrashStillAnswers(t *testing.T) {
	// The name server happily resolves names whose objects are gone — the
	// inconsistency is only discovered at use time.
	_, nc, fs := startRig(t)
	registerFile(t, nc, fs, "/a/f")
	fs.Proc().Host().Crash()
	if _, err := nc.Lookup("fs:/a/f"); err != nil {
		t.Fatalf("lookup should still answer: %v", err)
	}
	if _, _, err := nc.Open("fs:/a/f", proto.ModeRead); err == nil {
		t.Fatal("open must fail with the file server down")
	}
}

func TestNameServerDownFailsEverything(t *testing.T) {
	ns, nc, fs := startRig(t)
	registerFile(t, nc, fs, "/a/f")
	ns.proc.Host().Crash()
	if _, _, err := nc.Open("fs:/a/f", proto.ModeRead); !errors.Is(err, kernel.ErrNonexistentProcess) {
		t.Fatalf("err = %v", err)
	}
}

func TestIllegalOp(t *testing.T) {
	ns, nc, _ := startRig(t)
	_ = nc
	k := ns.proc.Kernel()
	h := k.HostByID(ns.PID().Host())
	p, err := h.NewProcess("poker")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Destroy()
	reply, err := p.Send(&proto.Message{Op: proto.OpEcho}, ns.PID())
	if err != nil || reply.Op != proto.ReplyIllegalRequest {
		t.Fatalf("reply = %v, %v", reply, err)
	}
}

func TestManyRegistrations(t *testing.T) {
	_, nc, fs := startRig(t)
	for i := 0; i < 200; i++ {
		registerFile(t, nc, fs, fmt.Sprintf("/dir/f%03d", i))
	}
	entries, err := nc.List()
	if err != nil || len(entries) != 200 {
		t.Fatalf("list = %d, %v", len(entries), err)
	}
}
