package kernel

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/netsim"
	"repro/internal/proto"
	"repro/internal/vtime"
)

// newDomain builds a kernel over a default-model network.
func newDomain(t *testing.T) *Kernel {
	t.Helper()
	return New(netsim.New(vtime.DefaultModel(), 1))
}

// spawnEcho starts an echo server that replies to every request with the
// same message, with no processing charge (the §3.1 IPC measurement).
func spawnEcho(t *testing.T, h *Host) *Process {
	t.Helper()
	p, err := h.Spawn("echo", func(p *Process) {
		for {
			msg, from, err := p.Receive()
			if err != nil {
				return
			}
			reply := *msg
			reply.Op = proto.ReplyOK
			if err := p.Reply(&reply, from); err != nil {
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Destroy)
	return p
}

func newClient(t *testing.T, h *Host, name string) *Process {
	t.Helper()
	p, err := h.NewProcess(name)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Destroy)
	return p
}

func TestPIDSubfields(t *testing.T) {
	p := MakePID(0x0102, 0xA0B0)
	if p.Host() != 0x0102 || p.Local() != 0xA0B0 {
		t.Fatalf("subfields: host=%x local=%x", p.Host(), p.Local())
	}
	if p.IsGroup() {
		t.Fatal("ordinary pid misclassified as group")
	}
	if NilPID.IsGroup() {
		t.Fatal("nil pid misclassified as group")
	}
}

func TestPIDRoundTripProperty(t *testing.T) {
	f := func(host, local uint16) bool {
		p := MakePID(netsim.HostID(host), local)
		return p.Host() == netsim.HostID(host) && p.Local() == local
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestSameHost: a pid names its host, so two processes share a host
// exactly when their pids' host fields agree (§4.1).
func TestSameHost(t *testing.T) {
	a := MakePID(1, 10)
	b := MakePID(1, 11)
	c := MakePID(2, 10)
	if a.Host() != b.Host() || a.Host() == c.Host() {
		t.Fatal("a pid misnames its host")
	}
}

func TestPIDUniquePerHost(t *testing.T) {
	k := newDomain(t)
	h := k.NewHost("ws1")
	seen := make(map[PID]bool)
	for i := 0; i < 200; i++ {
		p, err := h.NewProcess("p")
		if err != nil {
			t.Fatal(err)
		}
		if seen[p.PID()] {
			t.Fatalf("duplicate pid %v", p.PID())
		}
		seen[p.PID()] = true
	}
}

func TestPIDsDifferAcrossHosts(t *testing.T) {
	// Each logical host independently generates unique pids without
	// conflict because the host subfield differs (§4.1).
	k := newDomain(t)
	h1, h2 := k.NewHost("a"), k.NewHost("b")
	p1, _ := h1.NewProcess("x")
	p2, _ := h2.NewProcess("x")
	if p1.PID() == p2.PID() {
		t.Fatal("pids collided across hosts")
	}
	if p1.PID().Host() == p2.PID().Host() {
		t.Fatal("hosts share a logical-host id")
	}
}

func TestSendReceiveReplyLocal(t *testing.T) {
	k := newDomain(t)
	h := k.NewHost("ws")
	echo := spawnEcho(t, h)
	client := newClient(t, h, "client")

	req := &proto.Message{Op: proto.OpEcho, F: [6]uint32{42}}
	reply, err := client.Send(req, echo.PID())
	if err != nil {
		t.Fatal(err)
	}
	if reply.Op != proto.ReplyOK || reply.F[0] != 42 {
		t.Fatalf("reply = %+v", reply)
	}
}

// TestE1RemoteTransactionTiming is the kernel-level E1 experiment: a
// 32-byte Send-Receive-Reply between processes on separate hosts must cost
// the paper's 2.56 ms of virtual time.
func TestE1RemoteTransactionTiming(t *testing.T) {
	k := newDomain(t)
	ws1, ws2 := k.NewHost("ws1"), k.NewHost("ws2")
	echo := spawnEcho(t, ws2)
	client := newClient(t, ws1, "client")

	start := client.Now()
	if _, err := client.Send(&proto.Message{Op: proto.OpEcho}, echo.PID()); err != nil {
		t.Fatal(err)
	}
	elapsed := client.Now() - start
	paper := 2560 * time.Microsecond
	if diff := elapsed - paper; diff < -paper/50 || diff > paper/50 {
		t.Fatalf("remote 32-byte transaction = %v, want %v ±2%%", elapsed, paper)
	}
}

func TestLocalTransactionCheaperThanRemote(t *testing.T) {
	k := newDomain(t)
	ws1, ws2 := k.NewHost("ws1"), k.NewHost("ws2")
	echoLocal := spawnEcho(t, ws1)
	echoRemote := spawnEcho(t, ws2)
	client := newClient(t, ws1, "client")

	t0 := client.Now()
	if _, err := client.Send(&proto.Message{Op: proto.OpEcho}, echoLocal.PID()); err != nil {
		t.Fatal(err)
	}
	local := client.Now() - t0
	t1 := client.Now()
	if _, err := client.Send(&proto.Message{Op: proto.OpEcho}, echoRemote.PID()); err != nil {
		t.Fatal(err)
	}
	remote := client.Now() - t1
	if local >= remote {
		t.Fatalf("local %v should be cheaper than remote %v", local, remote)
	}
}

func TestSendToNonexistentProcess(t *testing.T) {
	k := newDomain(t)
	h := k.NewHost("ws")
	client := newClient(t, h, "client")
	_, err := client.Send(&proto.Message{Op: proto.OpEcho}, MakePID(h.ID(), 9999))
	if !errors.Is(err, ErrNonexistentProcess) {
		t.Fatalf("err = %v", err)
	}
	_, err = client.Send(&proto.Message{Op: proto.OpEcho}, MakePID(77, 1))
	if !errors.Is(err, ErrNonexistentProcess) {
		t.Fatalf("unknown host err = %v", err)
	}
}

func TestSendToDestroyedProcessFails(t *testing.T) {
	k := newDomain(t)
	h := k.NewHost("ws")
	echo := spawnEcho(t, h)
	client := newClient(t, h, "client")
	pid := echo.PID()
	echo.Destroy()
	if _, err := client.Send(&proto.Message{Op: proto.OpEcho}, pid); !errors.Is(err, ErrNonexistentProcess) {
		t.Fatalf("err = %v", err)
	}
}

func TestDestroyUnblocksPendingSender(t *testing.T) {
	k := newDomain(t)
	h := k.NewHost("ws")
	// A server that receives but never replies.
	blackhole, err := h.Spawn("blackhole", func(p *Process) {
		for {
			if _, _, err := p.Receive(); err != nil {
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	client := newClient(t, h, "client")
	errCh := make(chan error, 1)
	go func() {
		_, err := client.Send(&proto.Message{Op: proto.OpEcho}, blackhole.PID())
		errCh <- err
	}()
	// Give the transaction time to be received, then kill the server.
	time.Sleep(10 * time.Millisecond)
	blackhole.Destroy()
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrNonexistentProcess) {
			t.Fatalf("sender unblocked with %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("sender still blocked after receiver destroyed")
	}
}

func TestForwardPreservesOriginalSender(t *testing.T) {
	// §3.1: a forwarded message appears as though the sender originally
	// sent to the third process, which replies directly to the sender.
	k := newDomain(t)
	h1, h2, h3 := k.NewHost("a"), k.NewHost("b"), k.NewHost("c")
	final := spawnEcho(t, h3)
	var sawOrigin PID
	var mu sync.Mutex
	fwd, err := h2.Spawn("fwd", func(p *Process) {
		for {
			msg, from, err := p.Receive()
			if err != nil {
				return
			}
			mu.Lock()
			sawOrigin = from
			mu.Unlock()
			msg.F[1] = 777 // forwarder may modify the message
			if err := p.Forward(msg, from, final.PID()); err != nil {
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fwd.Destroy)

	client := newClient(t, h1, "client")
	reply, err := client.Send(&proto.Message{Op: proto.OpEcho, F: [6]uint32{5}}, fwd.PID())
	if err != nil {
		t.Fatal(err)
	}
	if reply.F[0] != 5 || reply.F[1] != 777 {
		t.Fatalf("reply fields = %v", reply.F)
	}
	mu.Lock()
	defer mu.Unlock()
	if sawOrigin != client.PID() {
		t.Fatalf("forwarder saw sender %v, want original %v", sawOrigin, client.PID())
	}
}

func TestForwardTimingAddsHop(t *testing.T) {
	k := newDomain(t)
	h1, h2 := k.NewHost("a"), k.NewHost("b")
	final := spawnEcho(t, h2)
	fwd, err := h1.Spawn("fwd", func(p *Process) {
		for {
			msg, from, err := p.Receive()
			if err != nil {
				return
			}
			if err := p.Forward(msg, from, final.PID()); err != nil {
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fwd.Destroy)
	client := newClient(t, h1, "client")

	// Direct: two remote hops. Via forwarder on client's host: local hop +
	// remote hop + remote reply hop.
	t0 := client.Now()
	if _, err := client.Send(&proto.Message{Op: proto.OpEcho}, final.PID()); err != nil {
		t.Fatal(err)
	}
	direct := client.Now() - t0
	t1 := client.Now()
	if _, err := client.Send(&proto.Message{Op: proto.OpEcho}, fwd.PID()); err != nil {
		t.Fatal(err)
	}
	forwarded := client.Now() - t1
	m := k.Model()
	wantExtra := m.LocalHop(proto.HeaderBytes)
	got := forwarded - direct
	if got < wantExtra/2 || got > wantExtra*2 {
		t.Fatalf("forwarding overhead = %v, want ≈ one local hop %v", got, wantExtra)
	}
}

func TestForwardToNonexistentFailsSender(t *testing.T) {
	k := newDomain(t)
	h := k.NewHost("a")
	fwd, err := h.Spawn("fwd", func(p *Process) {
		for {
			msg, from, err := p.Receive()
			if err != nil {
				return
			}
			_ = p.Forward(msg, from, MakePID(99, 99))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fwd.Destroy)
	client := newClient(t, h, "client")
	if _, err := client.Send(&proto.Message{Op: proto.OpEcho}, fwd.PID()); !errors.Is(err, ErrNonexistentProcess) {
		t.Fatalf("err = %v", err)
	}
}

func TestReplyWithoutPending(t *testing.T) {
	k := newDomain(t)
	h := k.NewHost("a")
	p := newClient(t, h, "p")
	if err := p.Reply(proto.NewReply(proto.ReplyOK), MakePID(1, 1)); !errors.Is(err, ErrNoPendingMessage) {
		t.Fatalf("err = %v", err)
	}
}

func TestMoveFromReadsSenderSegment(t *testing.T) {
	k := newDomain(t)
	h1, h2 := k.NewHost("a"), k.NewHost("b")
	data := []byte("the quick brown fox jumps over the lazy dog")
	srv, err := h2.Spawn("reader", func(p *Process) {
		for {
			msg, from, err := p.Receive()
			if err != nil {
				return
			}
			buf := make([]byte, msg.F[0])
			n, err := p.MoveFrom(from, buf, int(msg.F[1]))
			reply := proto.NewReply(proto.ReplyOK)
			if err != nil {
				reply.Op = proto.ReplyBadArgs
			}
			reply.F[0] = uint32(n)
			reply.Segment = buf[:n]
			if err := p.Reply(reply, from); err != nil {
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Destroy)
	client := newClient(t, h1, "client")

	req := &proto.Message{Op: proto.OpEcho, F: [6]uint32{10, 4}}
	reply, err := client.SendMove(req, srv.PID(), data, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(reply.Segment) != "quick brow" {
		t.Fatalf("MoveFrom read %q", reply.Segment)
	}
}

func TestMoveToWritesSenderSegment(t *testing.T) {
	k := newDomain(t)
	h1, h2 := k.NewHost("a"), k.NewHost("b")
	srv, err := h2.Spawn("writer", func(p *Process) {
		for {
			_, from, err := p.Receive()
			if err != nil {
				return
			}
			n, err := p.MoveTo(from, 2, []byte("XYZ"))
			reply := proto.NewReply(proto.ReplyOK)
			if err != nil {
				reply.Op = proto.ReplyBadArgs
			}
			reply.F[0] = uint32(n)
			if err := p.Reply(reply, from); err != nil {
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Destroy)
	client := newClient(t, h1, "client")

	buf := []byte("aaaaaaaa")
	reply, err := client.SendMove(&proto.Message{Op: proto.OpEcho}, srv.PID(), nil, buf)
	if err != nil {
		t.Fatal(err)
	}
	if reply.F[0] != 3 || string(buf) != "aaXYZaaa" {
		t.Fatalf("MoveTo wrote %q (n=%d)", buf, reply.F[0])
	}
}

// TestMoveErrors pins what MoveFrom and MoveTo refuse, in the words they
// refuse it: a segment the sender did not attach, an offset outside the
// one it did, and a sender with no pending message.
func TestMoveErrors(t *testing.T) {
	k := newDomain(t)
	h := k.NewHost("a")
	results := make(chan error, 6)
	srv, err := h.Spawn("srv", func(p *Process) {
		for {
			_, from, err := p.Receive()
			if err != nil {
				return
			}
			_, err = p.MoveFrom(from, make([]byte, 4), 0)
			results <- err
			_, err = p.MoveFrom(from, make([]byte, 4), 100)
			results <- err
			_, err = p.MoveTo(from, 100, []byte("xy"))
			results <- err
			_, err = p.MoveFrom(MakePID(9, 9), make([]byte, 4), 0)
			results <- err
			if err := p.Reply(proto.NewReply(proto.ReplyOK), from); err != nil {
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Destroy)
	client := newClient(t, h, "client")
	bad := func(text string) string { return proto.ErrBadArgs.Error() + ": " + text }
	for _, tc := range []struct {
		src, dst []byte
		want     [3]string // in-range MoveFrom, MoveFrom at 100, MoveTo at 100
	}{
		{[]byte("ab"), nil, [3]string{"", bad("MoveFrom offset 100 outside segment of 2"), bad("sender attached no writable segment")}},
		{nil, make([]byte, 3), [3]string{bad("sender attached no readable segment"), bad("sender attached no readable segment"), bad("MoveTo offset 100 outside segment of 3")}},
	} {
		if _, err := client.SendMove(&proto.Message{Op: proto.OpEcho}, srv.PID(), tc.src, tc.dst); err != nil {
			t.Fatal(err)
		}
		for i, want := range tc.want {
			err, got := <-results, ""
			if err != nil {
				got = err.Error()
			}
			if got != want || (err != nil && !errors.Is(err, proto.ErrBadArgs)) {
				t.Fatalf("segments %q/%q call %d: err = %v, want %q", tc.src, tc.dst, i, err, want)
			}
		}
		if err := <-results; !errors.Is(err, ErrNoPendingMessage) {
			t.Fatalf("MoveFrom with no pending err = %v", err)
		}
	}
}

// TestE2MoveTiming: moving 64 KB between hosts costs the paper's 338 ms.
func TestE2MoveTiming(t *testing.T) {
	k := newDomain(t)
	h1, h2 := k.NewHost("a"), k.NewHost("b")
	payload := make([]byte, 64*1024)
	srv, err := h2.Spawn("loader", func(p *Process) {
		for {
			_, from, err := p.Receive()
			if err != nil {
				return
			}
			if _, err := p.MoveTo(from, 0, payload); err != nil {
				return
			}
			if err := p.Reply(proto.NewReply(proto.ReplyOK), from); err != nil {
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Destroy)
	client := newClient(t, h1, "client")
	buf := make([]byte, 64*1024)
	start := client.Now()
	if _, err := client.SendMove(&proto.Message{Op: proto.OpEcho}, srv.PID(), nil, buf); err != nil {
		t.Fatal(err)
	}
	elapsed := client.Now() - start
	paper := 338 * time.Millisecond
	if diff := elapsed - paper; diff < -paper/20 || diff > paper/20 {
		t.Fatalf("64 KB MoveTo transaction = %v, want %v ±5%%", elapsed, paper)
	}
}

func TestSetPidGetPidLocal(t *testing.T) {
	k := newDomain(t)
	h := k.NewHost("ws")
	srv := spawnEcho(t, h)
	client := newClient(t, h, "client")
	if err := client.SetPid(ServiceTime, srv.PID(), ScopeLocal); err != nil {
		t.Fatal(err)
	}
	pid, err := client.GetPid(ServiceTime, ScopeLocal)
	if err != nil || pid != srv.PID() {
		t.Fatalf("GetPid = %v, %v", pid, err)
	}
}

func TestGetPidBroadcast(t *testing.T) {
	k := newDomain(t)
	hs, hc := k.NewHost("server-host"), k.NewHost("client-host")
	srv := spawnEcho(t, hs)
	reg, _ := hs.NewProcess("registrar")
	if err := reg.SetPid(ServiceStorage, srv.PID(), ScopeBoth); err != nil {
		t.Fatal(err)
	}
	client := newClient(t, hc, "client")
	pid, err := client.GetPid(ServiceStorage, ScopeBoth)
	if err != nil || pid != srv.PID() {
		t.Fatalf("broadcast GetPid = %v, %v", pid, err)
	}
	// Broadcast query costs more than a local hit.
	c2 := newClient(t, hs, "local-client")
	t0 := c2.Now()
	if _, err := c2.GetPid(ServiceStorage, ScopeBoth); err != nil {
		t.Fatal(err)
	}
	localCost := c2.Now() - t0
	t1 := client.Now()
	if _, err := client.GetPid(ServiceStorage, ScopeBoth); err != nil {
		t.Fatal(err)
	}
	remoteCost := client.Now() - t1
	if localCost >= remoteCost {
		t.Fatalf("local GetPid %v should be cheaper than broadcast %v", localCost, remoteCost)
	}
}

func TestGetPidScopeVisibility(t *testing.T) {
	k := newDomain(t)
	hs, hc := k.NewHost("a"), k.NewHost("b")
	srv := spawnEcho(t, hs)
	reg, _ := hs.NewProcess("registrar")

	// Local-only registration is invisible to remote queries (§4.2).
	if err := reg.SetPid(ServicePrinter, srv.PID(), ScopeLocal); err != nil {
		t.Fatal(err)
	}
	remoteClient := newClient(t, hc, "rc")
	if _, err := remoteClient.GetPid(ServicePrinter, ScopeBoth); !errors.Is(err, ErrNotFound) {
		t.Fatalf("local-only registration leaked to remote query: %v", err)
	}

	// Remote-only registration is invisible to local queries.
	if err := reg.SetPid(ServiceMail, srv.PID(), ScopeRemote); err != nil {
		t.Fatal(err)
	}
	localClient := newClient(t, hs, "lc")
	if _, err := localClient.GetPid(ServiceMail, ScopeLocal); !errors.Is(err, ErrNotFound) {
		t.Fatalf("remote-only registration leaked to local query: %v", err)
	}
	// But it answers a remote client's broadcast.
	if pid, err := remoteClient.GetPid(ServiceMail, ScopeBoth); err != nil || pid != srv.PID() {
		t.Fatalf("remote query = %v, %v", pid, err)
	}
}

func TestGetPidNotFound(t *testing.T) {
	k := newDomain(t)
	h := k.NewHost("a")
	k.NewHost("b")
	client := newClient(t, h, "client")
	if _, err := client.GetPid(ServiceInternet, ScopeBoth); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestHostCrashKillsProcessesAndServices(t *testing.T) {
	k := newDomain(t)
	hs, hc := k.NewHost("server"), k.NewHost("client")
	srv := spawnEcho(t, hs)
	reg, _ := hs.NewProcess("registrar")
	if err := reg.SetPid(ServiceStorage, srv.PID(), ScopeBoth); err != nil {
		t.Fatal(err)
	}
	client := newClient(t, hc, "client")

	hs.Crash()
	if hs.alive.Load() {
		t.Fatal("host should be down")
	}
	if _, err := client.Send(&proto.Message{Op: proto.OpEcho}, srv.PID()); !errors.Is(err, ErrNonexistentProcess) {
		t.Fatalf("send to crashed host err = %v", err)
	}
	if _, err := client.GetPid(ServiceStorage, ScopeBoth); !errors.Is(err, ErrNotFound) {
		t.Fatalf("crashed host's registrations should vanish: %v", err)
	}
}

func TestHostRestartRebinding(t *testing.T) {
	// §4.2: a storage server re-created after a crash has a different pid
	// but is the same service; GetPid rebinds.
	k := newDomain(t)
	hs, hc := k.NewHost("server"), k.NewHost("client")
	srv1 := spawnEcho(t, hs)
	oldPid := srv1.PID()
	reg, _ := hs.NewProcess("registrar")
	if err := reg.SetPid(ServiceStorage, oldPid, ScopeBoth); err != nil {
		t.Fatal(err)
	}

	hs.Crash()
	hs.Restart()
	srv2 := spawnEcho(t, hs)
	reg2, err := hs.NewProcess("registrar")
	if err != nil {
		t.Fatal(err)
	}
	if err := reg2.SetPid(ServiceStorage, srv2.PID(), ScopeBoth); err != nil {
		t.Fatal(err)
	}
	if srv2.PID() == oldPid {
		t.Fatal("restarted server should get a different pid")
	}
	client := newClient(t, hc, "client")
	pid, err := client.GetPid(ServiceStorage, ScopeBoth)
	if err != nil || pid != srv2.PID() {
		t.Fatalf("rebinding failed: %v, %v", pid, err)
	}
	if _, err := client.Send(&proto.Message{Op: proto.OpEcho}, pid); err != nil {
		t.Fatal(err)
	}
}

func TestNewProcessOnDeadHost(t *testing.T) {
	k := newDomain(t)
	h := k.NewHost("a")
	h.Crash()
	if _, err := h.NewProcess("p"); !errors.Is(err, ErrHostDown) {
		t.Fatalf("err = %v", err)
	}
}

func TestPartitionFailsSend(t *testing.T) {
	k := newDomain(t)
	h1, h2 := k.NewHost("a"), k.NewHost("b")
	echo := spawnEcho(t, h2)
	client := newClient(t, h1, "client")
	k.Network().Partition(h2.ID(), 1)
	if _, err := client.Send(&proto.Message{Op: proto.OpEcho}, echo.PID()); !errors.Is(err, netsim.ErrUnreachable) {
		t.Fatalf("err = %v", err)
	}
	k.Network().Heal()
	if _, err := client.Send(&proto.Message{Op: proto.OpEcho}, echo.PID()); err != nil {
		t.Fatalf("send after heal: %v", err)
	}
}

func newGroup(t testing.TB, k *Kernel) PID {
	t.Helper()
	gid, err := k.CreateGroup()
	if err != nil {
		t.Fatal(err)
	}
	return gid
}

func TestGroupSendFirstReplyWins(t *testing.T) {
	k := newDomain(t)
	h1, h2, h3 := k.NewHost("a"), k.NewHost("b"), k.NewHost("c")
	s1, s2 := spawnEcho(t, h2), spawnEcho(t, h3)
	gid := newGroup(t, k)
	if !gid.IsGroup() {
		t.Fatal("group id not marked as group")
	}
	if err := k.JoinGroup(gid, s1.PID()); err != nil {
		t.Fatal(err)
	}
	if err := k.JoinGroup(gid, s2.PID()); err != nil {
		t.Fatal(err)
	}
	client := newClient(t, h1, "client")
	reply, err := client.Send(&proto.Message{Op: proto.OpEcho, F: [6]uint32{9}}, gid)
	if err != nil {
		t.Fatal(err)
	}
	if reply.F[0] != 9 {
		t.Fatalf("group reply = %+v", reply)
	}
}

func TestGroupSendSurvivesDeadMember(t *testing.T) {
	k := newDomain(t)
	h1, h2, h3 := k.NewHost("a"), k.NewHost("b"), k.NewHost("c")
	dead, _ := h2.NewProcess("dead")
	live := spawnEcho(t, h3)
	gid := newGroup(t, k)
	_ = k.JoinGroup(gid, dead.PID())
	_ = k.JoinGroup(gid, live.PID())
	dead.Destroy()
	client := newClient(t, h1, "client")
	if _, err := client.Send(&proto.Message{Op: proto.OpEcho}, gid); err != nil {
		t.Fatalf("group send with one dead member: %v", err)
	}
}

func TestGroupSendEmptyGroupFails(t *testing.T) {
	k := newDomain(t)
	h := k.NewHost("a")
	client := newClient(t, h, "client")
	gid := newGroup(t, k)
	if _, err := client.Send(&proto.Message{Op: proto.OpEcho}, gid); !errors.Is(err, ErrNonexistentProcess) {
		t.Fatalf("err = %v", err)
	}
}

func TestGroupMembership(t *testing.T) {
	k := newDomain(t)
	h := k.NewHost("a")
	p1, _ := h.NewProcess("p1")
	p2, _ := h.NewProcess("p2")
	gid := newGroup(t, k)
	_ = k.JoinGroup(gid, p1.PID())
	_ = k.JoinGroup(gid, p2.PID())
	members, err := k.GroupMembers(gid)
	if err != nil || len(members) != 2 {
		t.Fatalf("members = %v, %v", members, err)
	}
	_ = k.LeaveGroup(gid, p1.PID())
	members, _ = k.GroupMembers(gid)
	if len(members) != 1 || members[0] != p2.PID() {
		t.Fatalf("after leave: %v", members)
	}
	// Destroying a process removes it from groups.
	p2.Destroy()
	members, _ = k.GroupMembers(gid)
	if len(members) != 0 {
		t.Fatalf("after destroy: %v", members)
	}
}

func TestGroupOpsOnBadID(t *testing.T) {
	k := newDomain(t)
	h := k.NewHost("a")
	p, _ := h.NewProcess("p")
	if err := k.JoinGroup(p.PID(), p.PID()); !errors.Is(err, ErrNoSuchGroup) {
		t.Fatalf("join non-group err = %v", err)
	}
	if err := k.JoinGroup(MakePID(groupHostField, 999), p.PID()); !errors.Is(err, ErrNoSuchGroup) {
		t.Fatalf("join unknown group err = %v", err)
	}
}

// TestGroupIDsNeverAlias: the 65 537th group used to get the first one's
// identifier and replace it, emptying its membership. Identifiers are 24
// bits now: the first 2¹⁶−1 keep the pid and the rendering they had, later
// ones take the next reserved host value, and when none is left
// CreateGroup says so instead of wrapping.
func TestGroupIDsNeverAlias(t *testing.T) {
	k := newDomain(t)
	p, _ := k.NewHost("a").NewProcess("p")
	first := newGroup(t, k)
	if err := k.JoinGroup(first, p.PID()); err != nil {
		t.Fatal(err)
	}
	if first != MakePID(groupHostField, 1) || first.String() != "group(1)" {
		t.Fatalf("first group is %v (%#x)", first, uint32(first))
	}
	seen := map[PID]bool{first: true}
	var last PID
	for i := 2; i <= 70_000; i++ {
		last = newGroup(t, k)
		if seen[last] || !last.IsGroup() {
			t.Fatalf("group %d got %v (%#x): reissued or not a group id", i, last, uint32(last))
		}
		seen[last] = true
	}
	if last.String() != "group(70000)" {
		t.Fatalf("70 000th group renders as %v", last)
	}
	if members, err := k.GroupMembers(first); err != nil || len(members) != 1 || members[0] != p.PID() {
		t.Fatalf("first group after 70 000 creations: members %v, err %v", members, err)
	}
	if k.HostOf(last) != nil || MakePID(groupHostField-groupHosts, 7).IsGroup() {
		t.Fatal("group range and host range overlap")
	}

	k.nextGrp = maxGroups - 1
	top := newGroup(t, k)
	if !top.IsGroup() || top.Host() != groupHostField-groupHosts+1 {
		t.Fatalf("last group id is %#x", uint32(top))
	}
	if gid, err := k.CreateGroup(); !errors.Is(err, ErrNoGroupID) || gid != NilPID {
		t.Fatalf("CreateGroup past the last id = %v, %v", gid, err)
	}
}

func TestConcurrentClientsOneServer(t *testing.T) {
	k := newDomain(t)
	hs := k.NewHost("server")
	echo := spawnEcho(t, hs)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		hc := k.NewHost("client-host")
		c, err := hc.NewProcess("client")
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(c *Process, n uint32) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				reply, err := c.Send(&proto.Message{Op: proto.OpEcho, F: [6]uint32{n}}, echo.PID())
				if err != nil {
					errs <- err
					return
				}
				if reply.F[0] != n {
					errs <- errors.New("reply payload mismatch")
					return
				}
			}
		}(c, uint32(i))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestSendFromDestroyedProcess(t *testing.T) {
	k := newDomain(t)
	h := k.NewHost("a")
	echo := spawnEcho(t, h)
	client, _ := h.NewProcess("client")
	client.Destroy()
	if _, err := client.Send(&proto.Message{Op: proto.OpEcho}, echo.PID()); !errors.Is(err, ErrProcessDead) {
		t.Fatalf("err = %v", err)
	}
}

func TestServiceAndScopeStrings(t *testing.T) {
	if ServiceStorage.String() != "storage" || ScopeBoth.String() != "both" {
		t.Fatal("diagnostic strings wrong")
	}
	if Service(999).String() == "" || Scope(9).String() == "" {
		t.Fatal("unknown values must still print")
	}
}

func TestClockObservationThroughChain(t *testing.T) {
	// A client's clock after a transaction must be at least the sum of
	// the hops — virtual time flows through the causal chain.
	k := newDomain(t)
	h1, h2 := k.NewHost("a"), k.NewHost("b")
	echo := spawnEcho(t, h2)
	client := newClient(t, h1, "client")
	for i := 1; i <= 5; i++ {
		if _, err := client.Send(&proto.Message{Op: proto.OpEcho}, echo.PID()); err != nil {
			t.Fatal(err)
		}
		min := time.Duration(i) * 2 * k.Model().RemoteHop(proto.HeaderBytes)
		if client.Now() < min {
			t.Fatalf("after %d transactions clock = %v, want ≥ %v", i, client.Now(), min)
		}
	}
}

func TestForwardToGroup(t *testing.T) {
	// §7: a forwarder can pass a transaction to a whole group; the first
	// member to reply completes the original sender's transaction.
	k := newDomain(t)
	h1, h2, h3, h4 := k.NewHost("a"), k.NewHost("b"), k.NewHost("c"), k.NewHost("d")
	s1, s2 := spawnEcho(t, h3), spawnEcho(t, h4)
	gid := newGroup(t, k)
	if err := k.JoinGroup(gid, s1.PID()); err != nil {
		t.Fatal(err)
	}
	if err := k.JoinGroup(gid, s2.PID()); err != nil {
		t.Fatal(err)
	}
	fwd, err := h2.Spawn("fwd", func(p *Process) {
		for {
			msg, from, err := p.Receive()
			if err != nil {
				return
			}
			if err := p.Forward(msg, from, gid); err != nil {
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fwd.Destroy)

	client := newClient(t, h1, "client")
	reply, err := client.Send(&proto.Message{Op: proto.OpEcho, F: [6]uint32{11}}, fwd.PID())
	if err != nil {
		t.Fatal(err)
	}
	if reply.F[0] != 11 {
		t.Fatalf("reply = %+v", reply)
	}
}

func TestForwardToGroupSurvivesDeadMember(t *testing.T) {
	k := newDomain(t)
	h1, h2, h3 := k.NewHost("a"), k.NewHost("b"), k.NewHost("c")
	dead, _ := h3.NewProcess("dead")
	live := spawnEcho(t, h3)
	gid := newGroup(t, k)
	_ = k.JoinGroup(gid, dead.PID())
	_ = k.JoinGroup(gid, live.PID())
	dead.Destroy()
	fwd, err := h2.Spawn("fwd", func(p *Process) {
		for {
			msg, from, err := p.Receive()
			if err != nil {
				return
			}
			if err := p.Forward(msg, from, gid); err != nil {
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fwd.Destroy)
	client := newClient(t, h1, "client")
	if _, err := client.Send(&proto.Message{Op: proto.OpEcho}, fwd.PID()); err != nil {
		t.Fatal(err)
	}
}

func TestForwardToEmptyGroupFailsSender(t *testing.T) {
	k := newDomain(t)
	h1, h2 := k.NewHost("a"), k.NewHost("b")
	gid := newGroup(t, k)
	fwd, err := h2.Spawn("fwd", func(p *Process) {
		for {
			msg, from, err := p.Receive()
			if err != nil {
				return
			}
			_ = p.Forward(msg, from, gid)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fwd.Destroy)
	client := newClient(t, h1, "client")
	if _, err := client.Send(&proto.Message{Op: proto.OpEcho}, fwd.PID()); !errors.Is(err, ErrNonexistentProcess) {
		t.Fatalf("err = %v", err)
	}
}

func TestConcurrentGroupSendsWithChurn(t *testing.T) {
	// Group sends race with member destruction: senders either succeed
	// (some member answered) or fail cleanly; nothing hangs or panics.
	k := newDomain(t)
	hosts := make([]*Host, 4)
	for i := range hosts {
		hosts[i] = k.NewHost("h")
	}
	gid := newGroup(t, k)
	var members []*Process
	for i := 0; i < 4; i++ {
		m := spawnEcho(t, hosts[i])
		members = append(members, m)
		if err := k.JoinGroup(gid, m.PID()); err != nil {
			t.Fatal(err)
		}
	}
	// One stable member guarantees availability while others churn.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			victim := members[1+i%3]
			victim.Destroy()
			replacement := spawnEcho(t, hosts[1+i%3])
			if err := k.JoinGroup(gid, replacement.PID()); err != nil {
				return
			}
			members[1+i%3] = replacement
		}
	}()

	clientHost := k.NewHost("clients")
	var cwg sync.WaitGroup
	failures := make(chan error, 8)
	for c := 0; c < 8; c++ {
		p, err := clientHost.NewProcess("client")
		if err != nil {
			t.Fatal(err)
		}
		cwg.Add(1)
		go func(p *Process) {
			defer cwg.Done()
			for j := 0; j < 50; j++ {
				reply, err := p.Send(&proto.Message{Op: proto.OpEcho, F: [6]uint32{9}}, gid)
				if err != nil {
					continue // a fully-churned instant; acceptable
				}
				if reply.F[0] != 9 {
					failures <- errors.New("corrupted group reply")
					return
				}
			}
		}(p)
	}
	cwg.Wait()
	close(stop)
	wg.Wait()
	close(failures)
	for err := range failures {
		t.Fatal(err)
	}
}

func TestCrashDuringBulkTransferFailsSender(t *testing.T) {
	// The receiver's host crashes while a sender is blocked in a MoveTo
	// transaction: the sender must unblock with an error, never hang.
	k := newDomain(t)
	h1, h2 := k.NewHost("a"), k.NewHost("b")
	started := make(chan struct{})
	srv, err := h2.Spawn("slowloader", func(p *Process) {
		for {
			_, from, err := p.Receive()
			if err != nil {
				return
			}
			close(started)
			// Move a little, then stall until crashed.
			if _, err := p.MoveTo(from, 0, make([]byte, 512)); err != nil {
				return
			}
			<-p.Done()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	client := newClient(t, h1, "client")
	errCh := make(chan error, 1)
	go func() {
		buf := make([]byte, 64*1024)
		_, err := client.SendMove(&proto.Message{Op: proto.OpEcho}, srv.PID(), nil, buf)
		errCh <- err
	}()
	<-started
	h2.Crash()
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrNonexistentProcess) {
			t.Fatalf("sender unblocked with %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("sender hung after receiver host crash")
	}
}
