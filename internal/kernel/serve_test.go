package kernel

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/proto"
	"repro/internal/raceflag"
	"repro/internal/vtime"
)

// serveEcho creates a served echo process: the served twin of spawnEcho.
func serveEcho(t *testing.T, h *Host) *Process {
	t.Helper()
	p := newClient(t, h, "echo")
	p.Serve(func(msg *proto.Message, from PID) {
		reply := *msg
		reply.Op = proto.ReplyOK
		_ = p.Reply(&reply, from)
	})
	return p
}

// within fails the test if f has not returned after two seconds: a hang
// is this file's usual failure mode.
func within(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatalf("%s: still blocked after 2s", what)
	}
}

// start creates a process that runs handle on each message it takes:
// served, or received by a Receive loop on a goroutine of its own.
func start(t *testing.T, h *Host, name string, served bool, handle func(p *Process, msg *proto.Message, from PID)) *Process {
	t.Helper()
	p := newClient(t, h, name)
	if served {
		p.Serve(func(msg *proto.Message, from PID) { handle(p, msg, from) })
		return p
	}
	go func() {
		for {
			msg, from, err := p.Receive()
			if err != nil {
				return
			}
			handle(p, msg, from)
		}
	}()
	return p
}

// TestServedIndistinguishableInVirtualTime is the contract the whole
// primitive rests on: the same exchanges against served and against
// received processes — an echo, and a group whose Send, SendGroupAll and
// Forward only good can win — return the same winners, counts and errors
// and leave every clock involved at the same virtual time.
func TestServedIndistinguishableInVirtualTime(t *testing.T) {
	echo := func(p *Process, msg *proto.Message, from PID) {
		reply := *msg
		reply.Op, reply.F[4] = proto.ReplyOK, uint32(p.pid)
		_ = p.Reply(&reply, from)
	}
	run := func(served bool) []string {
		k := newDomain(t)
		h1, h2 := k.NewHost("a"), k.NewHost("b")
		srv := start(t, h2, "echo", served, echo)
		local := newClient(t, h2, "local")
		remote := newClient(t, h1, "remote")
		for i := 0; i < 5; i++ {
			for _, c := range []*Process{local, remote, remote, local} {
				if _, err := c.Send(&proto.Message{Op: proto.OpEcho, Segment: make([]byte, 100*i)}, srv.PID()); err != nil {
					t.Fatal(err)
				}
			}
		}
		bad := start(t, h2, "bad", served, func(p *Process, msg *proto.Message, from PID) {
			_ = p.Forward(msg, from, MakePID(h2.ID(), 32767))
		})
		good := start(t, h2, "good", served, echo)
		fwd := start(t, h1, "fwd", served, func(p *Process, msg *proto.Message, from PID) {
			_ = p.Forward(msg, from, PID(msg.F[5]))
		})
		both, onlyBad := newGroup(t, k), newGroup(t, k)
		for _, join := range [][2]PID{{both, bad.pid}, {both, good.pid}, {onlyBad, bad.pid}} {
			if err := k.JoinGroup(join[0], join[1]); err != nil {
				t.Fatal(err)
			}
		}
		var got []string
		// onlyBad's SendGroupAll comes last: every member has taken every
		// message when it returns, so its clock is final.
		for _, gid := range []PID{both, onlyBad} {
			for _, c := range []*Process{local, remote} {
				for _, dst := range []PID{gid, fwd.pid} {
					reply, err := c.Send(&proto.Message{Op: proto.OpEcho, F: [6]uint32{5: uint32(gid)}}, dst)
					if reply != nil {
						got = append(got, fmt.Sprint("winner ", reply.F[4]))
					}
					got = append(got, fmt.Sprint("error ", err))
				}
				n, err := c.SendGroupAll(&proto.Message{Op: proto.OpEcho}, gid)
				got = append(got, fmt.Sprint("count ", n, err))
			}
		}
		return append(got, fmt.Sprint("clocks ", local.Now(), remote.Now(), srv.Now(), bad.Now(), good.Now(), fwd.Now()))
	}
	if received, served := run(false), run(true); !slices.Equal(received, served) {
		t.Fatalf("received:\n%s\nserved:\n%s", strings.Join(received, "\n"), strings.Join(served, "\n"))
	}
}

func TestServedForwardChainBackToForwarder(t *testing.T) {
	// A forwards to B forwards back to A, which replies: were B's turn
	// nested inside A's, the second delivery to A would wait on the serve
	// lock the first still holds.
	k := newDomain(t)
	h := k.NewHost("a")
	a, b := newClient(t, h, "A"), newClient(t, h, "B")
	a.Serve(func(msg *proto.Message, from PID) {
		if msg.F[0] == 0 {
			msg.F[0] = 1
			_ = a.Forward(msg, from, b.PID())
			return
		}
		_ = a.Reply(&proto.Message{Op: proto.ReplyOK, F: msg.F}, from)
	})
	b.Serve(func(msg *proto.Message, from PID) {
		msg.F[1] = 1
		_ = b.Forward(msg, from, a.PID())
	})
	client := newClient(t, h, "client")
	within(t, "A -> B -> A", func() {
		reply, err := client.Send(&proto.Message{Op: proto.OpEcho}, a.PID())
		if err != nil {
			t.Error(err)
			return
		}
		if reply.F[0] != 1 || reply.F[1] != 1 {
			t.Errorf("reply fields %v: the chain skipped a hop", reply.F[:2])
		}
	})
	// The forwarder's clock saw both deliveries, B's the one between.
	if a.Now() <= b.Now() || b.Now() == 0 {
		t.Fatalf("clocks A %v, B %v: want 0 < B < A", a.Now(), b.Now())
	}
}

func TestServedForwardToDeadTargetFailsSender(t *testing.T) {
	// The target dies between the handler's Forward and the delivery made
	// once the handler has returned.
	k := newDomain(t)
	h := k.NewHost("a")
	fwd, target := newClient(t, h, "fwd"), serveEcho(t, h)
	fwd.Serve(func(msg *proto.Message, from PID) {
		if err := fwd.Forward(msg, from, target.PID()); err != nil {
			t.Errorf("Forward = %v", err)
		}
		target.Destroy()
	})
	client := newClient(t, h, "client")
	within(t, "forward to a process destroyed meanwhile", func() {
		if _, err := client.Send(&proto.Message{Op: proto.OpEcho}, fwd.PID()); !errors.Is(err, ErrNonexistentProcess) {
			t.Errorf("err = %v, want ErrNonexistentProcess", err)
		}
	})
}

func TestServedDeferredReply(t *testing.T) {
	// The first request's handler returns without replying; the second
	// request's handler answers both.
	k := newDomain(t)
	h := k.NewHost("a")
	srv := newClient(t, h, "srv")
	var waiting PID
	parked := make(chan struct{})
	srv.Serve(func(msg *proto.Message, from PID) {
		if waiting == NilPID {
			waiting = from
			close(parked)
			return
		}
		_ = srv.Reply(&proto.Message{Op: proto.ReplyOK, F: [6]uint32{1}}, waiting)
		_ = srv.Reply(&proto.Message{Op: proto.ReplyOK, F: [6]uint32{2}}, from)
	})
	first, second := newClient(t, h, "first"), newClient(t, h, "second")
	got := make(chan uint32, 1)
	go func() {
		reply, err := first.Send(&proto.Message{Op: proto.OpEcho}, srv.PID())
		if err != nil {
			t.Error(err)
			got <- 0
			return
		}
		got <- reply.F[0]
	}()
	<-parked
	select {
	case v := <-got:
		t.Fatalf("first sender unblocked with %d before anyone replied", v)
	default:
	}
	reply, err := second.Send(&proto.Message{Op: proto.OpEcho}, srv.PID())
	if err != nil || reply.F[0] != 2 {
		t.Fatalf("second sender: reply %v, err %v", reply, err)
	}
	within(t, "deferred reply", func() {
		if v := <-got; v != 1 {
			t.Errorf("first sender got %d, want the deferred reply 1", v)
		}
	})
}

func TestReceiveOnServedProcessFails(t *testing.T) {
	k := newDomain(t)
	p := serveEcho(t, k.NewHost("a"))
	within(t, "Receive on a served process", func() {
		if _, _, err := p.Receive(); !errors.Is(err, ErrServed) {
			t.Errorf("err = %v, want ErrServed", err)
		}
	})
}

func TestSendBeforeServeIsServed(t *testing.T) {
	// A message that reaches the pid before its handler is installed must
	// not sit in a mailbox nobody reads.
	k := newDomain(t)
	h := k.NewHost("a")
	srv, client := newClient(t, h, "srv"), newClient(t, h, "client")
	errCh := make(chan error, 1)
	go func() {
		_, err := client.Send(&proto.Message{Op: proto.OpEcho}, srv.PID())
		errCh <- err
	}()
	for len(srv.mbox) == 0 {
		runtime.Gosched()
	}
	srv.Serve(func(msg *proto.Message, from PID) {
		_ = srv.Reply(&proto.Message{Op: proto.ReplyOK}, from)
	})
	within(t, "send queued before Serve", func() {
		if err := <-errCh; err != nil {
			t.Error(err)
		}
	})
}

func TestCrashWhileHandlerParkedInNestedSend(t *testing.T) {
	k := newDomain(t)
	h1, h2 := k.NewHost("srv"), k.NewHost("backend")
	parked, release := make(chan struct{}), make(chan struct{})
	backend, err := h2.Spawn("backend", func(p *Process) {
		for {
			_, from, err := p.Receive()
			if err != nil {
				return
			}
			close(parked)
			<-release
			_ = p.Reply(&proto.Message{Op: proto.ReplyOK}, from)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(backend.Destroy)

	srv := newClient(t, h1, "srv")
	var lateReply error
	srv.Serve(func(msg *proto.Message, from PID) {
		_, _ = srv.Send(&proto.Message{Op: proto.OpEcho}, backend.PID())
		lateReply = srv.Reply(&proto.Message{Op: proto.ReplyOK}, from)
	})
	client := newClient(t, h2, "client")
	errCh := make(chan error, 1)
	go func() {
		_, err := client.Send(&proto.Message{Op: proto.OpEcho}, srv.PID())
		errCh <- err
	}()
	<-parked
	outer, nested := client.rec, srv.rec
	if outer == nil || nested == nil {
		t.Fatal("no transaction records while the handler is parked in its nested Send")
	}

	h1.Crash()
	// The crash has failed the transaction, but the sender's goroutine is
	// the one parked in the handler: it reads the failure once the nested
	// Send comes back.
	close(release)
	within(t, "sender of a crashed served process", func() {
		if err := <-errCh; !errors.Is(err, ErrNonexistentProcess) {
			t.Errorf("err = %v, want ErrNonexistentProcess", err)
		}
	})
	if !errors.Is(lateReply, ErrNoPendingMessage) {
		t.Errorf("the dead handler's Reply = %v, want ErrNoPendingMessage", lateReply)
	}
	// The crash retired the client's record, which the dead handler could
	// still have been reading; srv's own record, touched only by its
	// nested Send, stays for reuse.
	if !outer.shared || client.rec != nil {
		t.Errorf("outer record: shared %v, still the client's %v; want retired", outer.shared, client.rec == outer)
	}
	if nested.shared || srv.rec != nested {
		t.Errorf("nested record: shared %v, still srv's %v; want kept for reuse", nested.shared, srv.rec == nested)
	}

	h1.Restart()
	again, err := h1.NewProcess("srv")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(again.Destroy)
	again.Serve(func(msg *proto.Message, from PID) {
		_ = again.Reply(&proto.Message{Op: proto.ReplyOK}, from)
	})
	if _, err := client.Send(&proto.Message{Op: proto.OpEcho}, again.PID()); err != nil {
		t.Fatalf("restarted server: %v", err)
	}
	if client.rec == nil || client.rec == outer {
		t.Error("the client's later Send did not take a fresh record")
	}
}

// TestCrashSweepLeavesRequestToHandler: a handler reads its request's
// name where it lies (proto.CSName, no copy) and parks in a nested Send;
// its host crashes, and the sweep fails the sender's transaction. The
// sender's goroutine is the one running the handler, so it cannot rewrite
// its message under the handler: the name still reads as sent after the
// crash, and the sender's Send returns only once the handler is done.
func TestCrashSweepLeavesRequestToHandler(t *testing.T) {
	k := newDomain(t)
	h1, h2 := k.NewHost("srv"), k.NewHost("backend")
	parked, release := make(chan struct{}), make(chan struct{})
	backend, err := h2.Spawn("backend", func(p *Process) {
		for {
			_, from, err := p.Receive()
			if err != nil {
				return
			}
			close(parked)
			<-release
			_ = p.Reply(&proto.Message{Op: proto.ReplyOK}, from)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(backend.Destroy)

	const sent = "users/mann/naming.mss"
	srv := newClient(t, h1, "srv")
	var afterCrash string
	var handled atomic.Bool
	srv.Serve(func(msg *proto.Message, from PID) {
		name, _, err := proto.CSName(msg)
		if err != nil {
			return
		}
		_, _ = srv.Send(&proto.Message{Op: proto.OpEcho}, backend.PID())
		afterCrash = strings.Clone(name)
		handled.Store(true)
	})
	client := newClient(t, h2, "client")
	req := &proto.Message{Op: proto.OpQueryObject}
	proto.SetCSName(req, 0, sent)
	errCh := make(chan error, 1)
	go func() {
		_, err := client.Send(req, srv.PID())
		if !handled.Load() {
			err = errors.New("the Send returned while its handler still ran")
		}
		// What a sender does next: rewrite its one message.
		proto.SetCSName(req, 0, strings.Repeat("z", len(sent)))
		errCh <- err
	}()
	<-parked
	h1.Crash()
	close(release)
	within(t, "sender of a crashed served process", func() {
		if err := <-errCh; !errors.Is(err, ErrNonexistentProcess) {
			t.Errorf("err = %v, want ErrNonexistentProcess", err)
		}
	})
	if afterCrash != sent {
		t.Errorf("the handler read %q after the crash, want %q", afterCrash, sent)
	}
}

func TestGroupForwardStragglerCannotCompleteNextSend(t *testing.T) {
	// The client's Send is forwarded to a group of two served members:
	// prompt replies in its turn, straggler parks the transaction and
	// replies on a later turn — one that runs while the client's next
	// Send, to an echo, is waiting in the same record. Had the group's
	// clones completed through the record rather than their fan-in, that
	// late reply would win it. The echo is received so that it can hold
	// the next Send open while the straggler's turn runs.
	k := newDomain(t)
	h := k.NewHost("a")
	gid := newGroup(t, k)
	prompt := newClient(t, h, "prompt")
	prompt.Serve(func(msg *proto.Message, from PID) {
		_ = prompt.Reply(&proto.Message{Op: proto.ReplyOK, F: [6]uint32{1}}, from)
	})
	straggler := newClient(t, h, "straggler")
	var parked PID
	straggler.Serve(func(msg *proto.Message, from PID) {
		if parked == NilPID {
			parked = from
			return
		}
		_ = straggler.Reply(&proto.Message{Op: proto.ReplyOK, F: [6]uint32{2}}, parked)
		_ = straggler.Reply(&proto.Message{Op: proto.ReplyOK}, from)
	})
	for _, m := range []*Process{prompt, straggler} {
		if err := k.JoinGroup(gid, m.PID()); err != nil {
			t.Fatal(err)
		}
	}
	fwd := newClient(t, h, "fwd")
	fwd.Serve(func(msg *proto.Message, from PID) { _ = fwd.Forward(msg, from, gid) })
	arrived, answer := make(chan struct{}), make(chan struct{})
	echo, err := h.Spawn("echo", func(p *Process) {
		_, from, err := p.Receive()
		if err != nil {
			return
		}
		close(arrived)
		<-answer
		_ = p.Reply(&proto.Message{Op: proto.ReplyOK, F: [6]uint32{3}}, from)
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(echo.Destroy)
	client, nudge := newClient(t, h, "client"), newClient(t, h, "nudge")

	if reply, err := client.Send(&proto.Message{Op: proto.OpEcho}, fwd.PID()); err != nil || reply.F[0] != 1 {
		t.Fatalf("forwarded Send: reply %v, err %v; want prompt's", reply, err)
	}
	rec := client.rec
	got := make(chan uint32, 1)
	go func() {
		reply, err := client.Send(&proto.Message{Op: proto.OpEcho}, echo.PID())
		if err != nil {
			t.Error(err)
			got <- 0
			return
		}
		got <- reply.F[0]
	}()
	<-arrived
	if _, err := nudge.Send(&proto.Message{Op: proto.OpEcho}, straggler.PID()); err != nil {
		t.Fatalf("straggler's later turn: %v", err)
	}
	close(answer)
	within(t, "the client's next Send", func() {
		if v := <-got; v != 3 {
			t.Errorf("the client's next Send returned reply %d, want the echo's 3", v)
		}
	})
	if rec == nil || client.rec != rec {
		t.Error("the group forward retired the client's record; only a crash sweep may")
	}
}

func TestServedConcurrentSenders(t *testing.T) {
	const senders, each = 8, 10000
	k := newDomain(t)
	h := k.NewHost("a")
	srv := newClient(t, h, "srv")
	var last vtime.Time
	var turns int
	srv.Serve(func(msg *proto.Message, from PID) {
		// One turn at a time: plain variables, for the race detector.
		turns++
		if now := srv.Now(); now < last {
			t.Errorf("server clock went back: %v after %v", now, last)
		} else {
			last = now
		}
		_ = srv.Reply(&proto.Message{Op: proto.ReplyOK, F: msg.F}, from)
	})
	var wg sync.WaitGroup
	var replies atomic.Int64
	for s := 0; s < senders; s++ {
		client := newClient(t, h, "client")
		wg.Add(1)
		go func(s uint32) {
			defer wg.Done()
			for i := uint32(0); i < each; i++ {
				reply, err := client.Send(&proto.Message{Op: proto.OpEcho, F: [6]uint32{s, i}}, srv.PID())
				if err != nil {
					t.Error(err)
					return
				}
				if reply.F[0] != s || reply.F[1] != i {
					t.Errorf("sender %d request %d got the reply to %d/%d", s, i, reply.F[0], reply.F[1])
					return
				}
				replies.Add(1)
			}
		}(uint32(s))
	}
	wg.Wait()
	if turns != senders*each || replies.Load() != senders*each {
		t.Fatalf("%d turns, %d replies, want %d of each", turns, replies.Load(), senders*each)
	}
}

func TestServedProcessesOwnNoGoroutine(t *testing.T) {
	k := newDomain(t)
	h := k.NewHost("a")
	client := newClient(t, h, "client")
	before := runtime.NumGoroutine()
	for i := 0; i < 1000; i++ {
		p, err := h.NewProcess("srv")
		if err != nil {
			t.Fatal(err)
		}
		p.Serve(func(msg *proto.Message, from PID) {
			_ = p.Reply(&proto.Message{Op: proto.ReplyOK}, from)
		})
		if _, err := client.Send(&proto.Message{Op: proto.OpEcho}, p.PID()); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			p.Destroy()
		}
	}
	if during := runtime.NumGoroutine(); during > before {
		t.Errorf("%d goroutines with 500 served processes alive, %d before", during, before)
	}
	h.Crash()
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines after destroying them, %d before", after, before)
	}
}

func TestGroupSendsToServedMembers(t *testing.T) {
	k := newDomain(t)
	h := k.NewHost("a")
	gid, err := k.CreateGroup()
	if err != nil {
		t.Fatal(err)
	}
	var served [3]int
	for i := range served {
		i := i
		m := newClient(t, h, "member")
		m.Serve(func(msg *proto.Message, from PID) {
			served[i]++
			_ = m.Reply(&proto.Message{Op: proto.ReplyOK}, from)
		})
		if err := k.JoinGroup(gid, m.PID()); err != nil {
			t.Fatal(err)
		}
	}
	client := newClient(t, h, "client")
	if n, err := client.SendGroupAll(&proto.Message{Op: proto.OpEcho}, gid); err != nil || n != 3 {
		t.Fatalf("SendGroupAll = %d, %v; want all 3 members", n, err)
	}
	if _, err := client.Send(&proto.Message{Op: proto.OpEcho}, gid); err != nil {
		t.Fatal(err)
	}
	// A served forwarder hands a group its clones once its turn is over.
	fwd := newClient(t, h, "fwd")
	fwd.Serve(func(msg *proto.Message, from PID) { _ = fwd.Forward(msg, from, gid) })
	if _, err := client.Send(&proto.Message{Op: proto.OpEcho}, fwd.PID()); err != nil {
		t.Fatal(err)
	}
	if served != [3]int{3, 3, 3} {
		t.Fatalf("members served %v messages, want 3 each", served)
	}
}

// TestServedSendZeroAllocUntraced is TestSendZeroAllocUntraced for a
// served echo: Send, the handler and its Reply run on one goroutine and
// allocate nothing — not the turn's bookkeeping either, nor, with a
// registry installed before warm-up, the counts and the send_latency
// histogram the kernel keeps for it.
func TestServedSendZeroAllocUntraced(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("AllocsPerRun counts the race detector's own allocations")
	}
	k := New(netsim.New(vtime.DefaultModel(), 1))
	h := k.NewHost("alloc")
	echo, err := h.NewProcess("echo")
	if err != nil {
		t.Fatal(err)
	}
	var reply proto.Message
	echo.Serve(func(msg *proto.Message, from PID) {
		reply = *msg
		reply.Op = proto.ReplyOK
		_ = echo.Reply(&reply, from)
	})
	fwd, err := h.NewProcess("fwd")
	if err != nil {
		t.Fatal(err)
	}
	fwd.Serve(func(msg *proto.Message, from PID) { _ = fwd.Forward(msg, from, echo.PID()) })
	client, err := h.NewProcess("client")
	if err != nil {
		t.Fatal(err)
	}
	req := &proto.Message{Op: proto.OpEcho}
	for _, reg := range []*metrics.Registry{nil, metrics.New()} {
		k.SetMetrics(reg)
		for _, dst := range []PID{echo.PID(), fwd.PID()} {
			// Warm the record, the pending tables, the forward list and
			// the series.
			for i := 0; i < 64; i++ {
				if _, err := client.Send(req, dst); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(1000, func() {
				if _, err := client.Send(req, dst); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("untraced Send to served %v, registry installed %t, allocates %v allocs/op, want 0", dst, reg != nil, allocs)
			}
		}
	}
}
