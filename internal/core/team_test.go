package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/kernel"
	"repro/internal/proto"
	"repro/internal/vio"
)

// startToyTeam boots the toy server with a serving team of n (§3.1).
func startToyTeam(t *testing.T, h *kernel.Host, name string, n int) *toyServer {
	t.Helper()
	ts := &toyServer{
		store:   NewMapStore(),
		reg:     vio.NewRegistry(),
		objects: make(map[uint32][]byte),
	}
	proc, err := h.NewProcess(name)
	if err != nil {
		t.Fatal(err)
	}
	ts.srv = NewServer(proc, ts.store, ts, WithTeam(n))
	if err := ts.srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(proc.Destroy)
	return ts
}

func TestTeamServesAndCountsHandoffs(t *testing.T) {
	k := newDomain()
	h := k.NewHost("srv")
	ts := startToyTeam(t, h, "toy", 3)
	ts.addObject(CtxDefault, "hello.txt", []byte("hello world"))
	client := newClientProc(t, k.NewHost("ws"))

	const trials = 9
	for i := 0; i < trials; i++ {
		req := &proto.Message{Op: proto.OpQueryObject}
		proto.SetCSName(req, uint32(CtxDefault), "hello.txt")
		reply, err := Transact(client, ts.srv.PID(), req)
		if err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
		d, _, err := proto.DecodeDescriptor(reply.Segment)
		if err != nil || d.Name != "hello.txt" {
			t.Fatalf("trial %d: descriptor = %+v, %v", i, d, err)
		}
	}
	stats := ts.srv.Stats()
	if stats.Requests != trials {
		t.Fatalf("Requests = %d, want %d", stats.Requests, trials)
	}
	if stats.Handoffs != trials {
		t.Fatalf("Handoffs = %d, want %d", stats.Handoffs, trials)
	}
	if ts.srv.TeamSize() != 3 {
		t.Fatalf("TeamSize = %d", ts.srv.TeamSize())
	}
}

func TestTeamSizeOneCountsNoHandoffs(t *testing.T) {
	k := newDomain()
	ts := startToyServer(t, k.NewHost("srv"), "toy")
	ts.addObject(CtxDefault, "x", []byte("1"))
	client := newClientProc(t, k.NewHost("ws"))
	req := &proto.Message{Op: proto.OpQueryObject}
	proto.SetCSName(req, uint32(CtxDefault), "x")
	if _, err := Transact(client, ts.srv.PID(), req); err != nil {
		t.Fatal(err)
	}
	if stats := ts.srv.Stats(); stats.Handoffs != 0 || stats.Requests != 1 {
		t.Fatalf("stats = %+v", stats)
	}
}

// waitErr polls for the server's recorded termination cause; the run
// loop records it asynchronously after the receptionist dies.
func waitErr(t *testing.T, srv *Server) error {
	t.Helper()
	for i := 0; i < 200; i++ {
		if err := srv.Err(); err != nil {
			return err
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("server never recorded a termination cause")
	return nil
}

func TestServerErrNilWhileRunning(t *testing.T) {
	k := newDomain()
	ts := startToyServer(t, k.NewHost("srv"), "toy")
	if err := ts.srv.Err(); err != nil {
		t.Fatalf("running server Err = %v", err)
	}
}

func TestServerErrCleanDestroy(t *testing.T) {
	k := newDomain()
	ts := startToyServer(t, k.NewHost("srv"), "toy")
	ts.srv.Proc().Destroy()
	err := waitErr(t, ts.srv)
	if !errors.Is(err, kernel.ErrProcessDead) {
		t.Fatalf("Err = %v, want ErrProcessDead", err)
	}
	if errors.Is(err, kernel.ErrHostDown) {
		t.Fatalf("clean destroy misclassified as host crash: %v", err)
	}
}

func TestServerErrHostCrash(t *testing.T) {
	k := newDomain()
	h := k.NewHost("srv")
	ts := startToyServer(t, h, "toy")
	h.Crash()
	err := waitErr(t, ts.srv)
	if !errors.Is(err, kernel.ErrHostDown) {
		t.Fatalf("Err = %v, want ErrHostDown", err)
	}
}

func TestTeamErrHostCrash(t *testing.T) {
	k := newDomain()
	h := k.NewHost("srv")
	ts := startToyTeam(t, h, "toy", 4)
	h.Crash()
	err := waitErr(t, ts.srv)
	if !errors.Is(err, kernel.ErrHostDown) {
		t.Fatalf("Err = %v, want ErrHostDown", err)
	}
}

// TestTeamStressCore hammers one toy-server team from many concurrent
// client processes; run with -race this exercises the serving path's
// locking (stats, registry, store) under real parallelism.
func TestTeamStressCore(t *testing.T) {
	k := newDomain()
	h := k.NewHost("srv")
	ts := startToyTeam(t, h, "toy", 4)
	const clients, trials = 8, 25
	for i := 0; i < clients; i++ {
		ts.addObject(CtxDefault, fmt.Sprintf("obj%d", i), []byte("stress"))
	}

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		proc := newClientProc(t, k.NewHost(fmt.Sprintf("ws%d", i)))
		wg.Add(1)
		go func(i int, proc *kernel.Process) {
			defer wg.Done()
			for j := 0; j < trials; j++ {
				req := &proto.Message{Op: proto.OpQueryObject}
				proto.SetCSName(req, uint32(CtxDefault), fmt.Sprintf("obj%d", i))
				if _, err := Transact(proc, ts.srv.PID(), req); err != nil {
					errs <- fmt.Errorf("client %d trial %d: %w", i, j, err)
					return
				}
			}
		}(i, proc)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if stats := ts.srv.Stats(); stats.Requests != clients*trials {
		t.Fatalf("Requests = %d, want %d", stats.Requests, clients*trials)
	}
}
