package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/proto"
	"repro/internal/trace"
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
	ts.srv = NewServer(proc, ts.store, ts, n)
	if err := ts.srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(proc.Destroy)
	return ts
}

// counted sums reg's counters of the server labelled name, by series.
func counted(reg *metrics.Registry, name string) map[string]uint64 {
	sums := make(map[string]uint64)
	for _, c := range reg.Snapshot().Counters {
		if c.Labels.Server == name {
			sums[c.Name] += c.Value
		}
	}
	return sums
}

func TestTeamServesAndCountsHandoffs(t *testing.T) {
	k := newDomain()
	reg := metrics.New()
	k.SetMetrics(reg)
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
	c := counted(reg, "toy")
	if c["server_requests_total"] != trials {
		t.Fatalf("requests = %d, want %d", c["server_requests_total"], trials)
	}
	if c["server_handoffs_total"] != trials {
		t.Fatalf("handoffs = %d, want %d", c["server_handoffs_total"], trials)
	}
}

func TestTeamSizeOneCountsNoHandoffs(t *testing.T) {
	k := newDomain()
	reg := metrics.New()
	k.SetMetrics(reg)
	ts := startToyServer(t, k.NewHost("srv"), "toy")
	ts.addObject(CtxDefault, "x", []byte("1"))
	client := newClientProc(t, k.NewHost("ws"))
	req := &proto.Message{Op: proto.OpQueryObject}
	proto.SetCSName(req, uint32(CtxDefault), "x")
	if _, err := Transact(client, ts.srv.PID(), req); err != nil {
		t.Fatal(err)
	}
	if c := counted(reg, "toy"); c["server_handoffs_total"] != 0 || c["server_requests_total"] != 1 {
		t.Fatalf("counters = %v", c)
	}
}

func TestServerErrNilWhileRunning(t *testing.T) {
	k := newDomain()
	ts := startToyServer(t, k.NewHost("srv"), "toy")
	if err := ts.srv.Proc().Err(); err != nil {
		t.Fatalf("running server Err = %v", err)
	}
}

func TestServerErrCleanDestroy(t *testing.T) {
	k := newDomain()
	ts := startToyServer(t, k.NewHost("srv"), "toy")
	ts.srv.Proc().Destroy()
	err := ts.srv.Proc().Err()
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
	err := ts.srv.Proc().Err()
	if !errors.Is(err, kernel.ErrHostDown) {
		t.Fatalf("Err = %v, want ErrHostDown", err)
	}
}

func TestTeamErrHostCrash(t *testing.T) {
	k := newDomain()
	h := k.NewHost("srv")
	ts := startToyTeam(t, h, "toy", 4)
	h.Crash()
	err := ts.srv.Proc().Err()
	if !errors.Is(err, kernel.ErrHostDown) {
		t.Fatalf("Err = %v, want ErrHostDown", err)
	}
}

// TestTeamExitIsSynchronous: a team's death is recorded inside the Crash
// that causes it — the moment Crash returns, Err classifies it and the
// trace holds its one server-exit event; neither a Restart nor a late
// Destroy of the dead receptionist changes that.
func TestTeamExitIsSynchronous(t *testing.T) {
	for _, n := range []int{1, 4} {
		k := newDomain()
		tr := trace.New()
		k.SetTracer(tr)
		h := k.NewHost("srv")
		ts := startToyTeam(t, h, "toy", n)
		if err := ts.srv.Proc().Err(); err != nil {
			t.Fatalf("team of %d: Err = %v while serving", n, err)
		}
		var workers []*kernel.Process
		for i := 1; n > 1 && i <= n; i++ {
			w, err := h.ProcessByPID(ts.srv.PID() + kernel.PID(i))
			if err != nil {
				t.Fatal(err)
			}
			workers = append(workers, w)
		}
		h.Crash()
		if err := ts.srv.Proc().Err(); !errors.Is(err, kernel.ErrHostDown) {
			t.Fatalf("team of %d: Err = %v the moment Crash returned, want ErrHostDown", n, err)
		}
		// The receptionist's hook destroys the workers inside the crash:
		// they died with the host too.
		for i, w := range workers {
			if err := w.Err(); !errors.Is(err, kernel.ErrHostDown) {
				t.Fatalf("team of %d: worker %d Err = %v, want ErrHostDown", n, i, err)
			}
		}
		h.Restart()
		ts.srv.Proc().Destroy()
		var exits []trace.Span
		for _, sp := range tr.Snapshot() {
			if sp.Kind == trace.KindServerExit {
				exits = append(exits, sp)
			}
		}
		if len(exits) != 1 || exits[0].Err != "host-down" || exits[0].Proc != "toy" {
			t.Fatalf("team of %d: server-exit events %+v, want one host-down event for toy", n, exits)
		}
		if !errors.Is(ts.srv.Proc().Err(), kernel.ErrHostDown) {
			t.Fatalf("team of %d: Err = %v after Restart and Destroy", n, ts.srv.Proc().Err())
		}
	}
}

// TestTeamStartServesWorkers: a team of n creates n served workers, in
// pid order after the receptionist and named after it, and a clean
// Destroy of the receptionist destroys them before it returns.
func TestTeamStartServesWorkers(t *testing.T) {
	k := newDomain()
	h := k.NewHost("srv")
	ts := startToyTeam(t, h, "toy", 4)
	var workers []*kernel.Process
	for i := 0; i < 4; i++ {
		w, err := h.ProcessByPID(ts.srv.PID() + kernel.PID(i+1))
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
		if want := fmt.Sprintf("toy/worker%d", i); w.Name() != want {
			t.Fatalf("worker %d named %q, want %q", i, w.Name(), want)
		}
		// The one Receive outside the kernel's tests: a served worker must
		// refuse it.
		if _, _, err := w.Receive(); !errors.Is(err, kernel.ErrServed) {
			t.Fatalf("worker %d: Receive = %v, want ErrServed", i, err)
		}
		workers = append(workers, w)
	}
	ts.srv.Proc().Destroy()
	for i, w := range workers {
		if !errors.Is(w.Err(), kernel.ErrProcessDead) {
			t.Fatalf("worker %d: Err = %v after the receptionist's Destroy", i, w.Err())
		}
	}
}

// TestTeamStartOnCrashedHost: a team cannot start on a crashed host, and
// the failed Start leaves no worker behind — not even a pid allocated.
func TestTeamStartOnCrashedHost(t *testing.T) {
	k := newDomain()
	h := k.NewHost("srv")
	recept, err := h.NewProcess("toy")
	if err != nil {
		t.Fatal(err)
	}
	h.Crash()
	team := NewTeam(recept, 3, func(*kernel.Process, *proto.Message, kernel.PID) {}, nil)
	if err := team.Start(); !errors.Is(err, kernel.ErrHostDown) {
		t.Fatalf("Start on a crashed host = %v, want ErrHostDown", err)
	}
	h.Restart()
	next, err := h.NewProcess("next")
	if err != nil {
		t.Fatal(err)
	}
	if next.PID() != recept.PID()+1 {
		t.Fatalf("next pid %v after receptionist %v: the failed Start allocated workers", next.PID(), recept.PID())
	}
}

// TestTeamStressCore hammers one toy-server team from many concurrent
// client processes; run with -race this exercises the serving path's
// locking (series, registry, store) under real parallelism.
func TestTeamStressCore(t *testing.T) {
	k := newDomain()
	reg := metrics.New()
	k.SetMetrics(reg)
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
	if c := counted(reg, "toy"); c["server_requests_total"] != clients*trials || c["server_handoffs_total"] != clients*trials {
		t.Fatalf("counters = %v, want %d requests, each handed off", c, clients*trials)
	}
}
