package core

import (
	"fmt"
	"sync"

	"repro/internal/kernel"
	"repro/internal/proto"
	"repro/internal/trace"
)

// serveFunc processes one received message on behalf of the serving
// process p (the receptionist itself, or a team worker).
type serveFunc func(p *kernel.Process, msg *proto.Message, from kernel.PID)

// Team is the multi-process serving runtime (§3.1): V servers are process
// teams in which a receptionist process receives requests and immediately
// Forwards each transaction to a worker process on the same host, so one
// client's disk or compute wait never delays another client's request.
// The kernel Forward primitive makes the handoff invisible to the client:
// the worker appears to have received the request directly and replies to
// the original sender.
//
// Size counts the serving processes. Size 1 is the single-process server:
// the receptionist is a served process (kernel.Process.Serve) whose
// handler is the serve function, so a request costs its sender a call
// and no goroutine hand-off. For size n > 1 the receptionist only
// receives, charges the dispatch cost, and hands off round-robin to n
// workers, each with a goroutine of its own — they exist to overlap; the
// intra-host hop is charged at LocalHop by the network layer.
type Team struct {
	recept    *kernel.Process
	size      int
	serve     serveFunc
	onHandoff func()

	mu      sync.Mutex
	workers []*kernel.Process
	err     error
	exited  chan struct{}
}

// NewTeam assembles a team around the receptionist process. serve is
// invoked once per request on whichever process handles it; onHandoff (if
// non-nil) is called for every receptionist-to-worker handoff. Sizes
// below 1 mean 1.
func NewTeam(recept *kernel.Process, size int, serve serveFunc, onHandoff func()) *Team {
	if size < 1 {
		size = 1
	}
	return &Team{recept: recept, size: size, serve: serve, onHandoff: onHandoff, exited: make(chan struct{})}
}

// Size returns the number of serving processes.
func (t *Team) Size() int { return t.size }

// Err reports why the team stopped serving: nil while it is running,
// kernel.ErrProcessDead after a clean Destroy, and an error wrapping
// kernel.ErrHostDown when the host crashed under it.
func (t *Team) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// Start begins serving and returns: a team of one installs its handler
// on the receptionist — before returning, so no request can reach the
// pid and find nobody serving — and larger teams spawn their workers and
// run the reception loop in its own goroutine. It replaces
// `go team.Run()` when the caller wants the worker-spawn error.
func (t *Team) Start() error {
	if t.size <= 1 {
		t.serveAlone()
		go t.awaitExit()
		return nil
	}
	if err := t.spawnWorkers(); err != nil {
		return err
	}
	go t.receive()
	return nil
}

// Run serves until the receptionist process is destroyed. Call it from
// the receptionist's goroutine (Host.Spawn).
func (t *Team) Run() {
	if t.size <= 1 {
		t.serveAlone()
		t.awaitExit()
		return
	}
	if err := t.spawnWorkers(); err != nil {
		t.recordExit(err)
		return
	}
	t.receive()
}

// serveAlone makes the receptionist of a team of one a served process.
func (t *Team) serveAlone() {
	t.recept.Serve(func(msg *proto.Message, from kernel.PID) {
		t.serve(t.recept, msg, from)
	})
}

// awaitExit records the exit of a team of one, which has no loop to
// notice that its Receive failed.
func (t *Team) awaitExit() {
	<-t.recept.Done()
	t.recordExit(kernel.ErrProcessDead)
}

func (t *Team) spawnWorkers() error {
	workers, err := t.recept.Host().SpawnTeam(t.recept.Name(), t.size, t.workerLoop)
	if err != nil {
		return fmt.Errorf("spawn team %s: %w", t.recept.Name(), err)
	}
	t.mu.Lock()
	t.workers = workers
	t.mu.Unlock()
	return nil
}

// receive is the reception loop of a team with workers: the receptionist
// does only the standard dispatch work before handing the transaction
// off (§3.1).
func (t *Team) receive() {
	model := t.recept.Kernel().Model()
	next := 0
	for {
		msg, from, err := t.recept.Receive()
		if err != nil {
			t.recordExit(err)
			t.stopWorkers()
			return
		}
		// Reception is serialized at the dispatch cost; everything past
		// it runs on the worker's clock.
		t.recept.ChargeCompute(model.ServerDispatchCost)
		if t.onHandoff != nil {
			t.onHandoff()
		}
		w := t.workers[next%len(t.workers)]
		next++
		if tr := t.recept.Tracer(); tr != nil {
			sp := tr.StartName(t.recept.PendingSpan(from), trace.KindHandoff, trace.Name{Head: "handoff", Sep: " -> ", Tail: w.Name()}, t.recept.Now(), t.recept.TraceID())
			// The handoff span covers the dispatch decision and ends before
			// the Forward: a fast worker can unblock the client before this
			// goroutine runs again, and a snapshot then must never see a
			// half-open handoff. The forward hop is recorded as its child.
			tr.End(sp, t.recept.Now())
			t.recept.SetCurrentSpan(sp)
			// A failed forward (worker died mid-crash) has already failed
			// the sender's transaction and classified the forward span.
			_ = t.recept.Forward(msg, from, w.PID())
			t.recept.SetCurrentSpan(0)
			continue
		}
		// A failed forward (worker died mid-crash) has already failed
		// the sender's transaction.
		_ = t.recept.Forward(msg, from, w.PID())
	}
}

func (t *Team) workerLoop(p *kernel.Process) {
	for {
		msg, from, err := p.Receive()
		if err != nil {
			t.recordExit(err)
			return
		}
		t.serve(p, msg, from)
	}
}

// recordExit records the first termination cause, classifying a
// crashed-host shutdown distinctly from a clean destroy.
func (t *Team) recordExit(err error) {
	// CrashKilled, not Host().Alive(): the dying goroutine may run only
	// after the host has already been restarted, and the classification
	// must reflect how this team died, not the host's current state.
	if t.recept.CrashKilled() || !t.recept.Host().Alive() {
		err = fmt.Errorf("%w: host %s under server %s", kernel.ErrHostDown, t.recept.Host().Name(), t.recept.Name())
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return
	}
	t.err = err
	// Record why the team stopped, classified: "host-down" for a
	// crash, "process-dead" for a clean destroy — the distinction
	// Err() reports, now visible from the trace alone. Recorded before
	// exited is closed (and before Err can observe the error), so anyone
	// synchronizing on either is guaranteed to see the event in a
	// snapshot — team death is asynchronous real time even though it is
	// instantaneous virtual time.
	t.recept.Tracer().Event(0, trace.KindServerExit, trace.Name{Head: t.recept.Name()},
		t.recept.Now(), t.recept.TraceID(), kernel.FailureClass(err))
	close(t.exited)
}

// Exited is closed once the team has stopped serving, after the exit
// cause and its trace event are recorded. It is the synchronization
// point for observers that need the team's death to be visible —
// chaos restart hooks, trace snapshots — since the serving goroutines
// notice a host crash asynchronously.
func (t *Team) Exited() <-chan struct{} { return t.exited }

// stopWorkers destroys the workers after the receptionist stops; on a
// host crash the kernel has already terminated them.
func (t *Team) stopWorkers() {
	t.mu.Lock()
	workers := t.workers
	t.mu.Unlock()
	for _, w := range workers {
		w.Destroy()
	}
}
