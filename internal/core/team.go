package core

import (
	"fmt"

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
// The size counts the serving processes, each a served process
// (kernel.Process.Serve) owning no goroutine. Size 1 is the
// single-process server: the receptionist serves. For size n > 1 the
// receptionist Forwards round-robin to n workers, which serve on clocks
// that overlap in virtual time; the intra-host hop is charged at
// LocalHop by the network layer.
type Team struct {
	recept    *kernel.Process
	size      int
	serve     serveFunc
	onHandoff func()
}

// NewTeam assembles a team around the receptionist process. serve is
// invoked once per request on whichever process handles it; onHandoff (if
// non-nil) is called for every receptionist-to-worker handoff. Sizes
// below 1 mean 1.
func NewTeam(recept *kernel.Process, size int, serve serveFunc, onHandoff func()) *Team {
	if size < 1 {
		size = 1
	}
	return &Team{recept: recept, size: size, serve: serve, onHandoff: onHandoff}
}

// Start creates a larger team's workers, in pid order after the
// receptionist, and serves them all before returning. The team's death
// is recorded inside the Destroy or Host.Crash that kills the
// receptionist: a server-exit trace event, classified as Err reports
// it, and the workers' destruction.
func (t *Team) Start() error {
	r := t.recept
	var workers []*kernel.Process
	if t.size > 1 {
		for i := 0; i < t.size; i++ {
			w, err := r.Host().NewProcess(fmt.Sprintf("%s/worker%d", r.Name(), i))
			if err != nil {
				for _, w := range workers {
					w.Destroy()
				}
				return fmt.Errorf("spawn team %s: %w", r.Name(), err)
			}
			w.Serve(func(msg *proto.Message, from kernel.PID) { t.serve(w, msg, from) })
			workers = append(workers, w)
		}
	}
	r.OnExit(func() {
		r.Tracer().Event(0, trace.KindServerExit, trace.Name{Head: r.Name()}, r.Now(), r.TraceID(), kernel.FailureClass(r.Err()))
		for _, w := range workers {
			w.Destroy()
		}
	})
	if workers == nil {
		r.Serve(func(msg *proto.Message, from kernel.PID) { t.serve(r, msg, from) })
		return nil
	}
	next := 0
	r.Serve(func(msg *proto.Message, from kernel.PID) {
		t.handoff(msg, from, workers[next%len(workers)])
		next++
	})
	return nil
}

// handoff is the receptionist's turn in a team with workers: only the
// standard dispatch work before handing the transaction to w (§3.1).
// Reception is serialized at the dispatch cost; everything past it runs
// on the worker's clock.
func (t *Team) handoff(msg *proto.Message, from kernel.PID, w *kernel.Process) {
	r := t.recept
	r.ChargeCompute(r.Kernel().Model().ServerDispatchCost)
	if t.onHandoff != nil {
		t.onHandoff()
	}
	if tr := r.Tracer(); tr != nil {
		// The handoff span covers the dispatch decision and ends before the
		// Forward, whose hop is recorded as its child.
		sp := tr.Event(r.ServedSpan(), trace.KindHandoff, trace.Name{Head: "handoff", Sep: " -> ", Tail: w.Name()}, r.Now(), r.TraceID(), "")
		r.SetCurrentSpan(sp)
		defer r.SetCurrentSpan(0)
	}
	// A failed forward (worker died mid-crash) has already failed the
	// sender's transaction and classified the forward span.
	_ = r.Forward(msg, from, w.PID())
}
