package kernel

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/proto"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// mailboxDepth bounds queued, unreceived messages per process.
const mailboxDepth = 1024

// replyEvent completes a blocked Send.
type replyEvent struct {
	msg *proto.Message
	at  vtime.Time
	err error
}

// envelope is an in-flight message transaction. A Send's is part of the
// sender's own record, or a group member's clone of it; it travels through
// Forward unchanged except for its message and arrival time, and is
// completed exactly once by Reply or by failure.
type envelope struct {
	origin PID // the original sender, preserved across forwarding (§3.1)
	// shared marks an envelope the crash sweep failed while its receiver
	// may have been mid-Move on it: its sender retires the record.
	shared  bool
	msg     *proto.Message
	arrival vtime.Time
	// moveSrc and moveDst are the sender's memory segments readable via
	// MoveFrom and writable via MoveTo while the sender awaits the reply.
	moveSrc []byte
	moveDst []byte
	// span is the send (or, after forwarding, forward) span this
	// transaction currently runs under; servers parent their serve
	// spans on it via PendingSpan.
	span trace.SpanID
	// The completion lands in rec, the sender's record, or for a group
	// member's clone in fan. Kept to two words so a clone stays in the
	// 96-byte size class.
	rec *record
	fan *fanIn
}

// record is a process's Send transaction, reused Send after Send: the
// envelope that travels (or that a group's clones are made from), and the
// one completion that lands — from whoever took the envelope from a
// pending table or a mailbox, or from a group's fan-in.
type record struct {
	envelope
	state atomic.Uint32 // recOpen, recLanded or recParked
	ev    replyEvent
	wake  chan struct{} // one slot: wakes a sender that parked
}

const (
	recOpen uint32 = iota
	recLanded
	recParked
)

// land stores the completion. Whichever of land and await swaps the state
// second sees the other's mark: a completer that finds the sender parked
// wakes it; a sender that finds the completion landed reads it without
// parking — the case of every served target that replies in its turn.
func (r *record) land(ev replyEvent) {
	r.ev = ev
	if r.state.Swap(recLanded) == recParked {
		r.wake <- struct{}{}
	}
}

// await returns the completion, parking until it has landed.
func (r *record) await() replyEvent {
	if r.state.Swap(recParked) != recLanded {
		<-r.wake
	}
	return r.ev
}

func (e *envelope) complete(msg *proto.Message, at vtime.Time) { e.land(replyEvent{msg: msg, at: at}) }

func (e *envelope) fail(err error) { e.land(replyEvent{err: err}) }

func (e *envelope) land(ev replyEvent) {
	if e.rec != nil {
		e.rec.land(ev)
		return
	}
	e.fan.land(ev)
}

// record returns the process's record, opened for a new transaction with
// the given segments attached.
func (p *Process) record(moveSrc, moveDst []byte) *record {
	rec := p.rec
	if rec == nil {
		rec = &record{wake: make(chan struct{}, 1)}
		rec.origin, rec.rec = p.pid, rec
		p.rec = rec
	}
	// Field by field: a struct assignment would copy through write barriers.
	rec.moveSrc, rec.moveDst = moveSrc, moveDst
	rec.state.Store(recOpen)
	return rec
}

// finish ends a transaction on the record: retired if shared, or else
// kept, pinning no message or segment until the next Send.
func (p *Process) finish(rec *record) {
	if rec.shared {
		p.rec = nil
		return
	}
	rec.msg, rec.moveSrc, rec.moveDst, rec.ev = nil, nil, nil, replyEvent{}
}

// Process is a simulated V process. A process is the unit of IPC
// addressing: senders name the recipient process directly, not a port or
// mailbox (§4.1).
type Process struct {
	pid  PID
	name string
	host *Host

	clock vtime.Clock
	mbox  chan *envelope
	done  chan struct{}

	// A served process (Serve) owns no goroutine: handler is the body of
	// its `for { Receive; handle }` loop, and whoever delivers to it runs
	// one turn of that loop under serveMu. serving marks the turn in
	// progress and passed collects the envelopes its handler forwarded;
	// both belong to the goroutine holding serveMu.
	handler atomic.Pointer[func(msg *proto.Message, from PID)]
	serveMu sync.Mutex
	serving bool
	passed  []handoff

	// rec is the record of this process's Sends, to a process or a group.
	// A V sender is blocked until its reply, so a process has one Send in
	// flight and only the goroutine making it touches rec; the race
	// detector guards that rule. Nil until the first Send, and after one
	// that retired it.
	rec *record

	mu      sync.Mutex
	dead    bool
	crashed bool        // died with its host, not by clean Destroy
	pending []*envelope // received but not yet replied, one per origin, in arrival order
	// sendLat is the send_latency series of sends to this process, by op.
	sendLat metrics.Handles[*metrics.Histogram]
	// curSpan is the span this process's own activity currently nests
	// under (a serve, handoff or client-op span): a trace.SpanID, atomic
	// because every traced Send, Reply and Forward reads it.
	curSpan atomic.Uint64
	// onExit holds the hooks the terminate that kills the process runs;
	// guarded by mu, and kept off the cache lines the send path reads.
	onExit []func()
}

// PID returns the process identifier.
func (p *Process) PID() PID { return p.pid }

// Name returns the process's diagnostic name.
func (p *Process) Name() string { return p.name }

// Host returns the logical host the process runs on.
func (p *Process) Host() *Host { return p.host }

// Kernel returns the domain the process belongs to.
func (p *Process) Kernel() *Kernel { return p.host.kernel }

// Clock returns the process's virtual clock.
func (p *Process) Clock() *vtime.Clock { return &p.clock }

// Now returns the process's current virtual time.
func (p *Process) Now() vtime.Time { return p.clock.Now() }

// ChargeCompute advances the process's virtual clock by a computation
// cost.
func (p *Process) ChargeCompute(d time.Duration) { p.clock.Advance(d) }

// Done is closed when the process is destroyed.
func (p *Process) Done() <-chan struct{} { return p.done }

// isDead is the lock-free liveness check on the send hot path. It reads
// the done channel rather than the mutex-guarded dead flag: a send
// racing a concurrent destroy is caught by deliver() either way, and
// the sequential paths the simulation measures see terminate()'s close
// before any later send.
func (p *Process) isDead() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// Tracer returns the domain tracer (nil-safe to use when tracing is off).
func (p *Process) Tracer() *trace.Tracer { return p.host.kernel.Tracer() }

// TraceID identifies this process on trace spans.
func (p *Process) TraceID() trace.ProcID {
	return trace.ProcID{Name: p.name, PID: uint32(p.pid), Host: p.host.name}
}

// CurrentSpan returns the span this process's activity currently nests
// under (0 when none).
func (p *Process) CurrentSpan() trace.SpanID { return trace.SpanID(p.curSpan.Load()) }

// SetCurrentSpan sets (or, with 0, clears) the process's current span.
// Servers set it around serving a request so the kernel primitives they
// invoke parent their spans correctly.
func (p *Process) SetCurrentSpan(id trace.SpanID) { p.curSpan.Store(uint64(id)) }

// opTo names a transaction span "<op><sep><pid>" by its parts: the
// concatenation and PID.String's formatting run only if the tracer keeps
// the span (trace.Name).
func opTo(op proto.Code, sep string, dst PID) trace.Name {
	return trace.Name{Head: op.String(), Sep: sep, Render: pidTail, Arg: uint32(dst)}
}

func pidTail(v uint32) string { return PID(v).String() }

// PendingSpan returns the transaction span of the received-but-unreplied
// message from origin, for servers starting a serve span.
func (p *Process) PendingSpan(origin PID) trace.SpanID {
	if env := p.peekPending(origin); env != nil {
		return env.span
	}
	return 0
}

// Send sends msg to dst and blocks until the receiver (or the process the
// message is forwarded to) replies — one message transaction (Figure 1).
// The kernel never copies a message, so a handler may answer in the one it
// received, as V's reply overwrites the sender's message: after Send
// returns, the sender reads the reply, never its request.
func (p *Process) Send(msg *proto.Message, dst PID) (*proto.Message, error) {
	return p.SendMove(msg, dst, nil, nil)
}

// SendMove is Send with memory segments attached: while the sender is
// blocked, the recipient may read moveSrc via MoveFrom and write moveDst
// via MoveTo (§3.1).
func (p *Process) SendMove(msg *proto.Message, dst PID, moveSrc, moveDst []byte) (*proto.Message, error) {
	if p.isDead() {
		return nil, ErrProcessDead
	}
	if dst.IsGroup() {
		return p.sendGroup(msg, dst, moveSrc, moveDst)
	}
	k := p.host.kernel
	// Read once: the reply may land in msg.
	op := msg.Op
	tr := k.Tracer()
	var sp trace.SpanID
	if tr != nil {
		sp = tr.StartName(p.CurrentSpan(), trace.KindSend, opTo(op, " -> ", dst), p.clock.Now(), p.TraceID())
	}
	// Metrics, like the tracer, charge zero virtual time. The start time
	// is read before any cost accrues so the histogram sees the full
	// transaction latency.
	km := k.metrics.Load()
	var sendStart vtime.Time
	if km != nil {
		km.sends.Inc()
		km.inflight.Add(1)
		sendStart = p.clock.Now()
	}
	target, hostUp := k.findProcess(dst)
	if target == nil {
		p.chargeFailedSend(dst, hostUp)
		var err error
		if !hostUp && dst.Host() != p.host.id {
			err = fmt.Errorf("%w: %v (host down or gone)", ErrNonexistentProcess, dst)
		} else {
			err = fmt.Errorf("%w: %v", ErrNonexistentProcess, dst)
		}
		return p.sendFailed(km, sp, err)
	}
	d, det, err := k.net.UnicastDetail(p.host.id, dst.Host(), msg.WireSize(), p.clock.Now())
	if err != nil {
		p.clock.Advance(time.Duration(failedSendRetries) * k.model.RetransmitTimeout)
		err = fmt.Errorf("send to %v: %w", dst, err)
		return p.sendFailed(km, sp, err)
	}
	tr.Wire(sp, "request", p.clock.Now(), d, msg.WireSize(), det, dst.Host() == p.host.id, false)
	rec := p.record(moveSrc, moveDst)
	rec.msg, rec.arrival, rec.span = msg, p.clock.Now()+d, sp
	if !target.deliver(&rec.envelope) {
		// Never delivered: no completion can exist.
		p.chargeFailedSend(dst, true)
		err := fmt.Errorf("%w: %v", ErrNonexistentProcess, dst)
		return p.sendFailed(km, sp, err)
	}
	ev := rec.await()
	p.finish(rec)
	if ev.err != nil {
		p.clock.Advance(k.model.RetransmitTimeout)
		err := fmt.Errorf("send to %v: %w", dst, ev.err)
		return p.sendFailed(km, sp, err)
	}
	p.clock.Observe(ev.at)
	tr.End(sp, p.clock.Now())
	if km != nil {
		km.inflight.Add(-1)
		target.sendLat.Resolve(km.reg, uint16(op), func() *metrics.Histogram {
			return km.reg.Histogram("send_latency", metrics.Labels{Server: target.name, Op: op.String()})
		}).Record(p.clock.Now() - sendStart)
	}
	return ev.msg, nil
}

// sendFailed ends a failed Send: its span classified and, with metrics
// on, the failure counted by class.
func (p *Process) sendFailed(km *kernelMetrics, sp trace.SpanID, err error) (*proto.Message, error) {
	p.Tracer().Fail(sp, p.clock.Now(), FailureClass(err))
	if km != nil {
		km.inflight.Add(-1)
		km.reg.Counter("kernel_send_failures_total", metrics.Labels{Class: FailureClass(err)}).Inc()
	}
	return nil, err
}

// chargeFailedSend charges the virtual cost of discovering that a send
// cannot complete: a quick negative answer if the destination host is up,
// a retransmission timeout sequence if it is down or gone.
func (p *Process) chargeFailedSend(dst PID, hostUp bool) {
	m := p.host.kernel.model
	switch {
	case dst.Host() == p.host.id:
		// The local kernel table answers immediately.
		p.clock.Advance(m.GetPidLocalCost)
	case hostUp:
		// The remote kernel answers "nonexistent process": one round trip.
		p.clock.Advance(2 * m.RemoteHop(proto.HeaderBytes))
	default:
		p.clock.Advance(time.Duration(failedSendRetries) * m.RetransmitTimeout)
	}
}

// handoff is an envelope a handler forwarded, waiting for the handler to
// return before it is delivered to target.
type handoff struct {
	target *Process
	env    *envelope
}

// Serve makes p a served process: from now on handler runs, on the
// goroutine of whoever Sends or Forwards to p, for each message p would
// otherwise have taken with Receive — one at a time, with p's clock
// having observed the arrival. The handler answers with Reply or Forward
// as a Receive loop's body would, or returns leaving the sender blocked
// for a later turn to Reply to. A served process has no thread of its
// own: its other primitives (Send, Reply, Forward, MoveTo/From) are for
// its handler to call, and Receive fails with ErrServed.
//
// Virtual time cannot tell a served process from a received one: clocks
// are per process, and the handler's charges land on p's clock whichever
// goroutine executes them. Messages that reached p before Serve are
// served before it returns.
func (p *Process) Serve(handler func(msg *proto.Message, from PID)) {
	p.handler.Store(&handler)
	p.serveQueued(handler)
}

// serveQueued serves what sits in the mailbox of a served process: the
// messages that arrived between NewProcess and Serve.
func (p *Process) serveQueued(handler func(msg *proto.Message, from PID)) {
	for {
		select {
		case env := <-p.mbox:
			p.runTurn(handler, env)
		default:
			return
		}
	}
}

// deliver hands an envelope to the process — served at once if the
// process is served, queued for its Receive otherwise — failing if it is
// dead. A true result means the envelope's completion is no longer the
// caller's to produce.
func (p *Process) deliver(env *envelope) bool {
	if p.isDead() {
		return false
	}
	if h := p.handler.Load(); h != nil {
		p.runTurn(*h, env)
		return true
	}
	select {
	case p.mbox <- env:
		// If the process died between the check and the enqueue, sweep
		// the mailbox so the sender is not stranded; if it became served,
		// nobody will Receive what was just queued.
		if p.isDead() {
			p.drainMailbox()
		} else if h := p.handler.Load(); h != nil {
			p.serveQueued(*h)
		}
		return true
	case <-p.done:
		return false
	}
}

// runTurn runs one turn of a served process's loop on the calling
// goroutine, then delivers what the handler forwarded. The forwards wait
// for the serve lock to be released because a forward chain may lead
// back here (A forwards to B forwards to A), which a nested delivery
// would deadlock on and a mailbox never did.
func (p *Process) runTurn(handler func(msg *proto.Message, from PID), env *envelope) {
	var buf [4]handoff // on the stack: a turn forwards once, a group a few times
	for _, h := range p.turn(handler, env, buf[:0]) {
		if !h.target.deliver(h.env) {
			h.env.fail(fmt.Errorf("forward to %v: %w", h.target.pid, ErrNonexistentProcess))
		}
	}
}

// turn is Receive and the loop body under the serve lock. It returns the
// handler's forwards appended to out. The envelope is not read once the
// handler has run: a replied-to sender may already be reusing it.
func (p *Process) turn(handler func(msg *proto.Message, from PID), env *envelope, out []handoff) []handoff {
	msg, from := env.msg, env.origin
	p.serveMu.Lock()
	defer p.serveMu.Unlock()
	if !p.accept(env) {
		// Died while the envelope waited its turn: the mailbox sweep.
		env.fail(ErrNonexistentProcess)
		return out
	}
	p.serving = true
	handler(msg, from)
	p.serving = false
	out = append(out, p.passed...)
	clear(p.passed)
	p.passed = p.passed[:0]
	return out
}

// pass hands a forwarded envelope on to target: at once, or — from
// inside a handler — when the handler has returned (runTurn).
func (p *Process) pass(target *Process, env *envelope) bool {
	if p.serving {
		p.passed = append(p.passed, handoff{target, env})
		return true
	}
	return target.deliver(env)
}

// accept is the arrival of a message: the process's clock observes it
// and the envelope waits in pending for Reply or Forward. It fails if the
// process is dead.
func (p *Process) accept(env *envelope) bool {
	p.clock.Observe(env.arrival)
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.dead {
		return false
	}
	if i := p.pendingAt(env.origin); i >= 0 {
		p.pending[i] = env
	} else {
		p.pending = append(p.pending, env)
	}
	return true
}

// pendingAt returns the index of origin's pending envelope, or -1; caller
// holds p.mu. One entry per blocked sender: a scan beats hashing.
func (p *Process) pendingAt(origin PID) int {
	for i, env := range p.pending {
		if env.origin == origin {
			return i
		}
	}
	return -1
}

// Receive blocks until a message arrives, returning the message and the
// pid of the (original) sender. The message must eventually be answered
// with Reply or passed on with Forward. Every server is served; only the
// benchmark's echo probes (bench/probes.go) receive, and the kernel tests
// that keep a received process as the oracle for a served one.
func (p *Process) Receive() (*proto.Message, PID, error) {
	if p.handler.Load() != nil {
		return nil, NilPID, ErrServed
	}
	select {
	case env := <-p.mbox:
		if !p.accept(env) {
			env.fail(ErrNonexistentProcess)
			return nil, NilPID, ErrProcessDead
		}
		return env.msg, env.origin, nil
	case <-p.done:
		return nil, NilPID, ErrProcessDead
	}
}

// take removes the pending envelope from origin and, when tracing,
// starts the span (kind) of the Reply or Forward passing it on to dst.
func (p *Process) take(origin PID, kind trace.Kind, op proto.Code, dst PID) (*envelope, trace.SpanID) {
	p.mu.Lock()
	i := p.pendingAt(origin)
	if i < 0 {
		p.mu.Unlock()
		return nil, 0
	}
	env := p.pending[i]
	p.pending = slices.Delete(p.pending, i, i+1)
	p.mu.Unlock()
	if tr := p.Tracer(); tr != nil {
		return env, tr.StartName(p.spanUnder(env), kind, opTo(op, " -> ", dst), p.clock.Now(), p.TraceID())
	}
	return env, 0
}

// spanUnder is the span p's work on env's transaction nests under: p's
// current span, or else the transaction's own.
func (p *Process) spanUnder(env *envelope) trace.SpanID {
	if sp := p.CurrentSpan(); sp != 0 {
		return sp
	}
	return env.span
}

// peekPending returns the pending envelope from origin without removing
// it, for Move operations that precede the Reply.
func (p *Process) peekPending(origin PID) *envelope {
	p.mu.Lock()
	defer p.mu.Unlock()
	if i := p.pendingAt(origin); i >= 0 {
		return p.pending[i]
	}
	return nil
}

// Reply completes the message transaction with the process `to`, which
// must have a received-but-unreplied message here.
func (p *Process) Reply(msg *proto.Message, to PID) error {
	env, sp := p.take(to, trace.KindReply, msg.Op, to)
	if env == nil {
		return fmt.Errorf("%w: %v", ErrNoPendingMessage, to)
	}
	k := p.host.kernel
	tr := k.Tracer()
	d, det, err := k.net.UnicastDetail(p.host.id, env.origin.Host(), msg.WireSize(), p.clock.Now())
	if err != nil {
		return p.abort(env, sp, fmt.Errorf("reply to %v: %w", to, err))
	}
	tr.Wire(sp, "reply", p.clock.Now(), d, msg.WireSize(), det, env.origin.Host() == p.host.id, false)
	// End the span before unblocking the sender, so a snapshot taken
	// the moment the sender resumes never sees a half-open reply. The
	// reply counter bumps before completion for the same reason.
	tr.End(sp, p.clock.Now()+d)
	if km := k.metrics.Load(); km != nil {
		km.replies.Inc()
	}
	env.complete(msg, p.clock.Now()+d)
	return nil
}

// Forward passes the message transaction from `from` on to process `to`:
// it appears to `to` as though the original sender sent to it directly,
// and `to` is expected to receive the message and reply to the original
// sender (§3.1). The forwarder may modify the message first — this is how
// a server rewrites the context id and name index fields before passing a
// partially-interpreted CSname request along (§5.4).
func (p *Process) Forward(msg *proto.Message, from PID, to PID) error {
	env, sp := p.take(from, trace.KindForward, msg.Op, to)
	if env == nil {
		return fmt.Errorf("%w: %v", ErrNoPendingMessage, from)
	}
	k := p.host.kernel
	tr := k.Tracer()
	if to.IsGroup() {
		return p.forwardGroup(env, msg, to, sp)
	}
	target, _ := k.findProcess(to)
	if target == nil {
		return p.abort(env, sp, fmt.Errorf("forward to %v: %w", to, ErrNonexistentProcess))
	}
	d, det, err := k.net.UnicastDetail(p.host.id, to.Host(), msg.WireSize(), p.clock.Now())
	if err != nil {
		return p.abort(env, sp, fmt.Errorf("forward to %v: %w", to, err))
	}
	tr.Wire(sp, "forward", p.clock.Now(), d, msg.WireSize(), det, to.Host() == p.host.id, false)
	// Count before delivering: the recipient may serve and unblock the
	// original sender before this goroutine runs again, and a sample
	// taken then must already include this forward.
	if km := k.metrics.Load(); km != nil {
		km.forwards.Inc()
	}
	env.msg, env.arrival, env.span = msg, p.clock.Now()+d, sp
	// End before delivering: the recipient may serve and unblock the
	// original sender before this goroutine runs again, and a snapshot
	// then must not see a half-open forward. If delivery fails below,
	// the failure classification lands on the root send span instead.
	tr.End(sp, env.arrival)
	if !p.pass(target, env) {
		return p.abort(env, sp, fmt.Errorf("forward to %v: %w", to, ErrNonexistentProcess))
	}
	return nil
}

// abort fails the transaction env with err, which Reply or Forward
// returns, classifying their span sp unless it has already ended.
func (p *Process) abort(env *envelope, sp trace.SpanID, err error) error {
	p.Tracer().Fail(sp, p.clock.Now(), FailureClass(err))
	env.fail(err)
	return err
}

// MoveFrom copies bytes from the memory segment of the blocked sender
// `src` (starting at offset) into dst, returning the count copied. The
// transfer is charged at the bulk-transfer packet rate (§3.1).
func (p *Process) MoveFrom(src PID, dst []byte, offset int) (int, error) {
	env := p.peekPending(src)
	if env == nil {
		return 0, fmt.Errorf("%w: %v", ErrNoPendingMessage, src)
	}
	if env.moveSrc == nil {
		return 0, fmt.Errorf("%w: sender attached no readable segment", proto.ErrBadArgs)
	}
	if offset < 0 || offset > len(env.moveSrc) {
		return 0, fmt.Errorf("%w: MoveFrom offset %d outside segment of %d", proto.ErrBadArgs, offset, len(env.moveSrc))
	}
	n := copy(dst, env.moveSrc[offset:])
	d, det, err := p.host.kernel.net.UnicastDetail(src.Host(), p.host.id, n, p.clock.Now())
	if err != nil {
		return 0, err
	}
	if tr := p.Tracer(); tr != nil {
		tr.Wire(p.spanUnder(env), "move-from", p.clock.Now(), d, n, det, src.Host() == p.host.id, false)
	}
	p.clock.Advance(d)
	return n, nil
}

// MoveTo copies data into the memory segment of the blocked sender `dst`
// at the given offset, returning the count copied.
func (p *Process) MoveTo(dst PID, offset int, data []byte) (int, error) {
	env := p.peekPending(dst)
	if env == nil {
		return 0, fmt.Errorf("%w: %v", ErrNoPendingMessage, dst)
	}
	if env.moveDst == nil {
		return 0, fmt.Errorf("%w: sender attached no writable segment", proto.ErrBadArgs)
	}
	if offset < 0 || offset > len(env.moveDst) {
		return 0, fmt.Errorf("%w: MoveTo offset %d outside segment of %d", proto.ErrBadArgs, offset, len(env.moveDst))
	}
	n := copy(env.moveDst[offset:], data)
	d, det, err := p.host.kernel.net.UnicastDetail(p.host.id, dst.Host(), n, p.clock.Now())
	if err != nil {
		return 0, err
	}
	if tr := p.Tracer(); tr != nil {
		tr.Wire(p.spanUnder(env), "move-to", p.clock.Now(), d, n, det, dst.Host() == p.host.id, false)
	}
	p.clock.Advance(d)
	return n, nil
}

// ReplySegment returns the writable segment the blocked sender `to`
// attached with SendMove, or nil — V's ReplyWithSegment. A handler may
// fill it before its Reply to `to` and then reply with Segment set to
// the part it filled: the bytes land where the sender reads them, at no
// charge, because the reply's wire size prices them. The segment
// follows the transaction through Forward, and is not the handler's once
// it has replied.
func (p *Process) ReplySegment(to PID) []byte {
	if env := p.peekPending(to); env != nil {
		return env.moveDst
	}
	return nil
}

// SetPid registers pid as providing service on this process's host (§4.2).
func (p *Process) SetPid(service Service, pid PID, vis Scope) error {
	return p.host.SetPid(service, pid, vis)
}

// GetPid returns the pid of a process registered as providing service
// within the given scope (§4.2). The local kernel table is consulted
// first; unless the scope is local, a broadcast query then asks the other
// kernels on the network.
func (p *Process) GetPid(service Service, scope Scope) (PID, error) {
	k := p.host.kernel
	m := k.model
	tr := k.Tracer()
	var sp trace.SpanID
	if tr != nil {
		sp = tr.Start(p.CurrentSpan(), trace.KindGetPid, service.String(), p.clock.Now(), p.TraceID())
	}
	if km := k.metrics.Load(); km != nil {
		km.getpids.Inc()
	}
	if scope != ScopeRemote {
		p.clock.Advance(m.GetPidLocalCost)
		if pid, ok := p.host.lookupService(service, false); ok {
			tr.End(sp, p.clock.Now())
			return pid, nil
		}
		if scope == ScopeLocal {
			err := fmt.Errorf("%w: %v (local)", ErrNotFound, service)
			tr.Fail(sp, p.clock.Now(), FailureClass(err))
			return NilPID, err
		}
	}
	// One broadcast frame queries every kernel; the first positive
	// response (lowest host id, deterministically) costs one return hop.
	bcast := k.net.Broadcast(p.host.id, proto.HeaderBytes, p.clock.Now())
	tr.Wire(sp, "getpid-broadcast", p.clock.Now(), bcast, proto.HeaderBytes, netsim.HopDetail{Packets: 1}, false, true)
	for _, h := range *k.hosts.Load() { // in id order
		if h == nil || h.id == p.host.id || !h.alive.Load() || !k.net.Reachable(p.host.id, h.id) {
			continue
		}
		if pid, ok := h.lookupService(service, true); ok {
			p.clock.Advance(bcast + m.RemoteHop(proto.HeaderBytes))
			tr.End(sp, p.clock.Now())
			return pid, nil
		}
	}
	p.clock.Advance(bcast + m.RetransmitTimeout)
	err := fmt.Errorf("%w: %v", ErrNotFound, service)
	tr.Fail(sp, p.clock.Now(), FailureClass(err))
	return NilPID, err
}

// Destroy terminates the process: blocked senders get
// ErrNonexistentProcess, its service registrations are removed, and it
// leaves all groups.
func (p *Process) Destroy() {
	h := p.host
	h.mu.Lock()
	if (*h.procs.Load())[p.pid] == p {
		h.storeProcs(p.pid, nil)
	}
	h.mu.Unlock()
	h.deregisterPid(p.pid)
	h.kernel.leaveAllGroups(p.pid)
	p.terminate(!h.alive.Load()) // from a crash's exit hook: died with the host
}

// OnExit arranges for f to run once the process dies: inside the Destroy
// or Host.Crash that kills it, before that call returns — or at once if
// the process is already dead. A server records its death here, so a
// crash is fully recorded when Crash returns.
func (p *Process) OnExit(f func()) {
	p.mu.Lock()
	if !p.dead {
		p.onExit = append(p.onExit, f)
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()
	f()
}

// Err reports how the process died: nil while it is alive,
// ErrProcessDead after a clean Destroy, and an error wrapping ErrHostDown
// when its host crashed under it — which stays so across a Restart.
func (p *Process) Err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	switch {
	case !p.dead:
		return nil
	case p.crashed:
		return fmt.Errorf("%w: host %s under %s", ErrHostDown, p.host.name, p.name)
	}
	return ErrProcessDead
}

// terminate marks the process dead, fails every outstanding transaction
// touching it and runs its exit hooks. crashed records the cause for Err.
func (p *Process) terminate(crashed bool) {
	p.mu.Lock()
	if p.dead {
		p.mu.Unlock()
		return
	}
	p.dead = true
	p.crashed = crashed
	pend, hooks := p.pending, p.onExit
	p.pending, p.onExit = nil, nil
	p.mu.Unlock()
	close(p.done)
	for _, env := range pend {
		// This process's goroutine may still be touching the envelope
		// (mid-MoveFrom/MoveTo); leave it to the GC instead of letting the
		// sender reuse it out from under that access.
		env.shared = true
		env.fail(ErrNonexistentProcess)
	}
	p.drainMailbox()
	for _, f := range hooks {
		f()
	}
}

func (p *Process) drainMailbox() {
	for {
		select {
		case env := <-p.mbox:
			env.fail(ErrNonexistentProcess)
		default:
			return
		}
	}
}
