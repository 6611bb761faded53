// Resilience: the client run-time's unified recovery policy.
//
// The paper's §2.2 argues the distributed model keeps every object on a
// live server nameable — but only if clients actually re-resolve names
// when a binding dies under them. This file adds that recovery to the
// standard run-time routines as one policy shared by every operation:
//
//   - bounded exponential-backoff retries, charged to virtual time, on
//     transport-level failures (dead process, host down, partition,
//     retransmission exhaustion) and on the prefix server's bounded
//     "no live target" answer;
//   - automatic re-resolution between attempts: prefixed names re-route
//     through the context prefix server (whose dynamic bindings rebind
//     via GetPid at time of use, §4.2), and a dangling current context
//     is re-mapped from the name it was entered by;
//   - recovery counted by the session, added to its kernel's series per
//     session process: client_{ops,op_failures,retries,rebinds,failovers}_total
//     and client_backoff_ns_total, the virtual time spent backing off.
package client

import (
	"errors"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/prefix"
	"repro/internal/proto"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// RetryPolicy bounds the recovery a session performs on a failed
// operation. All delays are virtual time, charged to the session's
// process clock.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per operation (1 = no
	// retry).
	MaxAttempts int
	// BaseDelay is the backoff before the first retry.
	BaseDelay time.Duration
	// MaxDelay caps the exponential growth (doubling per retry).
	MaxDelay time.Duration
}

// DefaultRetryPolicy is the measured policy the chaos experiments use:
// four attempts, 50 ms initial backoff doubling to a 400 ms cap —
// roughly the kernel's retransmission scale, so a retried operation
// rides out one retransmit-detected failure per backoff step.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 4, BaseDelay: 50 * time.Millisecond, MaxDelay: 400 * time.Millisecond}
}

// resilience is the per-session recovery state and what the policy
// counts, on the client's own goroutine.
type resilience struct {
	policy                                                  RetryPolicy
	observer                                                func(vtime.Time)
	ops, opFailures, retries, backoffNS, failovers, rebinds *metrics.Counter
}

// EnableResilience turns on the recovery policy for every operation on
// this session, its counts added to the kernel's series labelled with
// the session's process name.
func (s *Session) EnableResilience(policy RetryPolicy) {
	if policy.MaxAttempts < 1 {
		policy.MaxAttempts = 1
	}
	k, l := s.proc.Kernel(), metrics.Labels{Server: s.proc.Name()}
	s.recovery = &resilience{policy: policy,
		ops: k.NewCounter("client_ops_total", l), opFailures: k.NewCounter("client_op_failures_total", l),
		retries: k.NewCounter("client_retries_total", l), backoffNS: k.NewCounter("client_backoff_ns_total", l),
		failovers: k.NewCounter("client_failovers_total", l), rebinds: k.NewCounter("client_rebinds_total", l)}
}

// SetRetryObserver installs a callback invoked with the session's
// virtual time after each backoff charge. The chaos engine registers
// its AdvanceTo here, so faults scheduled in virtual time fire while a
// session is waiting out an outage — exactly when a real deployment
// would see them.
func (s *Session) SetRetryObserver(fn func(vtime.Time)) {
	if s.recovery != nil {
		s.recovery.observer = fn
	}
}

// Retryable reports whether err is a transport-level failure that
// re-resolution or waiting may cure: the target process is gone
// (crashed, destroyed, or re-created under a new pid), its host is
// down, the network is partitioned or lossy to the point of retransmit
// exhaustion, or a server reported a bounded-time timeout for a dead
// forward target. Name-level failures (not found, bad arguments, no
// permission...) are terminal: retrying cannot change what a name
// means.
func Retryable(err error) bool {
	return errors.Is(err, kernel.ErrNonexistentProcess) ||
		errors.Is(err, kernel.ErrHostDown) ||
		errors.Is(err, netsim.ErrUnreachable) ||
		errors.Is(err, proto.ErrNonexistentProcess) ||
		errors.Is(err, proto.ErrTimeout)
}

// numbered names a retry-loop span "<what> <n>"; the number is formatted
// only if the tracer keeps the span, never on an untraced retry.
func numbered(what string, n int) trace.Name {
	return trace.Name{Head: what, Sep: " ", Render: decimal, Arg: uint32(n)}
}

func decimal(n uint32) string { return strconv.Itoa(int(n)) }

// withRecovery runs attempt under the session's policy and returns its
// reply. Each attempt is expected to redo its own routing (so a retry
// picks up fresh resolutions). name is the operation's CSname, used to
// invalidate per-name state between attempts; it may be empty for
// operations not tied to a name.
func (s *Session) withRecovery(name string, attempt func() (*proto.Message, error)) (*proto.Message, error) {
	tr := s.proc.Tracer()
	label := name
	if label == "" {
		label = "(direct)"
	}
	root := tr.Start(0, trace.KindClientOp, label, s.proc.Now(), s.proc.TraceID())
	r := s.recovery
	if r == nil {
		s.proc.SetCurrentSpan(root)
		reply, err := attempt()
		s.proc.SetCurrentSpan(0)
		tr.Fail(root, s.proc.Now(), failureClass(err))
		return reply, err
	}
	r.ops.Inc()
	a := tr.Start(root, trace.KindAttempt, "attempt 1", s.proc.Now(), s.proc.TraceID())
	s.proc.SetCurrentSpan(a)
	reply, err := attempt()
	s.proc.SetCurrentSpan(0)
	tr.Fail(a, s.proc.Now(), failureClass(err))
	if err == nil || !Retryable(err) {
		if err != nil {
			r.opFailures.Inc()
		}
		tr.Fail(root, s.proc.Now(), failureClass(err))
		return reply, err
	}
	delay := r.policy.BaseDelay
	for try := 1; try < r.policy.MaxAttempts; try++ {
		// Back off in virtual time. The observer (typically the chaos
		// engine) sees the new clock before the retry routes.
		r.retries.Inc()
		r.backoffNS.Add(uint64(delay))
		b := tr.StartName(root, trace.KindBackoff, numbered("backoff", try), s.proc.Now(), s.proc.TraceID())
		s.proc.ChargeCompute(delay)
		tr.End(b, s.proc.Now())
		if r.observer != nil {
			r.observer(s.proc.Now())
		}
		if delay *= 2; delay > r.policy.MaxDelay {
			delay = r.policy.MaxDelay
		}
		rb := tr.Start(root, trace.KindRebind, label, s.proc.Now(), s.proc.TraceID())
		s.proc.SetCurrentSpan(rb)
		s.rebind(name)
		s.proc.SetCurrentSpan(0)
		tr.End(rb, s.proc.Now())
		a := tr.StartName(root, trace.KindAttempt, numbered("attempt", try+1), s.proc.Now(), s.proc.TraceID())
		s.proc.SetCurrentSpan(a)
		reply, err = attempt()
		s.proc.SetCurrentSpan(0)
		tr.Fail(a, s.proc.Now(), failureClass(err))
		if err == nil {
			r.failovers.Inc()
			tr.End(root, s.proc.Now())
			return reply, nil
		}
		if !Retryable(err) {
			break
		}
	}
	r.opFailures.Inc()
	tr.Fail(root, s.proc.Now(), failureClass(err))
	return nil, err
}

// failureClass classifies an operation-level error for trace spans:
// transport failures get the kernel classification, anything else the
// protocol reply code the error maps to.
func failureClass(err error) string {
	if err == nil {
		return ""
	}
	if c := kernel.FailureClass(err); c != "error" {
		return c
	}
	return proto.ErrorReply(err).String()
}

// rebind drops whatever resolution state the failed attempt may have
// used, so the next attempt resolves afresh: a cached prefix
// resolution is invalidated, and a current context that has no prefix
// to fall back on is re-mapped from the name it was entered by.
func (s *Session) rebind(name string) {
	if prefix.HasPrefix(name) {
		// Prefixed names re-route through the prefix server on the next
		// attempt; its dynamic bindings re-resolve by GetPid per use. A
		// cached resolution the failed attempt may have used is dropped
		// first, so that attempt re-resolves.
		if s.uncache(name) {
			s.recovery.rebinds.Inc()
		}
		return
	}
	// A plain name is interpreted in the current context. If that
	// context's server died, re-map the context through the prefix
	// server (GetPid rebinding happens there) using the name it was
	// entered by. The cached pair for that name, if any, is most likely
	// the dead server itself, so it is dropped first.
	if s.currentName != "" && !s.proc.Kernel().ProcessAlive(s.current.Server) {
		s.uncache(s.currentName)
		if pair, err := s.mapContextDirect(s.currentName); err == nil {
			s.current = pair
			s.recovery.rebinds.Inc()
		}
	}
}

// mapContextDirect resolves a name to a context pair in one attempt,
// without recovery (used inside the recovery path itself). It sends the
// session's one request message, which the operation being retried
// rebuilds at its next attempt.
func (s *Session) mapContextDirect(name string) (core.ContextPair, error) {
	orig := proto.Message{Op: proto.OpMapContext, Segment: s.req.Segment[:0]}
	return mapped(s.sendOnce(name, &s.req, &orig, nil, nil, true))
}

// uncache drops the cached resolution of name's prefix, reporting
// whether there was one.
func (s *Session) uncache(name string) bool {
	if s.cache == nil {
		return false
	}
	pfx, _, err := cacheKey(name)
	return err == nil && s.cache.Drop(pfx)
}
