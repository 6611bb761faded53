// Package engine is the conservative parallel-discrete-event
// synchronization layer for the sharded workload drivers (PROTOCOL.md
// §12).
//
// The virtual-time substrate has no literal event queue: execution-order
// authority lives in the workload drivers' pick-minimum-clock loops, and
// each driver lane (one per shard) already knows the exact virtual start
// time of its own next operation. That makes the classic null-message
// protocol degenerate in our favor: a lane's *promise* is simply the key
// of the operation it is about to run, which — because the pick-min loop
// makes in-lane keys non-decreasing — is an exact lower bound on all of
// the lane's future activity, not a lookahead-padded estimate.
//
// Operations are split into two classes:
//
//   - Shared operations touch execution-order-sensitive substrate state:
//     the netsim shared-wire ledger, the loss RNG, or a server process
//     another lane also talks to. Sequential runs mutate that state in
//     operation-start order, so Shared operations commit in global key
//     order: a lane may run one only when every peer has promised a
//     strictly later key. This serializes the shared suffix of the
//     workload exactly as the sequential driver would, which is what
//     makes sharded results deeply equal to sequential ones.
//
//   - Confined operations touch only lane-local state (co-resident
//     client/server traffic that never crosses the wire) plus
//     order-independent atomics (metrics counters, traffic stats). They
//     commute with everything outside their lane and run ahead freely,
//     bounded only by global fences. Their soundness rests on the wire
//     lookahead bound: with a positive minimum cross-host delay, any
//     operation that could affect another lane must pay the wire and is
//     classified Shared; if the cost model ever yielded a non-positive
//     lookahead the confined/shared partition would be meaningless, so
//     NewSync demotes every Confined gate to Shared in that case.
//
// Fences generalize the chaos → groups → sampler pump ordering
// (PROTOCOL.md §11.4) to concurrent engines: a fence at virtual time Tf
// fires exactly once, at a globally quiescent cut — every operation with
// key before Tf has completed and no operation with key at or after Tf
// has started — so crash/partition events and sampler ticks observe a
// deterministic state no matter how the Go scheduler interleaved the
// lanes.
package engine

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/vtime"
)

// Key orders operations globally: virtual start time first, then the
// client's position in the workload's client slice. Keys are unique
// across lanes (no two clients share a Seq), so ties never fall to
// goroutine arrival order — the same lowest-index tie-break the
// sequential driver uses decides them.
type Key struct {
	// T is the operation's virtual start time (the issuing client's
	// clock before think time is charged — the same instant the
	// sequential driver's pick-min loop compares).
	T vtime.Time
	// Seq is the issuing client's index in the workload client slice.
	Seq int
}

// Less is the strict global order on keys.
func (k Key) Less(o Key) bool {
	if k.T != o.T {
		return k.T < o.T
	}
	return k.Seq < o.Seq
}

// Class classifies one operation for the conservative protocol. The
// zero value is Shared — unclassified operations get the safe,
// fully-serialized treatment on any topology.
type Class int

const (
	// Shared operations commit in global key order.
	Shared Class = iota
	// Confined operations touch only lane-local substrate state and run
	// ahead without waiting for peers (fences still apply).
	Confined
)

// String names the class for logs and documents.
func (c Class) String() string {
	if c == Confined {
		return "confined"
	}
	return "shared"
}

// Fences supplies the global fence schedule. Next returns the earliest
// fence time strictly after `after` (ok=false when none remain); Fire
// executes the fence — pumping the virtual-time observers, the chaos
// engine first — at the quiescent cut. Fire runs with the
// Sync lock held and must not call back into the Sync.
type Fences struct {
	Next func(after vtime.Time) (vtime.Time, bool)
	Fire func(at vtime.Time)
}

// Sync coordinates the lanes of one workload run. Each lane gates every
// operation through Gate and announces completion with Done.
type Sync struct {
	lookahead time.Duration
	fences    Fences

	mu      sync.Mutex
	cond    *sync.Cond
	promise []Key
	done    []bool
	// nextFence is the pending fence time when fencePending; fences fire
	// in Next order, each exactly once, always at a quiescent cut.
	nextFence    vtime.Time
	fencePending bool
	fired        int
}

// NewSync builds the coordinator for n lanes. lookahead is the
// substrate's minimum cross-lane delay (netsim.Network.Lookahead); a
// non-positive bound voids the confined-class soundness argument, so
// every Confined gate is then demoted to Shared.
func NewSync(n int, lookahead time.Duration, fences Fences) *Sync {
	s := &Sync{lookahead: lookahead, fences: fences,
		promise: make([]Key, n), done: make([]bool, n)}
	s.cond = sync.NewCond(&s.mu)
	for i := range s.promise {
		// Below every real key (real Seq >= 0): a lane that has not gated
		// yet blocks every Shared peer, which is exactly the conservative
		// stance.
		s.promise[i] = Key{T: 0, Seq: -1}
	}
	if fences.Next != nil {
		if at, ok := fences.Next(-1); ok {
			s.nextFence, s.fencePending = at, true
		}
	}
	return s
}

// FencesFired reports how many fences have fired.
func (s *Sync) FencesFired() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fired
}

// Gate publishes lane id's next operation key as its promise and blocks
// until the operation may run: past every fence at or before the key's
// time, and — for Shared operations — until every unfinished peer has
// promised a strictly later key (so every earlier-keyed operation,
// anywhere, has completed, and no later-keyed Shared operation can have
// started). Keys must be non-decreasing per lane; the pick-min driver
// loop guarantees this, and Gate panics if a caller breaks it, because a
// regressing promise would silently void the conservative guarantee.
//
// Gate returns the total number of fences fired when it unblocks.
// Callers that classified the operation Confined from mutable substrate
// state (a cached route, a lease) compare it against FencesFired taken
// before classifying: a fence that fired in between may have invalidated
// the classification's evidence (a chaos redefinition revoking a lease
// turns a proven-local hit into a shared-wire revalidation), so the
// caller must re-prove the class and re-Gate as Shared if the proof no
// longer holds. Re-gating with the same key is legal — promises are
// non-decreasing, not strictly increasing.
func (s *Sync) Gate(id int, k Key, cls Class) int {
	if s.lookahead <= 0 {
		cls = Shared
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if k.Less(s.promise[id]) {
		panic(fmt.Sprintf("engine: lane %d promise regressed from %+v to %+v", id, s.promise[id], k))
	}
	s.promise[id] = k
	s.cond.Broadcast()
	for {
		s.fireDueFencesLocked()
		if s.fencePending && s.nextFence <= k.T {
			// A fence is pending at or before this op's start: wait for
			// the laggards to reach it so it fires at the quiescent cut.
			s.cond.Wait()
			continue
		}
		if cls == Shared && !s.clearLocked(id, k) {
			s.cond.Wait()
			continue
		}
		return s.fired
	}
}

// Done retires lane id: its promise becomes +infinity for peers'
// clearance checks. Fences that the retirement makes due fire here (or
// in a woken peer's Gate loop); fences beyond the last running lane's
// horizon never fire — the run ends like a sequential workload whose
// clock stopped short of the schedule tail (callers that want the tail
// call the chaos engine's Finish, as sequential workloads do).
func (s *Sync) Done(id int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.done[id] = true
	s.fireDueFencesLocked()
	s.cond.Broadcast()
}

// clearLocked reports whether every unfinished peer of lane id has
// promised strictly past k.
func (s *Sync) clearLocked(id int, k Key) bool {
	for j := range s.promise {
		if j == id || s.done[j] {
			continue
		}
		if !k.Less(s.promise[j]) {
			return false
		}
	}
	return true
}

// fireDueFencesLocked fires every pending fence all unfinished lanes
// have promised past. The firing condition (min promise time >= fence
// time) can only hold while no operation is executing: a running
// operation's key is its lane's current promise, and it was gated past
// every fence at or before its own start — so Fire always observes the
// quiescent cut the determinism argument needs.
func (s *Sync) fireDueFencesLocked() {
	for s.fencePending {
		min, live := s.minPromiseLocked()
		if !live || min.T < s.nextFence {
			return
		}
		at := s.nextFence
		s.fencePending = false
		s.fired++
		if s.fences.Fire != nil {
			s.fences.Fire(at)
		}
		if s.fences.Next != nil {
			if nxt, ok := s.fences.Next(at); ok && nxt > at {
				s.nextFence, s.fencePending = nxt, true
			}
		}
		s.cond.Broadcast()
	}
}

// minPromiseLocked returns the minimum promise over unfinished lanes.
func (s *Sync) minPromiseLocked() (Key, bool) {
	var min Key
	live := false
	for j := range s.promise {
		if s.done[j] {
			continue
		}
		if !live || s.promise[j].Less(min) {
			min, live = s.promise[j], true
		}
	}
	return min, live
}
