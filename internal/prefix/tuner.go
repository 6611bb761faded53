// Per-prefix lease-length auto-tuning (PROTOCOL.md §15).
//
// The fixed lease length of PROTOCOL.md §13 trades hit rate against
// staleness globally; the tuner makes the trade per name, driven by the
// redefinition estimator the hot-name sketch keeps for each name it holds
// (a name it does not hold reads 0):
//
//   - Multiplicative increase: each positive grant of a name whose
//     observed redefinition rate is below redefLowHz doubles the name's
//     next lease, up to the configured cap. Stable names converge on
//     the cap in log₂(max/min) grants.
//
//   - Sharp decrease: an observed redefinition resets the name's lease
//     to the floor immediately. And because the redefinition-rate EWMA
//     does not decay between events, a name that churned recently keeps
//     a high estimate and is not re-grown until enough quiet grants
//     have diluted it.
//
// The staleness argument (trace invariant #7): a granted lease never
// exceeds the cap, so every stale window is still bounded by
// invalidation-commit + cap — exactly the §13 bound with max in place
// of the fixed length. The tuner changes how often the worst case is
// risked, not the worst case itself.
package prefix

import (
	"sync"
	"time"

	"repro/internal/namestat"
)

// redefLowHz is the redefinition-rate threshold below which a name's
// lease is allowed to grow: under one redefinition per virtual second.
const redefLowHz = 1.0

// WithLeaseAutoTune enables lease granting with per-name auto-tuned
// lengths in [min, max]. Negative leases and brand-new names start at
// min; see the package comment for the control rule. Implies WithNameStats,
// and WithLease: min is the fixed fallback where the tuner does not reach.
func WithLeaseAutoTune(min, max time.Duration) Option {
	return func(s *Server) {
		WithNameStats()(s)
		if max < min {
			max = min
		}
		s.leaseLen = min
		s.tuner = &autoTuner{
			min: min,
			max: max,
			cur: make(map[string]time.Duration),
		}
	}
}

// autoTuner holds the per-name lease lengths. Mutations happen on the
// serving process — ordered by the engine's shared-commit order — so
// tuned lengths are deterministic for a deterministic schedule.
type autoTuner struct {
	mu  sync.Mutex
	min time.Duration
	max time.Duration
	cur map[string]time.Duration
}

// leaseFor returns the lease to grant for name now, and grows the
// name's next lease when its observed redefinition rate is low.
func (t *autoTuner) leaseFor(name string, names *namestat.TopK) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	cur, ok := t.cur[name]
	if !ok {
		cur = t.min
	}
	if names.RedefRateHz(name) < redefLowHz {
		next := 2 * cur
		if next > t.max {
			next = t.max
		}
		t.cur[name] = next
	}
	return cur
}

// observeRedefinition is the sharp decrease: the name's lease drops to
// the floor the moment a redefinition commits.
func (t *autoTuner) observeRedefinition(name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.cur[name] = t.min
	t.mu.Unlock()
}

// TunedLease returns the lease length the next positive grant of name
// would use (the configured fixed length when auto-tuning is off).
func (s *Server) TunedLease(name string) time.Duration {
	if s.tuner == nil {
		return s.leaseLen
	}
	s.tuner.mu.Lock()
	defer s.tuner.mu.Unlock()
	if cur, ok := s.tuner.cur[name]; ok {
		return cur
	}
	return s.tuner.min
}
