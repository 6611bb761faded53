// Fence wiring for the conservative engine (PROTOCOL.md §12): the
// chaos → groups → sampler pump order of §11.4, generalized from
// per-operation sequential pumping to global fences fired at the
// engine's quiescent cuts.
package rig

import (
	"repro/internal/chaos"
	"repro/internal/engine"
	"repro/internal/flight"
	"repro/internal/metrics"
	"repro/internal/vtime"
)

// EngineFences builds the standard fence schedule for RunWorkloadEngine
// on this rig: fence times are the merged chaos-event times and sampler
// tick boundaries, and each firing pumps the chaos engine first, then
// every replication group, then the sampler — the fixed observer order
// that keeps runs deterministic, now anchored at globally quiescent
// virtual times instead of at whichever lane's operation happened to
// pump past them. eng may be nil (sampler ticks only).
func (r *Rig) EngineFences(eng *chaos.Engine) engine.Fences {
	return SealFlightAtFences(MergeFences(eng, r.Sampler, r.PumpGroups), r.Flight)
}

// SealFlightAtFences wraps a fence source so every firing also seals the
// flight recorder's ring at the fence time (PROTOCOL.md §15): the cut is
// globally quiescent, so the batch of events between two seals is a
// deterministic set, and the seal sorts it canonically — the journal
// read after a fence is byte-stable across runs regardless of goroutine
// interleaving within the window. rec may be nil (fences unchanged).
func SealFlightAtFences(f engine.Fences, rec *flight.Recorder) engine.Fences {
	if rec == nil {
		return f
	}
	inner := f.Fire
	f.Fire = func(at vtime.Time) {
		if inner != nil {
			inner(at)
		}
		rec.Seal(at)
	}
	return f
}

// MergeFences merges a chaos schedule and a sampler into one fence
// source, firing chaos events, then the groups hook (when non-nil), then
// the sampler, at every fence time. Any argument may be nil.
func MergeFences(eng *chaos.Engine, sampler *metrics.Sampler, groups func(vtime.Time)) engine.Fences {
	next := func(after vtime.Time) (vtime.Time, bool) {
		var at vtime.Time
		ok := false
		if eng != nil {
			if t, pending := eng.NextEventAt(); pending && t > after {
				at, ok = t, true
			}
		}
		if sampler != nil {
			if t := sampler.NextAt(); t > after && (!ok || t < at) {
				at, ok = t, true
			}
		}
		return at, ok
	}
	fire := func(at vtime.Time) {
		if eng != nil {
			eng.AdvanceTo(at)
		}
		if groups != nil {
			groups(at)
		}
		if sampler != nil {
			sampler.AdvanceTo(at)
		}
	}
	return engine.Fences{Next: next, Fire: fire}
}
