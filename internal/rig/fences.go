// Fence wiring for the conservative engine (PROTOCOL.md §12): the
// sequential driver's per-operation pumping of the chaos engine (§11.4),
// generalized to global fences fired at the engine's quiescent cuts.
package rig

import (
	"repro/internal/chaos"
	"repro/internal/engine"
	"repro/internal/flight"
	"repro/internal/vtime"
)

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

// ChaosFences is the fence source of a chaos schedule: a fence at every
// pending event's time, each firing the events due by then. eng may be
// nil (no faults, no fences).
func ChaosFences(eng *chaos.Engine) engine.Fences {
	if eng == nil {
		return engine.Fences{}
	}
	return engine.Fences{
		Next: func(after vtime.Time) (vtime.Time, bool) {
			t, pending := eng.NextEventAt()
			return t, pending && t > after
		},
		Fire: eng.AdvanceTo,
	}
}
