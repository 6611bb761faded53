// Resilience glue: the rig-level view of the recovery machinery — chaos
// engines composed over the topology, crashed-server re-creation, and
// aggregated resilience metrics across sessions and prefix servers.
package rig

import (
	"time"

	"repro/internal/chaos"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/prefix"
	"repro/internal/proto"
	"repro/internal/vtime"
)

// NewChaos builds a chaos engine over this topology's kernel — the one
// way a topology gets one. Redefine events run through an admin session
// on the prefix host (redefine). A restart of the unreplicated fs1 host
// re-creates its file server; the engine can restart a host kernel, but
// only the topology knows what ran on it, and other hosts restart bare.
// On a replicated rig the hooks instead feed fs1's replication group:
// crashes become NoteDown, restarts re-create the member and rejoin it
// (replicated.go).
func (t *Topology) NewChaos(events []chaos.Event) *chaos.Engine {
	e := chaos.New(t.Kernel, events)
	e.RedefineHook = t.redefine
	if t.FSR != nil {
		t.wireReplicaHooks(e)
		return e
	}
	e.RestartHook = func(host string) error {
		if host == "fs1" {
			return t.restartFS1()
		}
		return nil
	}
	return e
}

// RunPaced drives a Paper scenario's fault-paced closed loop, the one the
// availability experiments share, and returns how many operations
// succeeded, with the chaos engine that fired the scenario's Faults. The
// first workstation's session performs op Requests times, 10 ms of
// compute after each, flushing its name cache before every FlushEvery-th
// (a fresh program instance starts cold, so each outage catches a cached
// resolution stale). Everything that has no clock of its own is pumped
// from the session's — the chaos engine, then the fs1 replication group,
// then the metrics sampler (PROTOCOL.md §11.4) — before every operation,
// inside every retry backoff (a fault scheduled during a backoff fires
// while the client waits, exactly when a real deployment would see it),
// and once more at the horizon.
func (r *Rig) RunPaced(op func(s *client.Session, i int) error) (ok int, eng *chaos.Engine) {
	s := r.WS[0].Session
	eng = r.NewChaos(r.sc.Faults)
	pump := func(now vtime.Time) {
		eng.AdvanceTo(now)
		if r.FSR != nil {
			r.FSR.Group.Pump(now)
		}
		r.Sampler.AdvanceTo(now)
	}
	s.SetRetryObserver(pump)
	for i := 0; i < r.sc.Requests; i++ {
		if r.flushes(i) {
			s.FlushNameCache()
		}
		pump(s.Proc().Now())
		if op(s, i) == nil {
			ok++
		}
		s.Proc().ChargeCompute(10 * time.Millisecond) // workload pacing
	}
	pump(s.Proc().Now())
	return ok, eng
}

// OpenClose is the operation most paced loads run: open name for reading
// and release it.
func OpenClose(name string) func(*client.Session, int) error {
	return func(s *client.Session, _ int) error {
		f, err := s.Open(name, proto.ModeRead)
		if err != nil {
			return err
		}
		return f.Close()
	}
}

// MirrorBinOnFS2 makes fs2 a second server of the standard-programs
// context, holding /bin/hello, so a dynamic [bin] binding has somewhere
// to fail over to during an fs1 outage.
func (r *Rig) MirrorBinOnFS2() error {
	if err := r.FS2.SetWellKnown(core.CtxStdPrograms, "/bin"); err != nil {
		return err
	}
	return r.FS2.WriteFile("/bin/hello", "system", []byte("hello image"))
}

// restartFS1 re-creates the unreplicated fs1 on its restarted host: a
// cold server with the scenario's file-server options, a new pid (the
// §4.2 rebinding scenario), and only /bin/hello re-seeded.
func (r *Rig) restartFS1() error {
	fs, err := startStorage(r.FS1Host, r.sc.fsOpts()...)
	if err != nil {
		return err
	}
	if err := fs.SetWellKnown(core.CtxStdPrograms, "/bin"); err != nil {
		return err
	}
	if err := fs.WriteFile("/bin/hello", "system", programImage("hello", 2048)); err != nil {
		return err
	}
	r.FS1 = fs
	return nil
}

// ResilienceSummary aggregates the recovery record of a run: every
// session's client-side retry counters plus every workstation prefix
// server's forwarding and rebinding counters.
type ResilienceSummary struct {
	Client client.ResilienceStats
	Prefix prefix.Stats
}

// ResilienceSummary sums resilience metrics across every session the
// topology created and every workstation prefix server.
func (t *Topology) ResilienceSummary() ResilienceSummary {
	var sum ResilienceSummary
	for _, s := range t.Sessions() {
		st := s.ResilienceStats()
		sum.Client.Ops += st.Ops
		sum.Client.OpsFailed += st.OpsFailed
		sum.Client.Retries += st.Retries
		sum.Client.Rebinds += st.Rebinds
		sum.Client.Failovers += st.Failovers
		sum.Client.Downtime += st.Downtime
	}
	for _, ws := range t.WS {
		ps := ws.Prefix.Stats()
		sum.Prefix.Forwards += ps.Forwards
		sum.Prefix.Rebinds += ps.Rebinds
		sum.Prefix.DeadTargets += ps.DeadTargets
	}
	return sum
}
