// Resilience glue: the rig-level view of the recovery machinery — chaos
// engines composed over the topology, crashed-server re-creation, and the
// paced loop the availability experiments share. Recovery is counted in
// the metrics registry alone (client_*_total, prefix_rebinds_total).
package rig

import (
	"slices"
	"time"

	"repro/internal/chaos"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/fileserver"
	"repro/internal/proto"
	"repro/internal/vtime"
)

// NewChaos builds a chaos engine over this topology's kernel — the one
// way a topology gets one, and the one way fs1 is crashed and
// re-created. Redefine events run through an admin session on the
// prefix host (redefine). A restart re-creates what ran on fs1: the
// unreplicated server or a replicated member (restartFS1). The engine
// can restart a host kernel, but only the topology knows what ran on it;
// other hosts restart bare.
func (t *Topology) NewChaos(events []chaos.Event) *chaos.Engine {
	e := chaos.New(t.Kernel, events)
	e.RedefineHook = t.redefine
	e.RestartHook = t.restartFS1
	return e
}

// pace is the Paper kind's drive, the fault-paced closed loop the
// availability experiments share. Its one client, the first
// workstation's session, performs its Op Requests times, 10 ms of
// compute after each, flushing its name cache before every FlushEvery-th
// (a fresh program instance starts cold, so each outage catches a cached
// resolution stale). Everything that has no clock of its own is pumped
// from the session's — eng, then the metrics sampler (PROTOCOL.md
// §11.4) — before every operation, inside every retry backoff (a fault
// scheduled during a backoff fires while the client waits, exactly when
// a real deployment would see it), and once more at the horizon. The
// loop is runLane's, ungated: one client has no lane to run beside, so
// no fence replaces the per-op pump.
func (r *Rig) pace(eng *chaos.Engine) *WorkloadResult {
	c := *r.Clients[0]
	s, op := c.Session, c.Op
	pump := func(now vtime.Time) {
		eng.AdvanceTo(now)
		r.Sampler.AdvanceTo(now)
	}
	s.SetRetryObserver(pump)
	c.Op = func(s *client.Session, i int) error {
		if r.flushes(i) {
			s.FlushNameCache()
		}
		pump(s.Proc().Now())
		err := op(s, i)
		s.Proc().ChargeCompute(10 * time.Millisecond) // workload pacing
		return err
	}
	res := RunWorkload([]*WorkloadClient{&c})
	pump(s.Proc().Now())
	return res
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
func (r *Rig) MirrorBinOnFS2() error { return seedBin(r.FS2) }

// seedBin makes fs a server of the standard-programs context holding
// only /bin/hello: fs2's mirror, and what a re-created fs1 comes back
// with.
func seedBin(fs *fileserver.FileServer) error {
	if err := fs.SetWellKnown(core.CtxStdPrograms, "/bin"); err != nil {
		return err
	}
	return fs.WriteFile("/bin/hello", "system", []byte("hello image"))
}

// restartFS1 re-creates what ran on a restarted fs1 host, cold, with
// the scenario's file-server options and a new pid (the §4.2 rebinding
// scenario). A replicated member is re-seeded by the boot's sequence, so
// it holds the seed image again. The unreplicated server comes back with
// only /bin/hello (seedBin).
func (r *Rig) restartFS1(host string) error {
	i := slices.IndexFunc(r.FS1Members, func(fs *fileserver.FileServer) bool { return fs.Proc().Host().Name() == host })
	if i < 0 {
		return nil
	}
	fs, err := startStorage(r.Kernel.HostByName(host), r.sc.fsOpts(true)...)
	if err != nil {
		return err
	}
	if r.FS1Members[i] = fs; i == 0 {
		r.FS1 = fs
	}
	if r.fs1Seed == nil {
		return seedBin(fs)
	}
	_, err = r.seedFS1Volume(fs)
	return err
}
