// Resilience glue: the rig-level view of the recovery machinery — chaos
// engines composed over the topology, crashed-server re-creation, and
// aggregated resilience metrics across sessions and prefix servers.
package rig

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/chaos"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/prefix"
	"repro/internal/proto"
	"repro/internal/vtime"
)

// NewChaos builds a chaos engine over this rig's kernel. Its restart
// hook re-creates the fs1 file server whenever a scripted Restart brings
// the fs1 host back — the engine can restart a host kernel, but only the
// rig knows what ran on it. Schedules targeting other hosts restart bare
// kernels unless the caller replaces the hook. On a replicated rig the
// hooks instead feed the replication groups: crashes become NoteDown,
// restarts re-create the member and rejoin it (replicated.go).
func (r *Rig) NewChaos(events []chaos.Event) *chaos.Engine {
	e := chaos.New(r.Kernel, events)
	if r.FSR != nil {
		r.wireReplicaHooks(e)
		return e
	}
	e.RestartHook = func(host string) error {
		if host == "fs1" {
			return r.RecreateServer(host, ServerFile)
		}
		return nil
	}
	return e
}

// PacedLoad is the fault-paced closed loop the availability experiments
// share: the first workstation's session performs Ops operations, 10 ms
// of compute after each, while a fault schedule plays out.
type PacedLoad struct {
	// Ops is the number of operations; Op performs operation i.
	Ops int
	Op  func(s *client.Session, i int) error
	// FlushEvery, when positive, flushes the session's name cache before
	// every FlushEvery-th operation — a fresh program instance starts
	// with an empty cache — so each outage catches a cached resolution
	// stale.
	FlushEvery int
	// Events is the fault schedule; nil runs fault-free.
	Events []chaos.Event
}

// RunPaced drives l and returns how many operations succeeded, with the
// chaos engine that fired the schedule. Everything that has no clock of
// its own is pumped from the session's — the chaos engine, then the
// replication groups, then the metrics sampler (PROTOCOL.md §11.4) —
// before every operation, inside every retry backoff (a fault scheduled
// during a backoff fires while the client waits, exactly when a real
// deployment would see it), and once more at the horizon.
func (r *Rig) RunPaced(l PacedLoad) (ok int, eng *chaos.Engine) {
	s := r.WS[0].Session
	eng = r.NewChaos(l.Events)
	pump := func(now vtime.Time) {
		eng.AdvanceTo(now)
		r.PumpGroups(now)
		r.Sampler.AdvanceTo(now)
	}
	s.SetRetryObserver(pump)
	for i := 0; i < l.Ops; i++ {
		if l.FlushEvery > 0 && i > 0 && i%l.FlushEvery == 0 {
			s.FlushNameCache()
		}
		pump(s.Proc().Now())
		if l.Op(s, i) == nil {
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

// ServerKind names what RecreateServer rebuilds on a restarted host.
type ServerKind string

const (
	// ServerFile is a file server: fs1/fs2, or a replicated fs1 member.
	ServerFile ServerKind = "fileserver"
	// ServerPrefix is a prefix server: a workstation's own, or a
	// replicated prefix-group member.
	ServerPrefix ServerKind = "prefix"
)

// RecreateServer starts a replacement server of the given kind on the
// (restarted) host and re-registers its services. Unreplicated
// replacements are cold servers: a new pid (the §4.2 rebinding
// scenario) and minimally re-seeded state — fs1 keeps only /bin/hello,
// fs2 only the archive paper, a workstation prefix server its old
// table. Replicated members come back empty and receive their state
// from the group's rejoin snapshot-sync instead.
func (r *Rig) RecreateServer(host string, kind ServerKind) error {
	switch kind {
	case ServerFile:
		if r.FSR != nil {
			if m := r.FSR.Member(host); m != nil {
				return r.recreateFSMember(m)
			}
		}
		switch host {
		case "fs1":
			fs, err := startStorage(r.FS1Host)
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
		case "fs2":
			fs, err := startStorage(r.FS2Host)
			if err != nil {
				return err
			}
			if _, err := seedFS2Volume(fs); err != nil {
				return err
			}
			r.FS2 = fs
			return nil
		}
		return fmt.Errorf("rig: no file server to recreate on host %q", host)
	case ServerPrefix:
		for _, ws := range r.WS {
			if ws.PrefixRep != nil {
				if m := ws.PrefixRep.Member(host); m != nil {
					return r.recreatePrefixMember(ws, m)
				}
				continue
			}
			if ws.Host.Name() != host {
				continue
			}
			old := ws.Prefix.Bindings()
			srv, err := prefix.Start(ws.Host, ws.User)
			if err != nil {
				return err
			}
			names := make([]string, 0, len(old))
			for name := range old {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				b := old[name]
				if b.Dynamic {
					err = srv.DefineDynamic(name, b.Service, b.WellKnown)
				} else {
					err = srv.Define(name, b.Pair)
				}
				if err != nil {
					return err
				}
			}
			ws.Prefix = srv
			return nil
		}
		return fmt.Errorf("rig: no prefix server to recreate on host %q", host)
	}
	return fmt.Errorf("rig: unknown server kind %q", kind)
}

// ResilienceSummary aggregates the recovery record of a run: every
// session's client-side retry counters plus every workstation prefix
// server's forwarding and rebinding counters.
type ResilienceSummary struct {
	Client client.ResilienceStats
	Prefix prefix.Stats
}

// ResilienceSummary sums resilience metrics across all sessions the rig
// created and all workstation prefix servers.
func (r *Rig) ResilienceSummary() ResilienceSummary {
	var sum ResilienceSummary
	r.sessMu.Lock()
	sessions := append([]*client.Session(nil), r.sessions...)
	r.sessMu.Unlock()
	for _, s := range sessions {
		st := s.ResilienceStats()
		sum.Client.Ops += st.Ops
		sum.Client.OpsFailed += st.OpsFailed
		sum.Client.Retries += st.Retries
		sum.Client.Rebinds += st.Rebinds
		sum.Client.Failovers += st.Failovers
		sum.Client.Downtime += st.Downtime
	}
	for _, ws := range r.WS {
		ps := ws.Prefix.Stats()
		sum.Prefix.Forwards += ps.Forwards
		sum.Prefix.Rebinds += ps.Rebinds
		sum.Prefix.DeadTargets += ps.DeadTargets
	}
	return sum
}
