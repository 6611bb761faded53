// Replicated topology (PROTOCOL.md §11): with Config.Replicas > 1 the
// fs1 file service and every workstation's prefix table are replicated
// read-only, so no single host owns a name. Every member is seeded
// identically at boot (onFS1Volumes, prefixServers). Member hosts
// fs1, fs1b, fs1c, … each run a member-local file server plus a replica
// front; the fronts register the storage service, so the kernel's
// lowest-live-host GetPid selection (§4.2) and the group's
// transfer-on-rejoin rule agree on the same steady-state leader (slot
// 0). Prefix members live on the workstation itself plus the services
// and fs2 machines. The groups have no clocks of their own: RunPaced
// pumps them — chaos engine first, then PumpGroups, then the sampler
// (§11.4) — and crash/restart instants reach them through the chaos
// hooks NewChaos wires up.
package rig

import (
	"fmt"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/fileserver"
	"repro/internal/kernel"
	"repro/internal/prefix"
	"repro/internal/replica"
	"repro/internal/vtime"
)

// FSMember is one slot of the replicated fs1 service: the member host,
// the member-local file server behind the front, and the replica front
// clients address.
type FSMember struct {
	Name string
	Host *kernel.Host
	FS   *fileserver.FileServer
	Svc  *fileserver.ReplicaService
	Rep  *replica.Replica
}

// ReplicatedFS is the replicated fs1 service.
type ReplicatedFS struct {
	Group   *replica.Group
	Members []*FSMember // slot order: fs1, fs1b, fs1c, …
}

// Member returns the member on the named host, or nil.
func (rf *ReplicatedFS) Member(host string) *FSMember {
	for _, m := range rf.Members {
		if m.Name == host {
			return m
		}
	}
	return nil
}

// PrefixMember is one slot of a replicated prefix group.
type PrefixMember struct {
	Name string
	Host *kernel.Host
	Srv  *prefix.Server
	Rep  *replica.Replica
}

// ReplicatedPrefix is one workstation's replicated prefix table.
type ReplicatedPrefix struct {
	Group   *replica.Group
	Members []*PrefixMember // slot order: workstation, services, fs2
}

// Member returns the member on the named host, or nil.
func (rp *ReplicatedPrefix) Member(host string) *PrefixMember {
	for _, m := range rp.Members {
		if m.Name == host {
			return m
		}
	}
	return nil
}

// fsMemberHost names slot i's host: fs1, fs1b, fs1c, …
func fsMemberHost(i int) string {
	if i == 0 {
		return "fs1"
	}
	return fmt.Sprintf("fs1%c", 'a'+i)
}

// bootFSGroup forms the replication group over the booted, seeded fs1
// members, slot 0 leading. The group monitor lives on fs2 — a host the
// fault schedules never take down.
func (r *Rig) bootFSGroup() error {
	g, err := replica.NewGroup(r.FS2Host, replica.Config{Name: "fs1", Seed: r.sc.Seed})
	if err != nil {
		return err
	}
	for _, m := range r.FSR.Members {
		if err := g.Add(m.Name, m.Rep); err != nil {
			return err
		}
	}
	if err := g.Bootstrap(0); err != nil {
		return err
	}
	r.FSR.Group = g
	return nil
}

// startFSMember boots one member: the local file server plus the
// replica front, which registers as the storage service.
func (r *Rig) startFSMember(host *kernel.Host) (*FSMember, error) {
	fs, err := fileserver.Start(host, host.Name(), r.sc.fsOpts()...)
	if err != nil {
		return nil, err
	}
	svc := fileserver.NewReplicaService(fs)
	rep, err := replica.Start(host, "fs-replica["+host.Name()+"]",
		func(p *kernel.Process) replica.Service { return svc })
	if err != nil {
		return nil, err
	}
	if err := rep.Proc().SetPid(kernel.ServiceStorage, rep.PID(), kernel.ScopeBoth); err != nil {
		return nil, err
	}
	return &FSMember{Name: host.Name(), Host: host, FS: fs, Svc: svc, Rep: rep}, nil
}

// bootReplicatedPrefix builds the workstation's replicated prefix group:
// slot 0 on the workstation itself (the member its session addresses),
// the standbys on the services and fs2 machines. Prefix replication is
// capped at those three hosts.
func (r *Rig) bootReplicatedPrefix(ws *Workstation) error {
	hosts := []*kernel.Host{ws.Host, r.ServicesHost, r.FS2Host}
	n := min(r.sc.Replicas, len(hosts))
	pr := &ReplicatedPrefix{}
	for i := 0; i < n; i++ {
		m, err := startPrefixMember(hosts[i], ws.User, i == 0)
		if err != nil {
			return err
		}
		pr.Members = append(pr.Members, m)
	}
	g, err := replica.NewGroup(r.ServicesHost, replica.Config{Name: "prefix-" + ws.User, Seed: r.sc.Seed})
	if err != nil {
		return err
	}
	for _, m := range pr.Members {
		if err := g.Add(m.Name, m.Rep); err != nil {
			return err
		}
	}
	if err := g.Bootstrap(0); err != nil {
		return err
	}
	pr.Group = g
	ws.PrefixRep = pr
	ws.Prefix = pr.Members[0].Srv
	return nil
}

// startPrefixMember boots one prefix member: the replica front process
// is the serving process (prefix.New, not Start — the front calls the
// member-local table directly). Only the workstation's own member
// registers the local context-prefix service.
func startPrefixMember(host *kernel.Host, user string, local bool) (*PrefixMember, error) {
	var srv *prefix.Server
	rep, err := replica.Start(host, "prefix-replica["+user+"]",
		func(p *kernel.Process) replica.Service {
			srv = prefix.New(p, user)
			return prefix.NewReplicaService(srv)
		})
	if err != nil {
		return nil, err
	}
	if local {
		if err := rep.Proc().SetPid(kernel.ServiceContextPrefix, rep.PID(), kernel.ScopeLocal); err != nil {
			return nil, err
		}
	}
	return &PrefixMember{Name: host.Name(), Host: host, Srv: srv, Rep: rep}, nil
}

// prefixServers lists the prefix tables to boot-seed: every replica
// member, or just the single server.
func (ws *Workstation) prefixServers() []*prefix.Server {
	if ws.PrefixRep == nil {
		return []*prefix.Server{ws.Prefix}
	}
	out := make([]*prefix.Server, len(ws.PrefixRep.Members))
	for i, m := range ws.PrefixRep.Members {
		out[i] = m.Srv
	}
	return out
}

// fs1PID returns the pid clients should address for the fs1 service:
// the current leader front when replicated (slot 0 at boot and in
// steady state), the single server otherwise.
func (r *Rig) fs1PID() kernel.PID {
	if r.FSR != nil {
		if _, pid := r.FSR.Group.Leader(); pid != kernel.NilPID {
			return pid
		}
		return r.FSR.Members[0].Rep.PID()
	}
	return r.FS1.PID()
}

// fs1RootPair is RootPair for the fs1 service, naming the front when
// replicated.
func (r *Rig) fs1RootPair() core.ContextPair {
	pair := r.FS1.RootPair()
	if r.FSR != nil {
		pair.Server = r.fs1PID()
	}
	return pair
}

// PumpGroups drives every replication group's election timer from a
// workload clock. Pump order is fixed — the fs group, then each
// workstation's prefix group in creation order — and RunPaced pumps the
// chaos engine before and the sampler after (§11.4).
func (r *Rig) PumpGroups(now vtime.Time) {
	if r.FSR != nil {
		r.FSR.Group.Pump(now)
	}
	for _, ws := range r.WS {
		if ws.PrefixRep != nil {
			ws.PrefixRep.Group.Pump(now)
		}
	}
}

// wireReplicaHooks connects a chaos engine to the replication groups:
// crashes turn into NoteDown at their exact virtual instant (the dying
// servers' exits were recorded inside the Crash), and restarts re-create
// the member and rejoin it — snapshot-sync plus the transfer election
// that restores slot order.
func (r *Rig) wireReplicaHooks(e *chaos.Engine) {
	e.CrashHook = func(host string, at vtime.Time) {
		// NoteDown ignores a host that holds no slot of its group.
		r.FSR.Group.NoteDown(host, at)
		for _, ws := range r.WS {
			if ws.PrefixRep != nil {
				ws.PrefixRep.Group.NoteDown(host, at)
			}
		}
	}
	e.RestartedHook = func(host string, at vtime.Time) error {
		if m := r.FSR.Member(host); m != nil {
			if err := r.recreateFSMember(m); err != nil {
				return err
			}
			if err := r.FSR.Group.Rejoin(host, m.Rep, at); err != nil {
				return err
			}
		}
		for _, ws := range r.WS {
			if ws.PrefixRep == nil {
				continue
			}
			if m := ws.PrefixRep.Member(host); m != nil {
				if err := r.recreatePrefixMember(ws, m); err != nil {
					return err
				}
				if err := ws.PrefixRep.Group.Rejoin(host, m.Rep, at); err != nil {
					return err
				}
			}
		}
		return nil
	}
}

// recreateFSMember replaces a crashed member in place: a cold local
// file server (its volume arrives with the rejoin snapshot-sync) and a
// fresh front registered as the storage service.
func (r *Rig) recreateFSMember(m *FSMember) error {
	nm, err := r.startFSMember(m.Host)
	if err != nil {
		return err
	}
	m.FS, m.Svc, m.Rep = nm.FS, nm.Svc, nm.Rep
	if m == r.FSR.Members[0] {
		r.FS1 = m.FS
	}
	return nil
}

// recreatePrefixMember replaces a crashed prefix member in place; its
// table arrives with the rejoin snapshot-sync.
func (r *Rig) recreatePrefixMember(ws *Workstation, m *PrefixMember) error {
	nm, err := startPrefixMember(m.Host, ws.User, m == ws.PrefixRep.Members[0])
	if err != nil {
		return err
	}
	m.Srv, m.Rep = nm.Srv, nm.Rep
	if m == ws.PrefixRep.Members[0] {
		ws.Prefix = m.Srv
	}
	return nil
}
