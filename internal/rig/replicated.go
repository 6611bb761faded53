// Replicated topology (PROTOCOL.md §11): with Config.Replicas > 1 the
// fs1 file service is replicated read-only, so no single host owns its
// names. Every member is seeded identically at boot (onFS1Volumes).
// Member hosts fs1, fs1b, fs1c, … each run a member-local file server
// plus a replica front; the fronts register the storage service, so the
// kernel's lowest-live-host GetPid selection (§4.2) and the group's
// transfer-on-rejoin rule agree on the same steady-state leader (slot
// 0). Each workstation keeps its own plain prefix server: a user's table
// serves no one else. The group has no clock of its own: RunPaced pumps
// it — chaos engine first, then the group, then the sampler (§11.4) —
// and crash/restart instants reach it through the chaos hooks NewChaos
// installs (resilience.go).
package rig

import (
	"fmt"

	"repro/internal/fileserver"
	"repro/internal/kernel"
	"repro/internal/replica"
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
	rep, err := replica.Start(host, "fs-replica["+host.Name()+"]", svc)
	if err != nil {
		return nil, err
	}
	if err := rep.Proc().SetPid(kernel.ServiceStorage, rep.PID(), kernel.ScopeBoth); err != nil {
		return nil, err
	}
	return &FSMember{Name: host.Name(), Host: host, FS: fs, Svc: svc, Rep: rep}, nil
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
