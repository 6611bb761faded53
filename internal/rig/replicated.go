// Replicated topology (PROTOCOL.md §11): with Config.Replicas > 1 the
// fs1 file service is replicated read-only, so no single host owns its
// names. Every member is seeded identically at boot (bootFileServers).
// Member hosts fs1, fs1b, fs1c, … each run a member-local file server
// plus a replica front; the fronts register the storage service, so the
// kernel's lowest-live-host GetPid selection (§4.2) and the group's
// transfer-on-rejoin rule agree on the same steady-state leader (slot
// 0). The group, Topology.FS1Group, is the one record of the members.
// Each workstation keeps its own plain prefix server: a user's table
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

// fsMemberHost names slot i's host: fs1, fs1b, fs1c, …
func fsMemberHost(i int) string {
	if i == 0 {
		return "fs1"
	}
	return fmt.Sprintf("fs1%c", 'a'+i)
}

// startFSMember boots one member, at boot and when a restart re-creates
// it: the member-local file server plus the replica front, which
// registers as the storage service. A re-created member starts cold; its
// volume arrives with the rejoin's snapshot sync.
func (r *Rig) startFSMember(host *kernel.Host) (*fileserver.FileServer, *replica.Replica, error) {
	fs, err := fileserver.Start(host, host.Name(), r.sc.fsOpts()...)
	if err != nil {
		return nil, nil, err
	}
	rep, err := replica.Start(host, "fs-replica["+host.Name()+"]", fileserver.NewReplicaService(fs))
	if err != nil {
		return nil, nil, err
	}
	return fs, rep, rep.Proc().SetPid(kernel.ServiceStorage, rep.PID(), kernel.ScopeBoth)
}
