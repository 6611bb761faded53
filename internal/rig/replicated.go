// Replicated topology (PROTOCOL.md §11): with Config.Replicas > 1 the
// fs1 file service is replicated the way the paper replicates a service
// (§4.2): member hosts fs1, fs1b, fs1c, … each run a plain file server,
// read-only and seeded by the same sequence, and every member registers
// the storage service. GetPid answers with the lowest live member, and a
// client whose send fails re-resolves its name by GetPid. Nothing elects
// or syncs: members agree because none accepts a change, and a restart
// re-creates its member cold and re-seeds it (restartFS1). Each
// workstation keeps its own plain prefix server: a user's table serves
// no one else.
package rig

import (
	"bytes"
	"fmt"
)

// fsMemberHost names member i's host: fs1, fs1b, fs1c, …
func fsMemberHost(i int) string {
	if i == 0 {
		return "fs1"
	}
	return fmt.Sprintf("fs1%c", 'a'+i)
}

// CheckFS1 is the fs1 service's safety oracle, read from the kernel:
// every file server live on a member host (fs1, fs1b, …) is the member
// FS1Members lists, and on a replicated fs1 its volume image equals the
// seed image. It names the first host that breaks either.
func (t *Topology) CheckFS1() error {
	for _, fs := range t.FS1Members {
		for _, p := range fs.Proc().Host().Processes() {
			switch {
			case p.Name() != fs.Proc().Name():
			case p != fs.Proc():
				return fmt.Errorf("rig: fs1 member host %s runs a file server that is not its member", p.Host().Name())
			case t.fs1Seed != nil && !bytes.Equal(fs.Image(), t.fs1Seed):
				return fmt.Errorf("rig: fs1 member on %s diverged from the seed image", p.Host().Name())
			}
		}
	}
	return nil
}
