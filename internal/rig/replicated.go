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

// CheckFS1 is the replicated fs1's safety oracle: every live member's
// volume image equals the seed image. It names the first member that
// differs; an unreplicated fs1 has no members to compare.
func (t *Topology) CheckFS1() error {
	for _, fs := range t.FS1Members {
		if fs.Proc().Err() == nil && !bytes.Equal(fs.Image(), t.fs1Seed) {
			return fmt.Errorf("rig: fs1 member on %s diverged from the seed image", fs.Proc().Host().Name())
		}
	}
	return nil
}
