package fileserver_test

import (
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/rig"
)

// TestVolumeSnapshotCorrupt: the replicated fs1's image oracle
// (rig.CheckFS1) is not vacuous. Every member of a booted replicated rig
// holds the seed image; a member whose volume changes behind the
// read-only check is named; a dead member is not compared, and its
// restart re-seeds it to the seed image.
func TestVolumeSnapshotCorrupt(t *testing.T) {
	r, err := rig.New(rig.Config{Users: []string{"mann"}, Seed: 1, ReadAhead: true, Replicas: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.CheckFS1(); err != nil {
		t.Fatalf("freshly seeded members: %v", err)
	}
	// Boot-time seeding writes a volume directly, past WithReadOnly.
	if err := r.FS1Members[2].WriteFile("/users/mann/diverged.txt", "mann", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := r.CheckFS1(); err == nil || !strings.Contains(err.Error(), "fs1c") {
		t.Fatalf("CheckFS1 = %v, want fs1c named", err)
	}
	fire := func(a chaos.Action) {
		eng := r.NewChaos([]chaos.Event{{At: 0, Action: a, Host: "fs1c"}})
		eng.AdvanceTo(0)
	}
	fire(chaos.Crash)
	if err := r.CheckFS1(); err != nil {
		t.Fatalf("a dead member was compared: %v", err)
	}
	fire(chaos.Restart)
	if err := r.CheckFS1(); err != nil {
		t.Fatalf("the re-created member: %v", err)
	}
}
