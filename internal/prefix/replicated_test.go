package prefix_test

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/proto"
	"repro/internal/rig"
)

// TestReplicatedPrefixTable: replication is the file service's alone
// (PROTOCOL.md §11). With fs1 replicated, the user's prefix server is the
// plain one on the workstation, so it accepts a bracket-less add and
// delete (§5.7), and a name added for one of fs1's members resolves
// through it.
func TestReplicatedPrefixTable(t *testing.T) {
	r, err := rig.Scenario{Kind: rig.Paper, Users: []string{"mann"}, Seed: 1, ReadAhead: true, Replicas: 3}.Boot()
	if err != nil {
		t.Fatal(err)
	}
	s := r.WS[0].Session
	root := r.FS1.RootPair()
	if err := s.AddName("scratch", root); err != nil {
		t.Fatalf("add [scratch]: %v", err)
	}
	if b, ok := r.WS[0].Prefix.Bindings()["scratch"]; !ok || b.Pair != root {
		t.Fatalf("table binds scratch to %+v (%v), want %v", b.Pair, ok, root)
	}
	data, err := s.ReadFile("[scratch]users/mann/welcome.txt")
	if err != nil {
		t.Fatalf("read through [scratch]: %v", err)
	}
	if !bytes.Contains(data, []byte("mann")) {
		t.Fatalf("welcome.txt = %q", data)
	}
	if err := s.DeleteName("scratch"); err != nil {
		t.Fatalf("delete [scratch]: %v", err)
	}
	if _, err := s.ReadFile("[scratch]users/mann/welcome.txt"); !errors.Is(err, proto.ErrNotFound) {
		t.Fatalf("read after the delete = %v, want ErrNotFound", err)
	}
	// The file service behind it is still read-only.
	if err := s.Remove("[storage]users/mann/welcome.txt"); !errors.Is(err, proto.ErrNoPermission) {
		t.Fatalf("Remove = %v, want ErrNoPermission", err)
	}
}
