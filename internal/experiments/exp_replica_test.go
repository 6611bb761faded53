package experiments

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/rig"
)

// TestA15Availability gates A15's claim: under the A14 crash/restart
// schedule a replicated fs1 keeps client-observed availability at ~1.0
// with zero failed operations, even though the fs1 host itself spends
// both outage windows down, and no operation waits longer than one
// dead-host detection plus one re-resolution.
func TestA15Availability(t *testing.T) {
	res, err := a15Collect()
	if err != nil {
		t.Fatal(err)
	}
	leg := res.Legs[0]
	if failed := leg.Scenario.Requests - int(leg.Reads["completed"]); failed != 0 {
		t.Fatalf("%d operations failed, want 0", failed)
	}
	if avail := 1 - float64(leg.ns("downtime_ns"))/float64(leg.Series.Health.HorizonUS*1000); avail < 0.99 {
		t.Fatalf("availability = %.4f, want >= 0.99", avail)
	}
	fs1, err := fs1Health(leg.Series.Health)
	if err != nil {
		t.Fatal(err)
	}
	if fs1.Availability >= 0.99 {
		t.Fatalf("host availability = %.4f — chaos did not actually take the host down", fs1.Availability)
	}
	failovers := 0
	for name := range leg.Reads {
		if strings.HasPrefix(name, "failover") {
			failovers++
			if leg.ns(name) <= 0 {
				t.Fatalf("%s = %v", name, leg.ns(name))
			}
		}
	}
	if failovers == 0 {
		t.Fatal("no failovers recorded")
	}

	// A send to a dead host costs its client stub and three
	// retransmission timeouts; a re-resolution costs what the first
	// operation of a fresh rig does, whose name cache is empty.
	r, err := rig.New(*leg.Scenario)
	if err != nil {
		t.Fatal(err)
	}
	s := r.WS[0].Session
	s.EnableNameCache(true)
	start := s.Proc().Now()
	if err := rig.OpenClose("[bin]hello")(s, 0); err != nil {
		t.Fatal(err)
	}
	model := r.Kernel.Model()
	detection, resolution := model.ClientStubCost+3*model.RetransmitTimeout, s.Proc().Now()-start
	if slowest := leg.ns("slowest_op_ns"); slowest > detection+resolution {
		t.Fatalf("slowest op %v, want at most one detection (%v) plus one re-resolution (%v)",
			slowest, detection, resolution)
	}
}

// TestReplicaJSONDeterministic pins the bench-replica golden: two full
// runs of the replicated chaos leg must render byte-identical JSON.
func TestReplicaJSONDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("two full chaos legs")
	}
	d1, err := DocJSON("a15")
	if err != nil {
		t.Fatal(err)
	}
	d2, err := DocJSON("a15")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(d1, d2) {
		t.Fatalf("BENCH_replica.json differs between runs:\n%s\n---\n%s", d1, d2)
	}
}
