package experiments

import (
	"bytes"
	"testing"
)

// TestA15Availability gates the PR's headline claim: under the A14
// crash/restart schedule a replicated fs1 keeps client-observed
// availability at ~1.0 with zero failed operations, even though the
// fs1 host itself spends both outage windows down.
func TestA15Availability(t *testing.T) {
	doc, _, err := a15Collect()
	if err != nil {
		t.Fatal(err)
	}
	if doc.OpsFailed != 0 {
		t.Fatalf("OpsFailed = %d, want 0", doc.OpsFailed)
	}
	if doc.Availability < 0.99 {
		t.Fatalf("availability = %.4f, want >= 0.99", doc.Availability)
	}
	if doc.HostAvailability >= 0.99 {
		t.Fatalf("host availability = %.4f — chaos did not actually take the host down", doc.HostAvailability)
	}
	if len(doc.FailoversUS) == 0 {
		t.Fatalf("no failovers recorded; events:\n%v", doc.Events)
	}
	if doc.FailoverP99US < doc.FailoverP50US {
		t.Fatalf("p99 %d < p50 %d", doc.FailoverP99US, doc.FailoverP50US)
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
