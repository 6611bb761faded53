package experiments

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestA17Shape(t *testing.T) {
	res := runExp(t, "a17")
	want := 2*len(a17LeaseSweep) + 2 // sweep points + crash leg + partition leg
	if len(res.Rows) != want {
		t.Fatalf("rows = %d, want %d", len(res.Rows), want)
	}
	for _, r := range res.Rows[:2*len(a17LeaseSweep)] {
		if !strings.Contains(r.Note, "≡ sequential") {
			t.Fatalf("sweep row lost its equivalence check: %+v", r)
		}
	}
	crash := res.Rows[len(res.Rows)-2]
	if crash.Measured != "0 stale windows" {
		t.Fatalf("crash leg row: %+v", crash)
	}
	part := res.Rows[len(res.Rows)-1]
	if !strings.Contains(part.Measured, "stale window") || !strings.Contains(part.Note, "≤") {
		t.Fatalf("partition leg row lost its bound: %+v", part)
	}
}

func TestCacheJSONDeterministic(t *testing.T) {
	b1, err := DocJSON("a17")
	if err != nil {
		t.Fatal(err)
	}
	b2, err := DocJSON("a17")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("BENCH_cache.json not byte-deterministic across runs")
	}
	var doc CacheDoc
	if err := json.Unmarshal(b1, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Sweep) != 2*len(a17LeaseSweep) {
		t.Fatalf("sweep points = %d, want %d", len(doc.Sweep), 2*len(a17LeaseSweep))
	}
	for _, run := range doc.Sweep {
		if !run.EqualToSequential {
			t.Fatalf("lease=%dus tier=%v: not equal to sequential", run.LeaseUS, run.CacheTier)
		}
		if run.Errors != 0 {
			t.Fatalf("lease=%dus tier=%v: %d errors", run.LeaseUS, run.CacheTier, run.Errors)
		}
		if run.ClientHitRate <= 0 || run.ClientHitRate > 1 {
			t.Fatalf("lease=%dus tier=%v: client hit rate %v", run.LeaseUS, run.CacheTier, run.ClientHitRate)
		}
		if run.CacheTier && (run.TierHits == 0 || run.TierHitRate <= 0) {
			t.Fatalf("lease=%dus: tier never hit: %+v", run.LeaseUS, run)
		}
		if !run.CacheTier && run.TierHits != 0 {
			t.Fatalf("lease=%dus: tierless run has tier hits: %+v", run.LeaseUS, run)
		}
		if run.PrefixGrants == 0 {
			t.Fatalf("lease=%dus tier=%v: no upstream grants", run.LeaseUS, run.CacheTier)
		}
	}
	// Longer leases must not lower the client hit rate, and the tier must
	// strictly amortize upstream grants at equal lease length.
	for i := 1; i < len(a17LeaseSweep); i++ {
		if doc.Sweep[i].ClientHitRate < doc.Sweep[i-1].ClientHitRate {
			t.Fatalf("hit rate fell as the lease grew: %+v", doc.Sweep[:i+1])
		}
	}
	for i, lease := range a17LeaseSweep {
		flat, tiered := doc.Sweep[i], doc.Sweep[i+len(a17LeaseSweep)]
		if tiered.PrefixGrants >= flat.PrefixGrants {
			t.Fatalf("lease=%v: tier did not amortize grants (%d vs %d)", lease, tiered.PrefixGrants, flat.PrefixGrants)
		}
	}
	if len(doc.Chaos) != 2 {
		t.Fatalf("chaos legs = %d, want 2", len(doc.Chaos))
	}
	crash, part := doc.Chaos[0], doc.Chaos[1]
	if crash.Kind != "crash" || part.Kind != "partition" {
		t.Fatalf("leg kinds: %q, %q", crash.Kind, part.Kind)
	}
	for _, leg := range doc.Chaos {
		if !leg.TraceClean {
			t.Fatalf("%s leg: trace not clean", leg.Kind)
		}
		if !leg.BoundHeld {
			t.Fatalf("%s leg: staleness bound violated", leg.Kind)
		}
		if len(leg.Schedule) == 0 {
			t.Fatalf("%s leg: no chaos events fired", leg.Kind)
		}
	}
	if crash.StaleWindows != 0 || crash.Errors == 0 || crash.Invalidations == 0 {
		t.Fatalf("crash leg: %+v", crash)
	}
	if part.StaleWindows == 0 || part.WidestStaleUS <= 0 {
		t.Fatalf("partition leg: %+v", part)
	}
}
