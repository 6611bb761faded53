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
	var doc Result
	if err := json.Unmarshal(b1, &doc); err != nil {
		t.Fatal(err)
	}
	n := len(a17LeaseSweep)
	if len(doc.Legs) != 2*n+2 {
		t.Fatalf("legs = %d, want %d sweep points and 2 fault legs", len(doc.Legs), 2*n)
	}
	sweep := doc.Legs[:2*n]
	for _, run := range sweep {
		sc, ev := run.Scenario, run.Evidence
		if !sc.Sequential {
			t.Fatalf("%s: not held to the sequential reference", run.Label)
		}
		if hr := hitRate(ev.Client); hr <= 0 || hr > 1 {
			t.Fatalf("%s: client hit rate %v", run.Label, hr)
		}
		if sc.CacheTier && ev.Tier.Hits == 0 {
			t.Fatalf("%s: tier never hit: %+v", run.Label, ev.Tier)
		}
		if !sc.CacheTier && ev.Tier.Hits != 0 {
			t.Fatalf("%s: tierless run has tier hits: %+v", run.Label, ev.Tier)
		}
		if ev.Prefix.Grants == 0 {
			t.Fatalf("%s: no upstream grants", run.Label)
		}
	}
	// Longer leases must not lower the client hit rate, and the tier must
	// strictly amortize upstream grants at equal lease length.
	for i := 1; i < n; i++ {
		if hitRate(sweep[i].Evidence.Client) < hitRate(sweep[i-1].Evidence.Client) {
			t.Fatalf("hit rate fell as the lease grew: %s → %s", sweep[i-1].Label, sweep[i].Label)
		}
	}
	for i, lease := range a17LeaseSweep {
		flat, tiered := sweep[i].Evidence.Prefix.Grants, sweep[i+n].Evidence.Prefix.Grants
		if tiered >= flat {
			t.Fatalf("lease=%v: tier did not amortize grants (%d vs %d)", lease, tiered, flat)
		}
	}
	crash, part := doc.Legs[2*n], doc.Legs[2*n+1]
	for _, leg := range []Leg{crash, part} {
		if leg.Evidence.WidestStale > leg.Evidence.Bound {
			t.Fatalf("%s: staleness bound violated", leg.Label)
		}
		if len(leg.Evidence.ChaosLog) == 0 {
			t.Fatalf("%s: no chaos events fired", leg.Label)
		}
	}
	if ev := crash.Evidence; ev.StaleWindows != 0 || ev.Errors == 0 || ev.Client.Invalidations == 0 {
		t.Fatalf("crash leg: %+v", ev)
	}
	if ev := part.Evidence; ev.StaleWindows == 0 || ev.WidestStale <= 0 {
		t.Fatalf("partition leg: %+v", ev)
	}
}
