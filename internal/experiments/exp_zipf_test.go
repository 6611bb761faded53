package experiments

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// The A18 gates run at a18TestScale: the same legs and assertions as
// the full document, minus the multi-second 10⁵–10⁶ boots — those are
// covered by golden-guard, which regenerates BENCH_zipf.json at full
// scale and compares it byte-for-byte against the committed file.

func a18TestDoc(t *testing.T) Result {
	t.Helper()
	doc, err := a18Collect(a18TestScale)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestA18Shape(t *testing.T) {
	res, err := a18Collect(a18TestScale)
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows
	want := len(a18TestScale.pops) + 2*len(a18TestScale.pops) + len(a18SkewSweep) + 1
	if len(rows) != want {
		t.Fatalf("rows = %d, want %d", len(rows), want)
	}
	for _, r := range rows[:len(a18TestScale.pops)] {
		if !strings.Contains(r.Note, "radix descent vs flat binary search") {
			t.Fatalf("index row lost its baseline: %+v", r)
		}
	}
	for _, r := range rows[len(a18TestScale.pops) : 3*len(a18TestScale.pops)] {
		if !strings.Contains(r.Note, "≡ sequential") && !strings.Contains(r.Note, "engine-only") {
			t.Fatalf("sweep row lost its driver marker: %+v", r)
		}
	}
	last := rows[len(rows)-1]
	if last.Measured != "0 stale windows" {
		t.Fatalf("trace row: %+v", last)
	}
}

func TestZipfJSONDeterministic(t *testing.T) {
	enc := func(doc Result) []byte {
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	b1 := enc(a18TestDoc(t))
	b2 := enc(a18TestDoc(t))
	if !bytes.Equal(b1, b2) {
		t.Fatal("zipf document not byte-deterministic across runs")
	}

	var doc Result
	if err := json.Unmarshal(b1, &doc); err != nil {
		t.Fatal(err)
	}
	pops := len(a18TestScale.pops)
	if want := pops + 2*pops + len(a18SkewSweep) + 1; len(doc.Legs) != want {
		t.Fatalf("legs = %d, want %d", len(doc.Legs), want)
	}
	index, sweep := doc.Legs[:pops], doc.Legs[pops:3*pops]
	skewSweep, tr := doc.Legs[3*pops:3*pops+len(a18SkewSweep)], doc.Legs[len(doc.Legs)-1]
	for _, pt := range index {
		radix, flat := pt.Reads["radix_steps"], pt.Reads["flat_compares"]
		if radix <= 0 || flat <= 0 {
			t.Fatalf("index point with non-positive cost: %+v", pt)
		}
		if radix > flat {
			t.Fatalf("radix costlier than the flat search it replaced: %+v", pt)
		}
		if pt.Reads["index_bytes"] <= 0 {
			t.Fatalf("index point without footprint: %+v", pt)
		}
	}
	// Flat search cost must grow with the population; the radix descent
	// must not track it (that is the tentpole's claim).
	for i := 1; i < len(index); i++ {
		if index[i].Reads["flat_compares"] <= index[i-1].Reads["flat_compares"] {
			t.Fatalf("flat compares did not grow with the table: %+v", index)
		}
	}
	for _, run := range sweep {
		sc, ev := run.Scenario, run.Evidence
		if sc.Population <= a18EquivMax && !sc.Sequential {
			t.Fatalf("%s: equivalence not verified: %+v", run.Label, ev)
		}
		if p50, p99 := run.ns("p50_ns"), run.ns("p99_ns"); p50 <= 0 || p99 < p50 {
			t.Fatalf("%s: bad percentiles p50=%v p99=%v", run.Label, p50, p99)
		}
		if run.openLoopThroughput() <= 0 {
			t.Fatalf("%s: no throughput", run.Label)
		}
		if hr := hitRate(ev.Client); hr <= 0 || hr > 1 {
			t.Fatalf("%s: client hit rate %v", run.Label, hr)
		}
		if run.Reads["table_bytes"] <= 0 || ev.Prefix.Grants == 0 {
			t.Fatalf("%s: missing server-side readout: %+v", run.Label, run)
		}
		if !sc.CacheTier && ev.Tier.Hits != 0 {
			t.Fatalf("%s: tierless run has tier hits: %+v", run.Label, ev.Tier)
		}
	}
	// The table footprint must grow with the population.
	for i := 1; i < pops; i++ {
		if sweep[i].Reads["table_bytes"] <= sweep[i-1].Reads["table_bytes"] {
			t.Fatalf("table bytes did not grow with the population: %+v", sweep)
		}
	}
	// Heavier skew concentrates draws on fewer names, so the client
	// lease caches must hit more.
	for i := 1; i < len(skewSweep); i++ {
		if hitRate(skewSweep[i].Evidence.Client) <= hitRate(skewSweep[i-1].Evidence.Client) {
			t.Fatalf("hit rate did not rise with skew: %s → %s", skewSweep[i-1].Label, skewSweep[i].Label)
		}
	}
	if ev := tr.Evidence; ev.StaleWindows != 0 || ev.Client.Invalidations == 0 || len(ev.ChaosLog) == 0 || ev.Errors != 0 {
		t.Fatalf("trace leg not clean or inert: %+v", ev)
	}
}
