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

func a18TestDoc(t *testing.T) *ZipfDoc {
	t.Helper()
	doc, _, err := a18Collect(a18TestScale)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestA18Shape(t *testing.T) {
	_, rows, err := a18Collect(a18TestScale)
	if err != nil {
		t.Fatal(err)
	}
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
	enc := func(doc *ZipfDoc) []byte {
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

	var doc ZipfDoc
	if err := json.Unmarshal(b1, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Index) != len(a18TestScale.pops) {
		t.Fatalf("index points = %d, want %d", len(doc.Index), len(a18TestScale.pops))
	}
	for _, pt := range doc.Index {
		if pt.RadixSteps <= 0 || pt.FlatCompares <= 0 {
			t.Fatalf("index point with non-positive cost: %+v", pt)
		}
		if pt.RadixSteps > pt.FlatCompares {
			t.Fatalf("radix costlier than the flat search it replaced: %+v", pt)
		}
		if pt.IndexBytes <= 0 {
			t.Fatalf("index point without footprint: %+v", pt)
		}
	}
	// Flat search cost must grow with the population; the radix descent
	// must not track it (that is the tentpole's claim).
	for i := 1; i < len(doc.Index); i++ {
		if doc.Index[i].FlatCompares <= doc.Index[i-1].FlatCompares {
			t.Fatalf("flat compares did not grow with the table: %+v", doc.Index)
		}
	}
	if len(doc.Sweep) != 2*len(a18TestScale.pops) {
		t.Fatalf("sweep points = %d, want %d", len(doc.Sweep), 2*len(a18TestScale.pops))
	}
	for _, run := range doc.Sweep {
		if run.Errors != 0 {
			t.Fatalf("n=%d tier=%v: %d errors", run.Population, run.CacheTier, run.Errors)
		}
		if run.Population <= a18EquivMax && (!run.EquivalenceChecked || !run.EqualToSequential) {
			t.Fatalf("n=%d tier=%v: equivalence not verified: %+v", run.Population, run.CacheTier, run)
		}
		if run.P50US <= 0 || run.P99US < run.P50US {
			t.Fatalf("n=%d tier=%v: bad percentiles p50=%d p99=%d", run.Population, run.CacheTier, run.P50US, run.P99US)
		}
		if run.ThroughputRPS <= 0 {
			t.Fatalf("n=%d tier=%v: no throughput", run.Population, run.CacheTier)
		}
		if run.ClientHitRate <= 0 || run.ClientHitRate > 1 {
			t.Fatalf("n=%d tier=%v: client hit rate %v", run.Population, run.CacheTier, run.ClientHitRate)
		}
		if run.TableBytes <= 0 || run.PrefixGrants == 0 {
			t.Fatalf("n=%d tier=%v: missing server-side readout: %+v", run.Population, run.CacheTier, run)
		}
		if !run.CacheTier && run.TierHits != 0 {
			t.Fatalf("n=%d: tierless run has tier hits: %+v", run.Population, run)
		}
	}
	// The table footprint must grow with the population.
	for i := 1; i < len(a18TestScale.pops); i++ {
		if doc.Sweep[i].TableBytes <= doc.Sweep[i-1].TableBytes {
			t.Fatalf("table bytes did not grow with the population: %+v", doc.Sweep)
		}
	}
	if len(doc.SkewSweep) != len(a18SkewSweep) {
		t.Fatalf("skew points = %d, want %d", len(doc.SkewSweep), len(a18SkewSweep))
	}
	// Heavier skew concentrates draws on fewer names, so the client
	// lease caches must hit more.
	for i := 1; i < len(doc.SkewSweep); i++ {
		if doc.SkewSweep[i].ClientHitRate <= doc.SkewSweep[i-1].ClientHitRate {
			t.Fatalf("hit rate did not rise with skew: %+v", doc.SkewSweep)
		}
	}
	tr := doc.Trace
	if !tr.TraceClean || tr.StaleWindows != 0 {
		t.Fatalf("trace leg not clean: %+v", tr)
	}
	if tr.Invalidations == 0 || len(tr.Schedule) == 0 {
		t.Fatalf("trace leg inert: %+v", tr)
	}
	if tr.Errors != 0 {
		t.Fatalf("trace leg: %d errors", tr.Errors)
	}
}
