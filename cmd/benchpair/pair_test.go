package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// base is a fixture of ten runs: sorted 100..109, shuffled so that pairing
// is by index, not by rank. Its median is 104.5 and its exclusive-method
// quartiles are 101.75 and 107.25, so its interquartile range is 5.5.
var base = []float64{103, 108, 100, 105, 109, 101, 107, 102, 106, 104}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedianAndIQR(t *testing.T) {
	if m := median(base); !near(m, 104.5) {
		t.Fatalf("median = %v, want 104.5", m)
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("odd median = %v, want 2", m)
	}
	if q := iqr(base); !near(q, 5.5) {
		t.Fatalf("iqr = %v, want 5.5", q)
	}
	// Python: statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75].
	if q := iqr([]float64{4, 1, 3, 2}); !near(q, 2.5) {
		t.Fatalf("iqr of 1..4 = %v, want 2.5", q)
	}
	if median(nil) != 0 || iqr([]float64{7}) != 0 {
		t.Fatal("empty median or single-value iqr not 0")
	}
	if len(base) != 10 || base[0] != 103 {
		t.Fatal("median or iqr reordered its input")
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricSpec{Name: "host_ns_per_op", Better: "lower", Bound: 0.15}
	shift := func(d float64, except ...int) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v + d
		}
		for _, i := range except {
			out[i] = base[i] + 1
		}
		return out
	}
	for _, tc := range []struct {
		name    string
		m       metricSpec
		head    []float64
		h       health
		won     int
		verdict string
	}{
		// Every pair 7 lower: 10 of 10, and 7 > the base's 5.5 IQR.
		{"gain", lower, shift(-7), health{}, 10, verdictGain},
		// Nine of ten pairs still makes a gain.
		{"gain, one pair lost", lower, shift(-7, 3), health{}, 9, verdictGain},
		// Eight of ten does not.
		{"two pairs lost", lower, shift(-7, 3, 5), health{}, 8, verdictWithin},
		// Every pair lower, but by less than the base's IQR.
		{"inside the IQR", lower, shift(-4), health{}, 10, verdictWithin},
		// 20% worse against a 15% bound.
		{"regression", lower, shift(20.9), health{}, 0, verdictRegression},
		// Higher is better: the same runs are a gain for throughput.
		{"higher is better", metricSpec{Better: "higher", Bound: 0.02}, shift(7), health{}, 10, verdictGain},
		// Equal pairs, as every sim_* metric of a host-only change, are
		// within the bound however the seeds spread them.
		{"unchanged", metricSpec{Better: "lower", Bound: 0.015}, shift(0), health{}, 0, verdictWithin},
		// A bound the base's own spread (5.5 / 104.5) exceeds.
		{"unresolved", metricSpec{Better: "lower", Bound: 0.03}, shift(1), health{}, 0, verdictUnresolved},
		// The gain's pairs, but the head failed more operations than the
		// base: no gain. Failing no more than the base does not block one.
		{"head failed more", lower, shift(-7), health{Failed: [2]int{1, 2}}, 10, verdictWithin},
		{"head failed no more", lower, shift(-7), health{Failed: [2]int{2, 1}}, 10, verdictGain},
		// A run on either side that answered wrongly.
		{"base incorrect", lower, shift(-7), health{Incorrect: [2]int{1, 0}}, 10, verdictWithin},
		{"head incorrect", lower, shift(-7), health{Incorrect: [2]int{0, 1}}, 10, verdictWithin},
		// A seed whose two runs simulated different traffic.
		{"simulation differs", lower, shift(-7), health{SimDiffer: []uint64{4}}, 10, verdictWithin},
	} {
		c := compare(tc.m, base, tc.head, tc.h)
		if c.PairsWon != tc.won || c.Pairs != 10 || c.Verdict != tc.verdict {
			t.Errorf("%s: won %d of %d, %q; want %d of 10, %q", tc.name, c.PairsWon, c.Pairs, c.Verdict, tc.won, tc.verdict)
		}
		if !near(c.Base, 104.5) || !near(c.BaseIQR, 5.5) || !near(c.Change, c.Head/c.Base-1) {
			t.Errorf("%s: base median %v, iqr %v, change %v", tc.name, c.Base, c.BaseIQR, c.Change)
		}
	}
}

// TestFewPairsMakeNoGain: four pairs all won by far are still no gain — a
// gain rests on nine of ten pairs, not on a share of fewer.
func TestFewPairsMakeNoGain(t *testing.T) {
	c := compare(metricSpec{Better: "lower", Bound: 0.15}, []float64{100, 101, 102, 103}, []float64{50, 51, 52, 53}, health{})
	if c.PairsWon != 4 || c.Verdict != verdictWithin {
		t.Fatalf("won %d of %d, %q; want 4 of 4, %q", c.PairsWon, c.Pairs, c.Verdict, verdictWithin)
	}
	if why := (health{}).noGain(4); why == "" {
		t.Fatal("noGain(4) is empty")
	}
}

// fixture is a run: correct unless it failed, with one host and one
// sim metric.
func fixture(failed int, digest string, host, sim float64) result {
	r := result{Correct: failed == 0, Failed: failed, Digest: digest}
	r.Metrics = map[string]struct {
		Value float64 `json:"value"`
	}{"host_ns_per_op": {host}, "sim_mean_us": {sim}}
	return r
}

func TestCheckRuns(t *testing.T) {
	seeds := []uint64{7, 8, 9}
	base := []result{fixture(0, "a", 100, 10), fixture(0, "b", 100, 20), fixture(1, "c", 100, 30)}
	// Host time may differ between the two runs of a seed; the digest and
	// every sim_* value may not.
	head := []result{fixture(0, "a", 90, 10), fixture(0, "x", 90, 20), fixture(2, "c", 90, 31)}
	h := check(seeds, [2][]result{base, head})
	if h.Failed != [2]int{1, 2} || h.Incorrect != [2]int{1, 1} {
		t.Fatalf("failed %v, incorrect %v; want [1 2], [1 1]", h.Failed, h.Incorrect)
	}
	if len(h.SimDiffer) != 2 || h.SimDiffer[0] != 8 || h.SimDiffer[1] != 9 {
		t.Fatalf("sim differs on %v, want [8 9]", h.SimDiffer)
	}
	if h := check(seeds, [2][]result{base, base}); h.SimDiffer != nil || h.Failed != [2]int{1, 1} {
		t.Fatalf("a side against itself: %+v", h)
	}
}

// TestAppendLedgerKeepsRows: each workload's row is appended on its own
// as its pairs finish, so two appends to an existing ledger must keep
// every row, the existing one byte for byte, and leave valid JSON.
func TestAppendLedgerKeepsRows(t *testing.T) {
	path := filepath.Join(t.TempDir(), "LEDGER.json")
	existing := `{"workload": "paper_fileio", "extra": [1, 2]}`
	if err := os.WriteFile(path, []byte("[\n  "+existing+"\n]\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"resolve_hit", "resolve_miss"} {
		if err := appendLedger(path, row{Workload: w, Seeds: []uint64{7}, health: health{Failed: [2]int{0, 1}}}); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var raw []json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatalf("ledger after two appends is not valid JSON: %v\n%s", err, data)
	}
	if len(raw) != 3 || string(raw[0]) != existing {
		t.Fatalf("ledger holds %d rows, first %s; want 3, the existing one unchanged", len(raw), raw[0])
	}
	for i, w := range []string{"resolve_hit", "resolve_miss"} {
		var r row
		if err := json.Unmarshal(raw[i+1], &r); err != nil || r.Workload != w || r.Failed[1] != 1 || len(r.Seeds) != 1 {
			t.Fatalf("row %d = %+v, %v; want %s as appended", i+1, r, err, w)
		}
	}
}
