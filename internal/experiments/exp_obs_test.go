package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestObsZeroCost extends the TestMetricsZeroCost contract to the
// flight recorder and the namestat sketch: they too must charge zero
// virtual time. Only observed scenarios boot them, and a Paper run is
// one, so the four Paper experiments checked here run with both. Each
// one's rendered section must still appear verbatim in the committed
// seed vbench_output.txt.
func TestObsZeroCost(t *testing.T) {
	seed, err := os.ReadFile("../../vbench_output.txt")
	if err != nil {
		t.Skipf("no seed output: %v", err)
	}
	for _, id := range []string{"e1", "e3", "t1", "a2"} {
		res := runExp(t, id)
		var buf bytes.Buffer
		Print(&buf, res)
		if !bytes.Contains(seed, buf.Bytes()) {
			t.Errorf("with the flight recorder and sketches installed, experiment %s no longer renders its seed section byte-identically:\n%s", id, buf.String())
		}
	}
}

// TestObsJSONDeterministic pins the BENCH_obs.json golden's contract:
// the document is byte-identical across runs. Runs under -race in make
// check, so it also exercises the recorder's and the sketches'
// concurrent update paths end to end.
func TestObsJSONDeterministic(t *testing.T) {
	first, err := DocJSON("a19")
	if err != nil {
		t.Fatal(err)
	}
	second, err := DocJSON("a19")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("obs document differs between runs:\nrun1 %d bytes\nrun2 %d bytes", len(first), len(second))
	}
}

// TestA19Shape sanity-checks the document against the acceptance
// criteria: sketch recall at its guarantee, exact EWMA convergence,
// sampled-vs-full decomposition agreement with O(k) retention, a clean
// flight journal, and an auto-tuned point dominating at least one fixed
// lease from the A17 sweep.
func TestA19Shape(t *testing.T) {
	data, err := DocJSON("a19")
	if err != nil {
		t.Fatal(err)
	}
	var doc Result
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	topk, rates, echo, s := doc.Legs[0], doc.Legs[1], doc.Legs[2], doc.Legs[3]

	if rd := topk.Reads; rd["recalled"] != rd["guaranteed"] || rd["guaranteed"] == 0 {
		t.Errorf("topk recall %v/%v guaranteed", rd["recalled"], rd["guaranteed"])
	}
	if want := int64(1000 / rates.ns("cadence_ns").Seconds()); int64(rates.Reads["rate_mhz"]) != want {
		t.Errorf("EWMA did not converge exactly: got %v mHz want %d mHz", rates.Reads["rate_mhz"], want)
	}
	if echo.ns("total_ns") != echo.ns("request_hop_ns")+echo.ns("dwell_ns")+echo.ns("reply_hop_ns") {
		t.Errorf("echo decomposition does not add up: %v", echo.Reads)
	}

	// Per-lane head counters each retain a ceiling share, plus tail
	// anomalies — so not exactly seen/HeadEvery, but far below full.
	if kept, seen := s.Reads["roots_retained"], s.Reads["roots_seen"]; kept == 0 || kept*8 > seen {
		t.Errorf("head sampling retained %v of %v roots at 1/%d", kept, seen, s.Scenario.TraceSample.HeadEvery)
	}
	if s.Reads["flight_dropped"] != 0 {
		t.Errorf("flight journal dropped %v events", s.Reads["flight_dropped"])
	}
	if s.Reads["flight_resolutions"] == 0 || s.Reads["flight_redefines"] == 0 {
		t.Errorf("flight journal missing event classes: %v", s.Reads)
	}

	tune := doc.Legs[4:]
	if want := len(a17LeaseSweep) + len(a19TuneFloors); len(tune) != want {
		t.Fatalf("auto-tune runs = %d, want %d", len(tune), want)
	}
	for _, run := range tune {
		sc, ev := run.Scenario, run.Evidence
		// Chaos redefinitions and the partition make some requests fail;
		// they must stay a small minority of the workload.
		if total := run.requests(); ev.Errors*10 > total {
			t.Errorf("%s: %d of %d requests errored", run.Label, ev.Errors, total)
		}
		if ev.WidestStale > ev.Bound {
			t.Errorf("%s: widest stale window %v exceeds bound %v", run.Label, ev.WidestStale, ev.Bound)
		}
		if sc.AutoTuneMax > 0 {
			if got := run.ns("tuned_shard0_ns"); got != sc.Lease {
				t.Errorf("churned shard0 lease settled at %v, want floor %v", got, sc.Lease)
			}
			if got := run.ns("tuned_shard1_ns"); got != sc.AutoTuneMax {
				t.Errorf("quiet shard1 lease settled at %v, want cap %v", got, sc.AutoTuneMax)
			}
		}
	}
	fixed := tune[:len(a17LeaseSweep)]
	if beats := frontierBeats(tune[len(fixed):], fixed); beats < 1 {
		t.Errorf("frontier beats = %d, want >= 1 (auto-tune must dominate a fixed lease)", beats)
	}
}

// TestPopulationTraceSmall runs the `vbench -zipf -trace` sampled
// export end to end at a small population: the retained trace must be
// valid JSON, pass the invariant checker (asserted inside
// PopulationTrace), and hold O(k) roots — the same acceptance contract
// the 10⁶-name run is pinned to, at test-suite scale.
func TestPopulationTraceSmall(t *testing.T) {
	data, leg, err := PopulationTrace(1000)
	if err != nil {
		t.Fatal(err)
	}
	kept, seen := leg.Reads["roots_retained"], leg.Reads["roots_seen"]
	if leg.Evidence.Completed == 0 || seen == 0 {
		t.Fatalf("empty population run: %+v", leg)
	}
	if kept == 0 || kept*8 > seen {
		t.Errorf("retained %v of %v roots at 1/%d — not O(k)", kept, seen, leg.Scenario.TraceSample.HeadEvery)
	}
	if leg.Evidence.Spans == 0 {
		t.Error("no spans retained")
	}
	var doc struct {
		Version int               `json:"version"`
		Spans   []json.RawMessage `json:"spans"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace export is not a JSON document: %v", err)
	}
	if len(doc.Spans) != leg.Evidence.Spans {
		t.Errorf("export holds %d spans, summary says %d", len(doc.Spans), leg.Evidence.Spans)
	}
}

// TestA19Render checks the experiment's table carries the headline rows.
func TestA19Render(t *testing.T) {
	res := runExp(t, "a19")
	var buf bytes.Buffer
	Print(&buf, res)
	out := buf.String()
	for _, want := range []string{"guaranteed names recalled", "identical", "flight journal", "auto-tuned", "frontier"} {
		if !strings.Contains(out, want) {
			t.Errorf("a19 output missing %q:\n%s", want, out)
		}
	}
}
