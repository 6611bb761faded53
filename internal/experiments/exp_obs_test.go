package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestObsZeroCost pins this tentpole's central promise, extending the
// TestMetricsZeroCost contract: the flight recorder and the namestat
// sketches are now installed on every rig boot, and they too must charge
// zero virtual time. Each checked experiment's rendered section must
// still appear verbatim in the committed seed vbench_output.txt.
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
	var doc ObsDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}

	if doc.TopK.Recalled != doc.TopK.Guaranteed || doc.TopK.Guaranteed == 0 {
		t.Errorf("topk recall %d/%d guaranteed", doc.TopK.Recalled, doc.TopK.Guaranteed)
	}
	if !doc.TopK.WithinBound {
		t.Error("topk estimates escaped [true, true+err]")
	}
	if !doc.Rates.Exact {
		t.Errorf("EWMA did not converge exactly: got %d mHz want %d mHz", doc.Rates.GotMilliHz, doc.Rates.WantMilliHz)
	}

	s := doc.Sampling
	if !s.Agrees {
		t.Errorf("sampled decomposition disagrees with full: %+v vs %+v", s.Sampled, s.Full)
	}
	if !s.TraceClean {
		t.Error("sampled zipf trace failed invariant check")
	}
	// Per-lane head counters each retain a ceiling share, plus tail
	// anomalies — so not exactly seen/HeadEvery, but far below full.
	if s.RootsRetained == 0 || s.RootsRetained*8 > s.RootsSeen {
		t.Errorf("head sampling retained %d of %d roots at 1/%d", s.RootsRetained, s.RootsSeen, s.HeadEvery)
	}
	if s.FlightDropped != 0 {
		t.Errorf("flight journal dropped %d events", s.FlightDropped)
	}
	if s.FlightResolutions == 0 || s.FlightRedefines == 0 {
		t.Errorf("flight journal missing event classes: %d resolutions, %d redefines", s.FlightResolutions, s.FlightRedefines)
	}
	if !s.HottestInTopK {
		t.Error("population's hottest name absent from the prefix server's sketch")
	}

	if want := len(a17LeaseSweep) + len(a19TuneFloors); len(doc.AutoTune) != want {
		t.Fatalf("auto-tune runs = %d, want %d", len(doc.AutoTune), want)
	}
	for _, run := range doc.AutoTune {
		// Chaos redefinitions and the partition make some requests fail;
		// they must stay a small minority of the workload.
		total := run.Requests * a17Shards * a17ClientsPerShard
		if run.Errors*10 > total {
			t.Errorf("%s lease %dus: %d of %d requests errored", run.Policy, run.LeaseUS, run.Errors, total)
		}
		if !run.BoundHeld {
			t.Errorf("%s lease %dus: widest stale window %dus exceeds bound %dus", run.Policy, run.LeaseUS, run.WidestStaleUS, run.BoundUS)
		}
		if !run.TraceClean {
			t.Errorf("%s lease %dus: trace failed invariant check", run.Policy, run.LeaseUS)
		}
		if run.Policy == "tuned" {
			if run.TunedShard0US != run.LeaseUS {
				t.Errorf("churned shard0 lease settled at %dus, want floor %dus", run.TunedShard0US, run.LeaseUS)
			}
			if run.TunedShard1US != run.CapUS {
				t.Errorf("quiet shard1 lease settled at %dus, want cap %dus", run.TunedShard1US, run.CapUS)
			}
		}
	}
	if doc.FrontierBeats < 1 {
		t.Errorf("frontier beats = %d, want >= 1 (auto-tune must dominate a fixed lease)", doc.FrontierBeats)
	}
}

// TestPopulationTraceSmall runs the `vbench -zipf -trace` sampled
// export end to end at a small population: the retained trace must be
// valid JSON, pass the invariant checker (asserted inside
// PopulationTrace), and hold O(k) roots — the same acceptance contract
// the 10⁶-name run is pinned to, at test-suite scale.
func TestPopulationTraceSmall(t *testing.T) {
	data, pt, err := PopulationTrace(1000)
	if err != nil {
		t.Fatal(err)
	}
	if pt.TotalOps == 0 || pt.RootsSeen == 0 {
		t.Fatalf("empty population run: %+v", pt)
	}
	if pt.RootsRetained == 0 || pt.RootsRetained*8 > pt.RootsSeen {
		t.Errorf("retained %d of %d roots at 1/%d — not O(k)", pt.RootsRetained, pt.RootsSeen, pt.HeadEvery)
	}
	if pt.RetainedSpans == 0 {
		t.Error("no spans retained")
	}
	var doc struct {
		Version int               `json:"version"`
		Spans   []json.RawMessage `json:"spans"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace export is not a JSON document: %v", err)
	}
	if len(doc.Spans) != pt.RetainedSpans {
		t.Errorf("export holds %d spans, summary says %d", len(doc.Spans), pt.RetainedSpans)
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
