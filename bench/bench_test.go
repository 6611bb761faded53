package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/client"
)

// The tests run under the benchmark's own runtime settings.
func TestMain(m *testing.M) {
	pinRuntime()
	os.Exit(m.Run())
}

// smokeDiv shrinks every workload and probe a hundredfold: the tests check
// that the benchmark runs and agrees with BENCHMARK.json, not its numbers.
const smokeDiv = 100

func declared(t *testing.T) (workloadNames, endToEnd, perLayer []string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type named struct {
		Name string `json:"name"`
	}
	var doc struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	names := func(v []named) []string {
		var out []string
		for _, e := range v {
			out = append(out, e.Name)
		}
		sort.Strings(out)
		return out
	}
	return names(doc.Workloads), names(doc.EndToEnd), names(doc.PerLayer)
}

func keys(m map[string]metric) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Every workload runs, fails no operation, repeats its simulated result,
// and reports exactly the end-to-end metrics BENCHMARK.json declares.
func TestWorkloadsSmoke(t *testing.T) {
	wantWorkloads, wantMetrics, _ := declared(t)
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
		r, err := runReps(w, w.prepare(7, smokeDiv), repPlan{reps: 2, deadline: time.Now().Add(time.Minute)})
		if err != nil {
			t.Fatal(err)
		}
		if r.attempted() == 0 || r.failed() != 0 {
			t.Errorf("%s: %d attempted, %d failed", w.name, r.attempted(), r.failed())
		}
		m := r.endToEnd()
		if !slices.Equal(keys(m), wantMetrics) {
			t.Errorf("%s: end-to-end metrics %v, BENCHMARK.json declares %v", w.name, keys(m), wantMetrics)
		}
		for name, v := range m {
			if !(v.Value > 0) {
				t.Errorf("%s: %s = %v, want > 0", w.name, name, v.Value)
			}
		}
		if b := r.reps[0].backlog; b > 1.05 {
			t.Errorf("%s: backlog ratio %.3f", w.name, b)
		}
	}
	sort.Strings(have)
	if !slices.Equal(have, wantWorkloads) {
		t.Errorf("workloads %v, BENCHMARK.json declares %v", have, wantWorkloads)
	}
}

// The traced mode runs every probe and side leg, writes the span file, and
// reports exactly the per-layer metrics BENCHMARK.json declares.
func TestTracedSmoke(t *testing.T) {
	_, _, want := declared(t)
	dir := t.TempDir()
	probes, err := runProbes(7, probeSize{smokeDiv})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"resolve_observed", "define_churn", "paper_fileio"} {
		w, err := workloadByName(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := tracedRun(w, probes, 7, smokeDiv, time.Now().Add(time.Minute), dir)
		if err != nil {
			t.Fatal(err)
		}
		if res.failed != 0 {
			t.Errorf("%s: %d operations failed", name, res.failed)
		}
		if !slices.Equal(keys(res.metrics), want) {
			t.Errorf("%s: per-layer metrics %v, BENCHMARK.json declares %v", name, keys(res.metrics), want)
		}
		if _, err := os.Stat(filepath.Join(dir, name+".spans.json")); err != nil {
			t.Error(err)
		}
	}
}

// A wrong answer must count as a failed operation.
func TestWrongAnswerCounts(t *testing.T) {
	w, _ := workloadByName("resolve_hit")
	build := w.prepare(7, smokeDiv)
	broken := func() (*instance, error) {
		in, err := build()
		if err == nil {
			op := in.clients[0].Op
			in.clients[0].Op = func(s *client.Session, i int) error {
				if err := op(s, i); err != nil {
					return err
				}
				return errWrongAnswer
			}
		}
		return in, err
	}
	r, err := runReps(w, broken, repPlan{reps: 1, deadline: time.Now().Add(time.Minute)})
	if err != nil {
		t.Fatal(err)
	}
	if want := r.reps[0].ops / zipfClients; r.failed() != want {
		t.Errorf("failed %d operations, want client 0's %d", r.failed(), want)
	}
}

// One sample at the reference speed reads as no slowdown, and a repetition
// takes its samples from inside the driver call.
func TestCalibration(t *testing.T) {
	ref := time.Duration(calibrationRendezvous * referenceRendezvousNs)
	if got := slowdown([]time.Duration{ref, 3 * ref, ref / 2}); got != 1 {
		t.Errorf("slowdown of samples with the reference as median = %v, want 1", got)
	}
	if got := slowdown(nil); got != 1 {
		t.Errorf("slowdown of no samples = %v, want 1", got)
	}
	w, _ := workloadByName("resolve_hit")
	in, err := w.prepare(7, smokeDiv)()
	if err != nil {
		t.Fatal(err)
	}
	defer in.teardown()
	s := sampleDuring(in)
	res := in.drive(in.clients)
	if want := res.Requests / minOpsPerSample; want == 0 || len(s.samples) != want {
		t.Errorf("%d calibration samples in a repetition of %d operations, want %d", len(s.samples), res.Requests, want)
	}
	if c := s.cost(); c <= 0 {
		t.Errorf("samples cost %v", c)
	}
}

// spread must match Python's statistics.quantiles(v, n=4) quartiles.
func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	v := []float64{10, 12, 11, 15, 9, 13, 14, 10.5, 11.5, 12.5}
	// statistics.quantiles(v, n=4) == [10.375, 11.75, 13.25]; median 11.75.
	if got, want := spread(v), (13.25-10.375)/11.75; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := spread([]float64{5}); got != 0 {
		t.Errorf("spread of one value = %v", got)
	}
}
