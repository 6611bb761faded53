package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"repro/internal/metrics"
)

// TestMetricsZeroCost pins the observability tentpole's central promise:
// the metrics registry charges zero virtual time. Every rig now boots
// with the registry installed, so if instrumentation leaked any cost
// into the clocks the paper-facing numbers would drift. Each checked
// experiment's rendered section must still appear verbatim in the
// committed seed vbench_output.txt (generated before the registry
// existed for e1/e3/t1, and with team=1 for a2).
func TestMetricsZeroCost(t *testing.T) {
	seed, err := os.ReadFile("../../vbench_output.txt")
	if err != nil {
		t.Skipf("no seed output: %v", err)
	}
	for _, id := range []string{"e1", "e3", "t1", "a2"} {
		res := runExp(t, id)
		var buf bytes.Buffer
		Print(&buf, res)
		if !bytes.Contains(seed, buf.Bytes()) {
			t.Errorf("with metrics installed, experiment %s no longer renders its seed section byte-identically:\n%s", id, buf.String())
		}
	}
}

// TestMetricsDeterministic pins the other half of the contract: the
// metrics document — counters, quantiles, per-tick series, and the
// chaos health report — is byte-identical across runs. Runs under
// -race in make check, so it also exercises the registry's concurrent
// update paths.
func TestMetricsDeterministic(t *testing.T) {
	first, err := DocJSON("a14")
	if err != nil {
		t.Fatal(err)
	}
	second, err := DocJSON("a14")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("metrics document differs between runs:\nrun1 %d bytes\nrun2 %d bytes", len(first), len(second))
	}
}

// TestA14Shape sanity-checks the document itself: the quantile fields
// the acceptance criteria call for, the paper's remote transaction at
// the distribution median, and a health report that felt both outages.
func TestA14Shape(t *testing.T) {
	data, err := DocJSON("a14")
	if err != nil {
		t.Fatal(err)
	}
	var doc Result
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Legs) != 2+len(a14TeamSizes) {
		t.Fatalf("legs = %d", len(doc.Legs))
	}

	uncontended := doc.Legs[0].Series
	var echo *metrics.HistPoint
	for i, h := range uncontended.Histograms {
		if h.Name == "send_latency" && h.Labels.Op == "Echo" {
			echo = &uncontended.Histograms[i]
		}
	}
	if echo == nil {
		t.Fatal("uncontended leg has no send_latency Echo histogram")
	}
	if echo.P50US == 0 || echo.P90US == 0 || echo.P99US == 0 {
		t.Fatalf("echo quantiles not populated: %+v", echo)
	}
	// The paper's 2.56 ms remote message transaction, reproduced as the
	// median of a measured distribution rather than a single trial.
	if got := usms(echo.P50US); got != "2.56 ms" {
		t.Fatalf("remote transaction median = %s, want 2.56 ms", got)
	}

	chaos := doc.Legs[len(doc.Legs)-1].Series
	if chaos.Health == nil {
		t.Fatal("chaos leg has no health report")
	}
	var fs1 *metrics.ServerHealth
	for i, sh := range chaos.Health.Servers {
		if sh.Host == "fs1" {
			fs1 = &chaos.Health.Servers[i]
		}
	}
	if fs1 == nil {
		t.Fatal("health report has no fs1 entry")
	}
	if len(fs1.Outages) != 2 {
		t.Fatalf("fs1 outages = %d, want 2 (crash/restart schedule has two)", len(fs1.Outages))
	}
	if fs1.Availability >= 1 {
		t.Fatalf("fs1 availability = %v, want < 1 under the outage schedule", fs1.Availability)
	}
	if len(chaos.Health.Degraded) == 0 {
		t.Fatal("no degraded windows recorded; the stale-cache workload should feel both outages")
	}
}

// TestA14Render checks the experiment's table rows carry the headline
// numbers (per-(server,op) quantiles and the chaos availability line).
func TestA14Render(t *testing.T) {
	res := runExp(t, "a14")
	var buf bytes.Buffer
	Print(&buf, res)
	out := buf.String()
	for _, want := range []string{"remote transaction, median", "2.56 ms", "availability under chaos", "degraded windows"} {
		if !strings.Contains(out, want) {
			t.Errorf("a14 output missing %q:\n%s", want, out)
		}
	}
}
