package main

import (
	"strings"
	"testing"
)

func runVstat(t *testing.T, args ...string) string {
	t.Helper()
	var sb strings.Builder
	if err := run(args, &sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func TestVstatSnapshot(t *testing.T) {
	out := runVstat(t, "-ops", "30")
	for _, want := range []string{
		"vstat: registry snapshot at",
		"counters:",
		"kernel_sends_total",
		"histograms:",
		"send_latency{server=",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Nothing the plain snapshot prints depends on the host: a second run
	// prints the same bytes.
	if again := runVstat(t, "-ops", "30"); again != out {
		t.Errorf("two runs differ:\n%s\n---\n%s", out, again)
	}
}

// TestVstatVerdict: a run the rig refuses, at boot or by its oracles, is
// run's error, so vstat exits 1 with nothing rendered. Fewer than no
// operations are refused at boot, by name, not driven into a verdict of
// lost operations.
func TestVstatVerdict(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-ops", "-1"}, &sb); err == nil || !strings.Contains(err.Error(), "requests must not be negative") {
		t.Fatalf("run = %v, want the refusal of a negative operation count", err)
	}
	if sb.Len() != 0 {
		t.Errorf("a refused run rendered:\n%s", sb.String())
	}
}

func TestVstatProm(t *testing.T) {
	out := runVstat(t, "-ops", "30", "-prom")
	for _, want := range []string{
		"# TYPE kernel_sends_total counter",
		"send_latency",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prom output missing %q:\n%s", want, out)
		}
	}
}

// TestVstatObservers runs the observer views under the chaos schedule,
// whose outages leave the client's lease cache holding stale
// resolutions, and requires every section to list at least one entry:
// the hot names, the prefix server's churn estimates, the client's
// stale windows and the sealed flight journal.
func TestVstatObservers(t *testing.T) {
	out := runVstat(t, "-chaos", "-flight", "-top", "-rates")
	for _, head := range []string{"hot names", "per-prefix churn estimates", "client lease cache:", "flight journal"} {
		i := strings.Index(out, head)
		if i < 0 {
			t.Fatalf("output has no %q section:\n%s", head, out)
		}
		lines := strings.SplitN(out[i:], "\n", 3)
		if len(lines) < 3 || !strings.HasPrefix(lines[1], "  ") || strings.Contains(lines[1], "(no ") {
			t.Errorf("section %q lists no entry:\n%s", head, out[i:])
		}
	}
}

func TestVstatChaosHealth(t *testing.T) {
	out := runVstat(t, "-chaos", "-health", "-diff")
	for _, want := range []string{
		"chaos_events_total{class=\"crash\"}",
		"server_up{host=\"fs1\"}",
		"300.00 ms=0",
		"800.00 ms=1",
		"health over",
		"outage",
		"per-tick diffs",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("chaos/health output missing %q:\n%s", want, out)
		}
	}
}
