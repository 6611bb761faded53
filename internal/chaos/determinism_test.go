package chaos_test

// The determinism satellite: two runs of the same chaos schedule and
// seed over the same rig configuration must produce byte-identical event
// logs and identical registry snapshots. This is the virtual-time
// substrate's core guarantee, and the property `make check` protects.

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/client"
	"repro/internal/metrics"
	"repro/internal/rig"
)

type chaosRun struct {
	log  string
	ok   int
	snap metrics.Snapshot
}

func runChaosOnce(t *testing.T) chaosRun {
	t.Helper()
	policy := client.DefaultRetryPolicy()
	cfg := rig.Config{Users: []string{"mann"}, Seed: 7, Retry: &policy, Requests: 120,
		Faults: chaos.Generate(99, chaos.Profile{
			Duration:           2 * time.Second,
			Hosts:              []string{"fs1"},
			MeanOutageEvery:    500 * time.Millisecond,
			OutageLength:       150 * time.Millisecond,
			MeanLossPulseEvery: 700 * time.Millisecond,
			LossPulseLength:    100 * time.Millisecond,
			LossRate:           0.25,
		})}
	r, err := rig.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.Clients[0].Op = func(s *client.Session, _ int) error {
		_, err := s.ReadFile("[bin]hello")
		return err
	}
	_, ev := r.Run()
	// The run outlasts the schedule: every event fired inside it.
	if len(ev.ChaosLog) != len(cfg.Faults) {
		t.Fatalf("fired %d of %d events:\n%s", len(ev.ChaosLog), len(cfg.Faults), strings.Join(ev.ChaosLog, "\n"))
	}
	return chaosRun{log: strings.Join(ev.ChaosLog, "\n"), ok: ev.Completed, snap: r.Metrics.Snapshot().Deterministic()}
}

func TestChaosScheduleDeterministic(t *testing.T) {
	a, b := runChaosOnce(t), runChaosOnce(t)
	if a.log != b.log {
		t.Fatalf("event logs differ:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a.log, b.log)
	}
	if a.ok != b.ok {
		t.Fatalf("success counts differ: %d vs %d", a.ok, b.ok)
	}
	if !reflect.DeepEqual(a.snap, b.snap) {
		t.Fatalf("registry snapshots differ:\n%+v\n%+v", a.snap, b.snap)
	}
	if a.log == "" {
		t.Fatal("schedule fired no events")
	}
	if (metrics.Sample{Counters: a.snap.Counters}).Total("client_ops_total") == 0 {
		t.Fatal("workload recorded no operations")
	}
}
