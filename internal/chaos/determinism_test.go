package chaos_test

// The determinism satellite: two runs of the same chaos schedule and
// seed over the same rig configuration must produce byte-identical event
// logs and identical session metrics. This is the virtual-time
// substrate's core guarantee, and the property `make check` protects.

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/client"
	"repro/internal/rig"
)

type chaosRun struct {
	log     string
	ok      int
	stats   client.ResilienceStats
	summary rig.ResilienceSummary
}

func runChaosOnce(t *testing.T) chaosRun {
	t.Helper()
	policy := client.DefaultRetryPolicy()
	r, err := rig.New(rig.Config{Users: []string{"mann"}, Seed: 7, Retry: &policy, Requests: 120,
		Faults: chaos.Generate(99, chaos.Profile{
			Duration:           2 * time.Second,
			Hosts:              []string{"fs1"},
			MeanOutageEvery:    500 * time.Millisecond,
			OutageLength:       150 * time.Millisecond,
			MeanLossPulseEvery: 700 * time.Millisecond,
			LossPulseLength:    100 * time.Millisecond,
			LossRate:           0.25,
		})})
	if err != nil {
		t.Fatal(err)
	}
	s := r.WS[0].Session
	ok, eng := r.RunPaced(func(s *client.Session, _ int) error {
		_, err := s.ReadFile("[bin]hello")
		return err
	})
	eng.AdvanceTo(math.MaxInt64) // every remaining event, whatever its time
	return chaosRun{
		log:     strings.Join(eng.Log(), "\n"),
		ok:      ok,
		stats:   s.ResilienceStats(),
		summary: r.ResilienceSummary(),
	}
}

func TestChaosScheduleDeterministic(t *testing.T) {
	a, b := runChaosOnce(t), runChaosOnce(t)
	if a.log != b.log {
		t.Fatalf("event logs differ:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a.log, b.log)
	}
	if a.ok != b.ok {
		t.Fatalf("success counts differ: %d vs %d", a.ok, b.ok)
	}
	if !reflect.DeepEqual(a.stats, b.stats) {
		t.Fatalf("session metrics differ:\n%+v\n%+v", a.stats, b.stats)
	}
	if !reflect.DeepEqual(a.summary, b.summary) {
		t.Fatalf("rig summaries differ:\n%+v\n%+v", a.summary, b.summary)
	}
	if a.log == "" {
		t.Fatal("schedule fired no events")
	}
	if a.stats.Ops == 0 {
		t.Fatal("workload recorded no operations")
	}
}
