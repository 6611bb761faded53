package rig

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/client"
	"repro/internal/trace"
)

// countKind tallies spans of one kind.
func countKind(spans []trace.Span, kind trace.Kind) int {
	n := 0
	for _, s := range spans {
		if s.Kind == kind {
			n++
		}
	}
	return n
}

// TestWorkloadDriverTrace runs the closed-loop workload driver over a
// traced rig and checks the full-trace invariants plus the span anatomy
// of the resolution path: one client-op root per request, each with a
// send that reaches a serve and a reply, with prefix forwards in
// between.
func TestWorkloadDriverTrace(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Users = []string{"mann"}
	cfg.Trace = true
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const clients, requests = 3, 4
	wcs := make([]*WorkloadClient, 0, clients)
	for i := 0; i < clients; i++ {
		sess, err := r.NewSession(r.WS[0])
		if err != nil {
			t.Fatal(err)
		}
		wcs = append(wcs, &WorkloadClient{
			Session:  sess,
			Requests: requests,
			Op: func(s *client.Session, iter int) error {
				_, err := s.ReadFile("[home]welcome.txt")
				return err
			},
		})
	}
	res := RunWorkload(wcs)
	for i, st := range res.Clients {
		if st.Errors != 0 {
			t.Fatalf("client %d failed %d requests", i, st.Errors)
		}
	}
	if err := r.CheckTrace(); err != nil {
		t.Fatal(err)
	}
	spans := r.Tracer.Snapshot()
	if got := countKind(spans, trace.KindClientOp); got < clients*requests {
		t.Fatalf("client-op spans = %d, want at least %d", got, clients*requests)
	}
	// Every ReadFile is open + read(s) + close, each with a send/serve/
	// reply triple; the open routes through the prefix server, so
	// forward spans must appear too.
	for _, k := range []trace.Kind{trace.KindSend, trace.KindServe, trace.KindReply} {
		if got := countKind(spans, k); got < clients*requests*3 {
			t.Fatalf("%s spans = %d, want at least %d", k, got, clients*requests*3)
		}
	}
	if got := countKind(spans, trace.KindForward); got < clients*requests {
		t.Fatalf("forward spans = %d, want at least %d (prefix rewrites)", got, clients*requests)
	}
	if got := countKind(spans, trace.KindWire); got == 0 {
		t.Fatal("no wire spans recorded")
	}
	if frames := r.Tracer.Frames(); len(frames) == 0 {
		t.Fatal("no wire frames recorded")
	}
}

// chaosTraceRun drives the A10 chaos schedule over a traced, resilient
// rig and returns the rig, whose registry counted the recovery, plus the
// checked span snapshot.
func chaosTraceRun(t *testing.T) (*Rig, []trace.Span) {
	t.Helper()
	policy := client.DefaultRetryPolicy()
	// The A10 chaos profile: fs1 outages plus near-total loss pulses, the
	// schedule that actually provokes retransmit exhaustion and rebinds.
	cfg := Config{Users: []string{"mann"}, Seed: 7, Retry: &policy, Trace: true, Requests: 120,
		Faults: chaos.Generate(2026, chaos.Profile{
			Duration:           2 * time.Second,
			Hosts:              []string{"fs1"},
			MeanOutageEvery:    500 * time.Millisecond,
			OutageLength:       200 * time.Millisecond,
			MeanLossPulseEvery: 900 * time.Millisecond,
			LossPulseLength:    120 * time.Millisecond,
			LossRate:           0.9,
		})}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.WS[0].Session.EnableNameCache(true)
	_, ev := r.Run()
	// The run outlasts the schedule: every event fired inside it.
	if len(ev.ChaosLog) != len(cfg.Faults) {
		t.Fatalf("fired %d of %d events:\n%s", len(ev.ChaosLog), len(cfg.Faults), strings.Join(ev.ChaosLog, "\n"))
	}
	if ev.TraceErr != nil {
		t.Fatalf("trace under chaos violates invariants: %v", ev.TraceErr)
	}
	return r, r.Tracer.Snapshot()
}

// TestTraceUnderChaos asserts the recovery machinery is visible in the
// trace: retries appear as extra attempt spans under their client-op
// root, each preceded by backoff and rebind spans, failed attempts carry
// a failure classification, and despite crashes and packet loss no span
// leaks (r.CheckTrace inside chaosTraceRun enforces that under -race).
func TestTraceUnderChaos(t *testing.T) {
	r, spans := chaosTraceRun(t)
	ops, retries := int(recovered(r, "ops")), int(recovered(r, "retries"))
	if retries == 0 {
		t.Fatal("chaos schedule provoked no retries; the trace assertions below would be vacuous")
	}
	byID := make(map[trace.SpanID]trace.Span, len(spans))
	for _, sp := range spans {
		byID[sp.ID] = sp
	}
	attempts, backoffs, rebinds, failedAttempts := 0, 0, 0, 0
	for _, sp := range spans {
		switch sp.Kind {
		case trace.KindAttempt, trace.KindBackoff, trace.KindRebind:
			if p := byID[sp.Parent]; p.Kind != trace.KindClientOp {
				t.Fatalf("%s span %d parents under %q, want client-op", sp.Kind, sp.ID, p.Kind)
			}
		}
		switch sp.Kind {
		case trace.KindAttempt:
			attempts++
			if sp.Err != "" {
				failedAttempts++
			}
		case trace.KindBackoff:
			backoffs++
		case trace.KindRebind:
			rebinds++
		}
	}
	// One attempt per op plus one per retry; one backoff and one rebind
	// per retry.
	if want := ops + retries; attempts != want {
		t.Fatalf("attempt spans = %d, want %d (ops %d + retries %d)", attempts, want, ops, retries)
	}
	if backoffs != retries || rebinds != retries {
		t.Fatalf("backoff/rebind spans = %d/%d, want %d each", backoffs, rebinds, retries)
	}
	if failedAttempts == 0 {
		t.Fatal("no attempt span carries a failure classification")
	}
	// Host crashes must be distinguishable from the trace alone: some
	// span records the host-down class, and the dying server teams left
	// classified server-exit events.
	classes := make(map[string]int)
	for _, sp := range spans {
		if sp.Err != "" {
			classes[sp.Err]++
		}
	}
	if classes["host-down"] == 0 && classes["unreachable"] == 0 && classes["nonexistent-process"] == 0 {
		t.Fatalf("no transport-failure classification in trace; classes = %v", classes)
	}
	if countKind(spans, trace.KindServerExit) == 0 {
		t.Fatal("no server-exit event recorded for the crashed file server")
	}
}

// TestTraceUnderChaosDeterministic runs the chaos trace twice: same
// seeds, same schedule — identical span counts and identical failure
// classification histograms.
func TestTraceUnderChaosDeterministic(t *testing.T) {
	rA, spansA := chaosTraceRun(t)
	rB, spansB := chaosTraceRun(t)
	if a, b := rA.Metrics.Snapshot().Deterministic(), rB.Metrics.Snapshot().Deterministic(); !reflect.DeepEqual(a, b) {
		t.Fatalf("registry snapshots differ:\n%+v\n%+v", a, b)
	}
	if len(spansA) != len(spansB) {
		t.Fatalf("span counts differ: %d vs %d", len(spansA), len(spansB))
	}
	hist := func(spans []trace.Span) map[string]int {
		h := make(map[string]int)
		for _, sp := range spans {
			h[string(sp.Kind)+"/"+sp.Err]++
		}
		return h
	}
	ha, hb := hist(spansA), hist(spansB)
	for k, v := range ha {
		if hb[k] != v {
			t.Fatalf("kind/class histogram differs at %q: %d vs %d", k, v, hb[k])
		}
	}
}
