package rig

import (
	"testing"

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
