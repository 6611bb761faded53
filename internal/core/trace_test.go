package core

import (
	"testing"

	"repro/internal/trace"
)

// exitClass boots a traced toy server, stops it via stop, and returns
// the failure classification its server-exit trace event carries.
func exitClass(t *testing.T, stop func(ts *toyServer)) string {
	t.Helper()
	k := newDomain()
	tr := trace.New()
	k.SetTracer(tr)
	ts := startToyServer(t, k.NewHost("srv"), "toy")
	stop(ts)
	for _, sp := range tr.Snapshot() {
		if sp.Kind == trace.KindServerExit {
			return sp.Err
		}
	}
	t.Fatal("no server-exit event in trace")
	return ""
}

// TestServerExitClassFromTraceAlone proves the per-request failure
// classification the serving path used to swallow is now attached to
// the trace: a host crash (kernel.ErrHostDown) and a clean destroy are
// distinguishable from the recorded spans alone, without access to the
// receptionist's Err.
func TestServerExitClassFromTraceAlone(t *testing.T) {
	clean := exitClass(t, func(ts *toyServer) { ts.srv.Proc().Destroy() })
	crash := exitClass(t, func(ts *toyServer) { ts.srv.Proc().Host().Crash() })
	if clean != "process-dead" {
		t.Fatalf("clean destroy classified %q, want process-dead", clean)
	}
	if crash != "host-down" {
		t.Fatalf("host crash classified %q, want host-down", crash)
	}
	if clean == crash {
		t.Fatal("crash and clean destroy indistinguishable from the trace")
	}
}
