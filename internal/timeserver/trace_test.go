package timeserver

import (
	"testing"

	"repro/internal/trace"
	"repro/internal/trace/tracetest"
)

// TestTraceInvariantsTimeServer runs GetTime transactions against a
// time server in a traced domain and checks the trace invariants
// plus the expected span anatomy.
func TestTraceInvariantsTimeServer(t *testing.T) {
	d := tracetest.New()
	if _, err := Start(d.K.NewHost("services")); err != nil {
		t.Fatal(err)
	}
	proc, err := d.K.NewHost("ws").NewProcess("client")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(proc.Destroy)

	const trials = 4
	for j := 0; j < trials; j++ {
		if _, err := GetTime(proc); err != nil {
			t.Fatalf("trial %d: %v", j, err)
		}
	}

	spans := d.Check(t)
	tracetest.Require(t, spans, trace.KindSend, trials)
	tracetest.Require(t, spans, trace.KindServe, trials)
	tracetest.Require(t, spans, trace.KindReply, trials)
	tracetest.Forbid(t, spans, trace.KindHandoff)
	tracetest.Require(t, spans, trace.KindWire, trials*2)
}
