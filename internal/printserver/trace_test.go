package printserver

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/trace"
	"repro/internal/trace/tracetest"
	"repro/internal/vio"
)

// TestTraceInvariantsPrintServer submits print jobs in a traced domain
// and checks the trace invariants; the server serves alone, without handoffs.
func TestTraceInvariantsPrintServer(t *testing.T) {
	d := tracetest.New()
	s, err := Start(d.K.NewHost("services"))
	if err != nil {
		t.Fatal(err)
	}
	proc, err := d.K.NewHost("ws").NewProcess("client")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(proc.Destroy)

	const jobs = 2
	for j := 0; j < jobs; j++ {
		req := &proto.Message{Op: proto.OpCreateInstance}
		proto.SetCSName(req, uint32(core.CtxDefault), fmt.Sprintf("traced-%d.ps", j))
		proto.SetOpenMode(req, proto.ModeWrite|proto.ModeCreate)
		reply, err := proc.Send(req, s.PID())
		if err != nil || proto.ReplyError(reply.Op) != nil {
			t.Fatalf("job %d open: %v, %v", j, reply, err)
		}
		f := new(vio.File).Init(proc, s.PID(), proto.GetInstanceInfo(reply))
		if _, err := f.Write([]byte("%!PS")); err != nil {
			t.Fatalf("job %d write: %v", j, err)
		}
		if err := f.Close(); err != nil {
			t.Fatalf("job %d close: %v", j, err)
		}
	}
	if got := len(queue(t, proc, s)); got != jobs {
		t.Fatalf("queue = %d, want %d", got, jobs)
	}

	spans := d.Check(t)
	tracetest.Require(t, spans, trace.KindSend, jobs*3)
	tracetest.Require(t, spans, trace.KindServe, jobs*3)
	tracetest.Require(t, spans, trace.KindReply, jobs*3)
	tracetest.Forbid(t, spans, trace.KindHandoff)
}
