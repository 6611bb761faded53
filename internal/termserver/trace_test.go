package termserver

import (
	"testing"

	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/trace"
	"repro/internal/trace/tracetest"
	"repro/internal/vio"
)

// TestTraceInvariantsTermServer creates a terminal and writes lines to
// it in a traced domain, then checks the trace invariants; the server
// serves alone, without handoffs.
func TestTraceInvariantsTermServer(t *testing.T) {
	d := tracetest.New()
	s, err := Start(d.K.NewHost("ws"))
	if err != nil {
		t.Fatal(err)
	}
	proc, err := d.K.NewHost("remote").NewProcess("client")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(proc.Destroy)

	req := &proto.Message{Op: proto.OpCreateInstance}
	proto.SetCSName(req, uint32(core.CtxDefault), CreateName)
	proto.SetOpenMode(req, proto.ModeRead|proto.ModeWrite|proto.ModeCreate)
	reply, err := proc.Send(req, s.PID())
	if err != nil || proto.ReplyError(reply.Op) != nil {
		t.Fatalf("create: %v, %v", reply, err)
	}
	f := new(vio.File).Init(proc, s.PID(), proto.GetInstanceInfo(reply))
	const writes = 3
	for j := 0; j < writes; j++ {
		if _, err := f.Write([]byte("traced line\n")); err != nil {
			t.Fatalf("write %d: %v", j, err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	spans := d.Check(t)
	tracetest.Require(t, spans, trace.KindSend, writes+2)
	tracetest.Require(t, spans, trace.KindServe, writes+2)
	tracetest.Require(t, spans, trace.KindReply, writes+2)
	tracetest.Forbid(t, spans, trace.KindHandoff)
}
