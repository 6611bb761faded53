package mailserver

import (
	"testing"

	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/trace"
	"repro/internal/trace/tracetest"
	"repro/internal/vio"
)

// TestTraceInvariantsMailServer delivers mail in a traced domain and
// checks the trace invariants; the server serves alone, without handoffs.
func TestTraceInvariantsMailServer(t *testing.T) {
	d := tracetest.New()
	s, err := Start(d.K.NewHost("services"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddMailbox("mann@v"); err != nil {
		t.Fatal(err)
	}
	proc, err := d.K.NewHost("ws").NewProcess("client")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(proc.Destroy)

	const msgs = 2
	for j := 0; j < msgs; j++ {
		req := &proto.Message{Op: proto.OpCreateInstance}
		proto.SetCSName(req, uint32(core.CtxDefault), "mann@v")
		proto.SetOpenMode(req, proto.ModeWrite)
		reply, err := proc.Send(req, s.PID())
		if err != nil || proto.ReplyError(reply.Op) != nil {
			t.Fatalf("msg %d open: %v, %v", j, reply, err)
		}
		f := new(vio.File).Init(proc, s.PID(), proto.GetInstanceInfo(reply))
		if _, err := f.Write([]byte("traced note")); err != nil {
			t.Fatalf("msg %d write: %v", j, err)
		}
		if err := f.Close(); err != nil {
			t.Fatalf("msg %d close: %v", j, err)
		}
	}
	if n, err := messages(proc, s, "mann@v"); err != nil || n != msgs {
		t.Fatalf("mailbox count = %d, %v", n, err)
	}

	spans := d.Check(t)
	tracetest.Require(t, spans, trace.KindSend, msgs*3)
	tracetest.Require(t, spans, trace.KindServe, msgs*3)
	tracetest.Require(t, spans, trace.KindReply, msgs*3)
	tracetest.Forbid(t, spans, trace.KindHandoff)
}
