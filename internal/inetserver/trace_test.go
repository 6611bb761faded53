package inetserver

import (
	"testing"

	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/trace"
	"repro/internal/trace/tracetest"
	"repro/internal/vio"
)

// TestTraceInvariantsInetServer dials an echo connection and round-trips
// data in a traced domain, then checks the trace invariants.
func TestTraceInvariantsInetServer(t *testing.T) {
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

	req := &proto.Message{Op: proto.OpCreateInstance}
	proto.SetCSName(req, uint32(core.CtxDefault), "tcp/echo.host:7")
	proto.SetOpenMode(req, proto.ModeRead|proto.ModeWrite|proto.ModeCreate)
	reply, err := proc.Send(req, s.PID())
	if err != nil || proto.ReplyError(reply.Op) != nil {
		t.Fatalf("dial: %v, %v", reply, err)
	}
	f := new(vio.File).Init(proc, s.PID(), proto.GetInstanceInfo(reply))
	msg := "traced ping"
	if _, err := f.Write([]byte(msg)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Seek(0, 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 32)
	n, err := f.Read(buf)
	if err != nil || string(buf[:n]) != msg {
		t.Fatalf("read: %q, %v", buf[:n], err)
	}

	spans := d.Check(t)
	tracetest.Require(t, spans, trace.KindSend, 3)
	tracetest.Require(t, spans, trace.KindServe, 3)
	tracetest.Require(t, spans, trace.KindReply, 3)
	tracetest.Forbid(t, spans, trace.KindHandoff)
}
