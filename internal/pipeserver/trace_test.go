package pipeserver

import (
	"testing"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/proto"
	"repro/internal/trace"
	"repro/internal/trace/tracetest"
	"repro/internal/vio"
)

// TestTraceInvariantsPipeServer runs a writer/reader pair through a
// pipe server in a traced domain and checks the trace invariants.
func TestTraceInvariantsPipeServer(t *testing.T) {
	d := tracetest.New()
	s, err := Start(d.K.NewHost("services"))
	if err != nil {
		t.Fatal(err)
	}
	open := func(proc *kernel.Process, mode uint32) (*vio.File, error) {
		req := &proto.Message{Op: proto.OpCreateInstance}
		proto.SetCSName(req, uint32(core.CtxDefault), "traced-stream")
		proto.SetOpenMode(req, mode)
		reply, err := proc.Send(req, s.PID())
		if err != nil {
			return nil, err
		}
		if err := proto.ReplyError(reply.Op); err != nil {
			return nil, err
		}
		return new(vio.File).Init(proc, s.PID(), proto.GetInstanceInfo(reply)), nil
	}

	wProc, err := d.K.NewHost("wr").NewProcess("writer")
	if err != nil {
		t.Fatal(err)
	}
	rProc, err := d.K.NewHost("rd").NewProcess("reader")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		wProc.Destroy()
		rProc.Destroy()
	})

	w, err := open(wProc, proto.ModeWrite|proto.ModeCreate)
	if err != nil {
		t.Fatal(err)
	}
	r, err := open(rProc, proto.ModeRead)
	if err != nil {
		t.Fatal(err)
	}
	msg := "traced pipe line\n"
	if _, err := w.Write([]byte(msg)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	n, err := r.Read(buf)
	if err != nil || string(buf[:n]) != msg {
		t.Fatalf("read: %q, %v", buf[:n], err)
	}

	spans := d.Check(t)
	tracetest.Require(t, spans, trace.KindSend, 4)
	tracetest.Require(t, spans, trace.KindServe, 4)
	tracetest.Require(t, spans, trace.KindReply, 4)
	tracetest.Forbid(t, spans, trace.KindHandoff)
}
