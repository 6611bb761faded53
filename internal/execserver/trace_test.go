package execserver

import (
	"strings"
	"testing"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/fileserver"
	"repro/internal/proto"
	"repro/internal/trace"
	"repro/internal/trace/tracetest"
)

// TestTraceInvariantsExecServer launches a program through an
// exec server in a traced domain. The launch pulls the program
// image from the file server, so the trace must show the exec server's
// own nested send transactions inside its serve span.
func TestTraceInvariantsExecServer(t *testing.T) {
	d := tracetest.New()
	fs, err := fileserver.Start(d.K.NewHost("fs"), "fs")
	if err != nil {
		t.Fatal(err)
	}
	binCtx, err := fs.MkdirAll("/bin", "system")
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/bin/tool", "system", make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	s, err := Start(d.K.NewHost("ws"), core.ContextPair{Server: fs.PID(), Ctx: binCtx})
	if err != nil {
		t.Fatal(err)
	}
	s.RegisterBody("tool", func(prog *client.Session) { <-prog.Proc().Done() })

	proc, err := d.K.NewHost("remote").NewProcess("client")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(proc.Destroy)

	req := &proto.Message{Op: proto.OpExecProgram}
	proto.SetCSName(req, uint32(core.CtxDefault), "tool")
	reply, err := proc.Send(req, s.PID())
	if err != nil || reply.Op != proto.ReplyOK || !strings.HasPrefix(string(reply.Segment), "tool.") {
		t.Fatalf("launch: %v %q, %v", reply.Op, reply.Segment, err)
	}

	spans := d.Check(t)
	// The client's launch send, plus the exec server's nested sends to
	// the file server for the program image.
	tracetest.Require(t, spans, trace.KindSend, 2)
	tracetest.Require(t, spans, trace.KindServe, 2)
	tracetest.Require(t, spans, trace.KindReply, 2)
	tracetest.Forbid(t, spans, trace.KindHandoff)
	// The nested transaction parents inside the exec server's serve
	// span: at least one send whose ancestry passes through a serve.
	byID := make(map[trace.SpanID]trace.Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	nested := false
	for _, s := range spans {
		if s.Kind != trace.KindSend {
			continue
		}
		for cur := s; cur.Parent != 0; cur = byID[cur.Parent] {
			if p := byID[cur.Parent]; p.Kind == trace.KindServe {
				nested = true
			}
		}
	}
	if !nested {
		t.Fatal("no nested send transaction inside a serve span; exec's file-server fetch is missing from the trace")
	}
}
