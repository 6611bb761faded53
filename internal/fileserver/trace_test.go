package fileserver

import (
	"testing"

	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/trace"
	"repro/internal/trace/tracetest"
	"repro/internal/vio"
)

// TestTraceInvariantsFileServer drives query/open/read/close against a
// file-server team in a traced domain and runs the invariant checker:
// every send terminates in exactly one reply, the receptionist's
// handoffs and forwards appear as spans, and no span leaks.
func TestTraceInvariantsFileServer(t *testing.T) {
	d := tracetest.New()
	fs, err := Start(d.K.NewHost("fs"), "traced", WithTeam(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/u/data.txt", "system", []byte("traced payload")); err != nil {
		t.Fatal(err)
	}
	proc, err := d.K.NewHost("ws").NewProcess("client")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(proc.Destroy)

	const trials = 3
	for j := 0; j < trials; j++ {
		q := &proto.Message{Op: proto.OpQueryObject}
		proto.SetCSName(q, uint32(core.CtxDefault), "u/data.txt")
		if reply, err := proc.Send(q, fs.PID()); err != nil || reply.Op != proto.ReplyOK {
			t.Fatalf("query %d: %v, %v", j, reply, err)
		}
		open := &proto.Message{Op: proto.OpCreateInstance}
		proto.SetCSName(open, uint32(core.CtxDefault), "u/data.txt")
		proto.SetOpenMode(open, proto.ModeRead)
		reply, err := proc.Send(open, fs.PID())
		if err != nil || reply.Op != proto.ReplyOK {
			t.Fatalf("open %d: %v, %v", j, reply, err)
		}
		f := new(vio.File).Init(proc, fs.PID(), proto.GetInstanceInfo(reply))
		if got, err := f.ReadAll(); err != nil || string(got) != "traced payload" {
			t.Fatalf("read %d: %q, %v", j, got, err)
		}
		if err := f.Close(); err != nil {
			t.Fatalf("close %d: %v", j, err)
		}
	}

	spans := d.Check(t)
	// Every transaction crosses the team: receptionist handoff → forward
	// → worker serve → reply, each hop with a wire span.
	tracetest.Require(t, spans, trace.KindSend, trials*3)
	tracetest.Require(t, spans, trace.KindServe, trials*3)
	tracetest.Require(t, spans, trace.KindReply, trials*3)
	tracetest.Require(t, spans, trace.KindHandoff, trials)
	tracetest.Require(t, spans, trace.KindForward, trials)
	tracetest.Require(t, spans, trace.KindWire, trials*6)
	// Handoffs parent under the receptionist's serve span and their
	// forward hop follows as a sibling child of the handoff's parent or
	// the handoff itself; check every forward descends from a handoff or
	// a serve span.
	byID := make(map[trace.SpanID]trace.Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.Kind != trace.KindForward {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok || (p.Kind != trace.KindHandoff && p.Kind != trace.KindServe) {
			t.Fatalf("forward span %d parents under %v, want handoff or serve", s.ID, p.Kind)
		}
	}
}
