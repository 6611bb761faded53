package prefix

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/trace"
	"repro/internal/trace/tracetest"
)

// TestTraceInvariantsPrefixServer drives prefixed queries through a
// prefix-server team in a traced domain: each transaction's span tree
// must show the prefix rewrite as a forward hop into the target server,
// and the invariant checker must accept the whole trace.
func TestTraceInvariantsPrefixServer(t *testing.T) {
	d := tracetest.New()
	target := serveTarget(t, d.K.NewHost("srv"), "target", nil)
	t.Cleanup(target.Destroy)

	ps, err := Start(d.K.NewHost("ws"), "mann", WithTeam(2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ps.Proc().Destroy() })
	if err := ps.Define("tgt", core.ContextPair{Server: target.PID(), Ctx: 42}); err != nil {
		t.Fatal(err)
	}

	proc, err := d.K.NewHost("remote").NewProcess("client")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(proc.Destroy)

	const trials = 4
	for j := 0; j < trials; j++ {
		req := &proto.Message{Op: proto.OpQueryObject}
		proto.SetCSName(req, 0, fmt.Sprintf("[tgt]q%d", j))
		reply, err := proc.Send(req, ps.PID())
		if err != nil || reply.Op != proto.ReplyOK {
			t.Fatalf("trial %d: %v, %v", j, reply, err)
		}
	}

	spans := d.Check(t)
	tracetest.Require(t, spans, trace.KindSend, trials)
	tracetest.Require(t, spans, trace.KindServe, trials)
	tracetest.Require(t, spans, trace.KindReply, trials)
	// Team handoff plus the prefix rewrite: at least two forwards per
	// query (receptionist → worker, worker → target server).
	tracetest.Require(t, spans, trace.KindHandoff, trials)
	tracetest.Require(t, spans, trace.KindForward, trials*2)
	// The reply comes from the rewrite target, not the prefix server:
	// every successful reply span must name the target's host.
	for _, s := range spans {
		if s.Kind == trace.KindReply && s.Err == "" && s.Host != "srv" {
			t.Fatalf("reply span %d served from host %q, want the rewrite target", s.ID, s.Host)
		}
	}
}
