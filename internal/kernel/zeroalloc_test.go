package kernel

import (
	"testing"

	"repro/internal/netsim"
	"repro/internal/proto"
	"repro/internal/raceflag"
	"repro/internal/vtime"
)

// TestSendZeroAllocUntraced pins the hot-path allocation contract: with
// tracing disabled, a steady-state same-host Send-Receive-Reply
// transaction performs zero heap allocations. Both endpoints reuse a
// preallocated message, so anything this test counts comes from the
// kernel itself — the sender's record, the mailbox, the pending table, or
// the clock.
func TestSendZeroAllocUntraced(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("AllocsPerRun counts the race detector's own allocations")
	}
	k := New(netsim.New(vtime.DefaultModel(), 1))
	h := k.NewHost("alloc")
	echo, err := h.Spawn("echo", func(p *Process) {
		var reply proto.Message
		for {
			msg, from, err := p.Receive()
			if err != nil {
				return
			}
			reply = *msg
			reply.Op = proto.ReplyOK
			if err := p.Reply(&reply, from); err != nil {
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	client, err := h.NewProcess("client")
	if err != nil {
		t.Fatal(err)
	}
	req := &proto.Message{Op: proto.OpEcho}
	// Warm the sender's record and the pending table before counting.
	for i := 0; i < 64; i++ {
		if _, err := client.Send(req, echo.PID()); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := client.Send(req, echo.PID()); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("untraced same-host Send allocates %v allocs/op, want 0", allocs)
	}
}

// TestSpanNamesRenderAsBefore pins the lazily rendered transaction span
// names to the strings Send, Reply, Forward and the group sends used to
// concatenate on every call.
func TestSpanNamesRenderAsBefore(t *testing.T) {
	for _, dst := range []PID{MakePID(3, 17), MakePID(groupHostField, 5), NilPID} {
		for _, sep := range []string{" -> ", " ->* "} {
			want := proto.OpMapContext.String() + sep + dst.String()
			if got := opTo(proto.OpMapContext, sep, dst).String(); got != want {
				t.Errorf("span name %q, want %q", got, want)
			}
		}
	}
	if got := opTo(proto.ReplyOK, " -> ", MakePID(1, 2)).String(); got != "OK -> pid(1.2)" {
		t.Errorf("span name %q", got)
	}
}
