package kernel

import (
	"strconv"
	"testing"

	"repro/internal/metrics"
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

// TestGroupSendAllocs pins what an untraced group transaction allocates:
// a Send to a group of n served members, and a SendGroupAll to them, make
// the n clones, their n messages, the GroupMembers snapshot and one
// fan-in — 2n+2 — and complete in the sender's own record.
func TestGroupSendAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("AllocsPerRun counts the race detector's own allocations")
	}
	const n = 8
	k := New(netsim.New(vtime.DefaultModel(), 1))
	h := k.NewHost("alloc")
	gid := newGroup(t, k)
	for i := 0; i < n; i++ {
		m := newClient(t, h, "member")
		m.Serve(func(msg *proto.Message, from PID) {
			msg.Op = proto.ReplyOK // answered in its own clone
			_ = m.Reply(msg, from)
		})
		if err := k.JoinGroup(gid, m.PID()); err != nil {
			t.Fatal(err)
		}
	}
	client := newClient(t, h, "client")
	req := &proto.Message{Op: proto.OpEcho}
	for _, tc := range []struct {
		name string
		send func() error
	}{
		{"Send", func() error { _, err := client.Send(req, gid); return err }},
		{"SendGroupAll", func() error {
			if got, err := client.SendGroupAll(req, gid); err != nil || got != n {
				t.Fatalf("SendGroupAll = %d, %v; want all %d members", got, err, n)
			}
			return nil
		}},
	} {
		for i := 0; i < 64; i++ { // warm the record and the pending tables
			if err := tc.send(); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(1000, func() {
			if err := tc.send(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 2*n+2 {
			t.Errorf("untraced %s to %d served members allocates %v, want at most %d", tc.name, n, allocs, 2*n+2)
		}
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

// TestIdleCountersOfferNothing: a NewCounter series that has counted
// nothing offers a reading no row, so a registry snapshot costs as much
// with sixteen idle counters as with none.
func TestIdleCountersOfferNothing(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("AllocsPerRun counts the race detector's own allocations")
	}
	snapshot := func(counters int) float64 {
		k := New(netsim.New(vtime.DefaultModel(), 1))
		reg := metrics.New()
		k.SetMetrics(reg)
		for i := range counters {
			k.NewCounter("idle_total", metrics.Labels{Server: "s" + strconv.Itoa(i)})
		}
		return testing.AllocsPerRun(100, func() { reg.Snapshot() })
	}
	if idle, none := snapshot(16), snapshot(0); idle != none {
		t.Fatalf("a snapshot with 16 idle counters allocates %v, with none %v", idle, none)
	}
}
