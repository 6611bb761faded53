package kernel

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/proto"
	"repro/internal/trace"
)

// TestFailureClassReadsEveryRow walks the failure-class table: each
// sentinel, wrapped as the kernel wraps it, classifies as its class, the
// most specific first, and an error no sentinel matches as "error". A
// row added to the table without a case here fails.
func TestFailureClassReadsEveryRow(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{nil, ""},
		{ErrHostDown, "host-down"},
		{fmt.Errorf("%w: %w", ErrNonexistentProcess, ErrHostDown), "host-down"},
		{netsim.ErrUnreachable, "unreachable"},
		{ErrNonexistentProcess, "nonexistent-process"},
		{ErrProcessDead, "process-dead"},
		{ErrNoPendingMessage, "no-pending-message"},
		{ErrNotFound, "service-not-found"},
		{ErrNoSuchGroup, "no-such-group"},
		{errors.New("disk on fire"), "error"},
	}
	tested := map[string]bool{}
	for _, c := range cases {
		err := c.err
		if err != nil {
			err = fmt.Errorf("send to %v: %w", MakePID(1, 2), err)
		}
		if got := FailureClass(err); got != c.want {
			t.Errorf("FailureClass(%v) = %q, want %q", err, got, c.want)
		}
		tested[c.want] = true
	}
	for _, f := range failureClasses {
		if !tested[f.class] {
			t.Errorf("class %q has no case", f.class)
		}
	}
}

// TestSendFailuresCountedByClass makes one failed Send of each kind a
// Send can meet: a destination that never existed, a host that never
// existed, a forward to either, and a partition crossed directly or by a
// forward. Each is counted in kernel_send_failures_total under the class
// its send span carries.
func TestSendFailuresCountedByClass(t *testing.T) {
	k := newDomain(t)
	tr, reg := trace.New(), metrics.New()
	k.SetTracer(tr)
	k.SetMetrics(reg)
	a, b := k.NewHost("a"), k.NewHost("b")
	echo := spawnEcho(t, b)
	client := newClient(t, a, "client")
	forwarder := func(to PID) PID {
		fwd, err := a.Spawn("fwd", func(p *Process) {
			for {
				msg, from, err := p.Receive()
				if err != nil {
					return
				}
				_ = p.Forward(msg, from, to)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(fwd.Destroy)
		return fwd.PID()
	}
	send := func(dst PID) {
		if _, err := client.Send(&proto.Message{Op: proto.OpEcho}, dst); err == nil {
			t.Fatalf("send to %v succeeded", dst)
		}
	}
	send(MakePID(a.ID(), 9999))
	send(MakePID(77, 1))
	send(forwarder(MakePID(99, 99)))
	across := forwarder(echo.PID())
	k.Network().Partition(b.ID(), 1)
	send(echo.PID())
	send(across)
	k.Network().Heal()

	spans, counted := map[string]uint64{}, map[string]uint64{}
	for _, sp := range tr.Snapshot() {
		if sp.Kind == trace.KindSend && sp.Err != "" {
			spans[sp.Err]++
		}
	}
	for _, c := range reg.Snapshot().Counters {
		if c.Name == "kernel_send_failures_total" {
			counted[c.Labels.Class] = c.Value
		}
	}
	want := map[string]uint64{"nonexistent-process": 3, "unreachable": 2}
	if !reflect.DeepEqual(spans, want) || !reflect.DeepEqual(counted, want) {
		t.Fatalf("failed send spans by class %v, kernel_send_failures_total %v, want %v of each", spans, counted, want)
	}
}

// TestGroupSendCounted: a Send to a group is one Send in
// kernel_sends_total, as a Send to a process is, and a failed one is
// counted in kernel_send_failures_total by the class its span carries;
// kernel_inflight reads 0 after each. An empty group fails as
// nonexistent-process; a group with a live member answers.
func TestGroupSendCounted(t *testing.T) {
	for _, tc := range []struct {
		name     string
		members  int
		failures map[string]uint64
	}{
		{"empty", 0, map[string]uint64{"nonexistent-process": 1}},
		{"live", 1, map[string]uint64{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := newDomain(t)
			tr, reg := trace.New(), metrics.New()
			k.SetTracer(tr)
			k.SetMetrics(reg)
			a, b := k.NewHost("a"), k.NewHost("b")
			client := newClient(t, a, "client")
			gid, err := k.CreateGroup()
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < tc.members; i++ {
				if err := k.JoinGroup(gid, spawnEcho(t, b).PID()); err != nil {
					t.Fatal(err)
				}
			}
			_, err = client.Send(&proto.Message{Op: proto.OpEcho}, gid)
			if (err != nil) != (tc.members == 0) {
				t.Fatalf("send to the group: %v", err)
			}
			sends, failures, inflight := uint64(0), map[string]uint64{}, int64(-1)
			snap := reg.Snapshot()
			for _, c := range snap.Counters {
				switch c.Name {
				case "kernel_sends_total":
					sends = c.Value
				case "kernel_send_failures_total":
					if c.Value != 0 {
						failures[c.Labels.Class] = c.Value
					}
				}
			}
			for _, g := range snap.Gauges {
				if g.Name == "kernel_inflight" {
					inflight = g.Value
				}
			}
			spans := map[string]uint64{}
			for _, sp := range tr.Snapshot() {
				if sp.Kind == trace.KindSend && sp.Err != "" {
					spans[sp.Err]++
				}
			}
			if sends != 1 || inflight != 0 || !reflect.DeepEqual(failures, tc.failures) || !reflect.DeepEqual(spans, tc.failures) {
				t.Fatalf("kernel_sends_total %d, kernel_inflight %d, kernel_send_failures_total %v, failed send spans %v; want 1, 0, %v, %v",
					sends, inflight, failures, spans, tc.failures, tc.failures)
			}
		})
	}
}
