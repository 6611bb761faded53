package client

import (
	"testing"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/proto"
	"repro/internal/raceflag"
	"repro/internal/vtime"
)

// TestUntracedRetryZeroAlloc pins the retry loop's span names to lazy
// ones: with no tracer installed, an operation that fails once, backs
// off, rebinds and succeeds formats no "backoff 1" / "attempt 2" string —
// the recovery policy itself allocates nothing, counters included.
func TestUntracedRetryZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("AllocsPerRun counts the race detector's own allocations")
	}
	k := kernel.New(netsim.New(vtime.DefaultModel(), 1))
	k.SetMetrics(metrics.New())
	proc, err := k.NewHost("ws").NewProcess("program")
	if err != nil {
		t.Fatal(err)
	}
	s := New(proc, kernel.NilPID, core.ContextPair{}, "user")
	s.EnableResilience(DefaultRetryPolicy())
	ok := &proto.Message{Op: proto.ReplyOK}
	calls := 0
	attempt := func() (*proto.Message, error) {
		if calls++; calls%2 == 1 {
			return nil, proto.ErrTimeout
		}
		return ok, nil
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := s.withRecovery("", attempt); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("an untraced retried op allocates %.1f times, want 0", allocs)
	}
	if st := recovery(s); st[0] == 0 || st[2] != st[0] {
		t.Fatalf("the op was not retried: retries, rebinds, failovers = %v", st)
	}
}
