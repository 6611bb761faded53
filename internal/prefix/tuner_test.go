package prefix

import (
	"testing"
	"time"

	"repro/internal/lease"
	"repro/internal/namestat"
)

// TestAutoTunerGrowth: quiet names double per grant from min to max and
// stay capped there.
func TestAutoTunerGrowth(t *testing.T) {
	s := &Server{leases: new(lease.Meter)}
	WithLeaseAutoTune(20*time.Millisecond, 320*time.Millisecond)(s)
	names := namestat.NewTopK(32)

	want := []time.Duration{20, 40, 80, 160, 320, 320, 320}
	for i, w := range want {
		got := s.tuner.leaseFor("[a]", names)
		if got != w*time.Millisecond {
			t.Fatalf("grant %d: lease = %v, want %v", i, got, w*time.Millisecond)
		}
	}
	if got := s.TunedLease("[a]"); got != 320*time.Millisecond {
		t.Fatalf("TunedLease after growth = %v, want 320ms", got)
	}
	// A name never granted sits at the floor.
	if got := s.TunedLease("[b]"); got != 20*time.Millisecond {
		t.Fatalf("TunedLease of fresh name = %v, want 20ms", got)
	}
}

// TestAutoTunerSharpDecrease: a redefinition resets the name to the
// floor, and the non-decaying EWMA keeps it there while churn is recent.
func TestAutoTunerSharpDecrease(t *testing.T) {
	s := &Server{leases: new(lease.Meter)}
	WithLeaseAutoTune(20*time.Millisecond, 320*time.Millisecond)(s)
	names := namestat.NewTopK(32)
	// The sketch keeps churn estimators for the names it has seen resolve.
	names.ObserveResolution("[a]", 0)

	for i := 0; i < 5; i++ {
		s.tuner.leaseFor("[a]", names)
	}
	if got := s.TunedLease("[a]"); got != 320*time.Millisecond {
		t.Fatalf("pre-churn lease = %v, want 320ms", got)
	}

	// Two redefinitions 10ms apart: instantaneous rate 100 Hz >> 1 Hz.
	names.ObserveRedefinition("[a]", 500*time.Millisecond)
	s.tuner.observeRedefinition("[a]")
	names.ObserveRedefinition("[a]", 510*time.Millisecond)
	s.tuner.observeRedefinition("[a]")

	if got := s.TunedLease("[a]"); got != 20*time.Millisecond {
		t.Fatalf("post-churn lease = %v, want floor 20ms", got)
	}
	// While the churn estimate is hot the lease is granted at the floor
	// and not re-grown.
	for i := 0; i < 3; i++ {
		if got := s.tuner.leaseFor("[a]", names); got != 20*time.Millisecond {
			t.Fatalf("hot grant %d = %v, want 20ms", i, got)
		}
	}
}

// TestAutoTunerBoundsAndFallback: max is clamped to min, and a
// tuner-less server reports its fixed length.
func TestAutoTunerBoundsAndFallback(t *testing.T) {
	s := &Server{leases: new(lease.Meter)}
	WithLeaseAutoTune(80*time.Millisecond, 20*time.Millisecond)(s)
	if s.tuner.min != 80*time.Millisecond || s.tuner.max != 80*time.Millisecond {
		t.Fatalf("bounds = [%v, %v], want clamped [80ms, 80ms]", s.tuner.min, s.tuner.max)
	}

	fixed := &Server{}
	WithLease(50 * time.Millisecond)(fixed)
	if got := fixed.TunedLease("[x]"); got != 50*time.Millisecond {
		t.Fatalf("fixed TunedLease = %v, want 50ms", got)
	}
	if fixed.tuner != nil {
		t.Fatal("a fixed lease installed a tuner")
	}
	if s.tuner.leaseFor("[a]", nil) != 80*time.Millisecond {
		t.Fatalf("a nil sketch should still grant the current lease")
	}
}
