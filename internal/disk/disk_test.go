package disk

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/vtime"
)

func TestFetchIdleDisk(t *testing.T) {
	d := New(15 * time.Millisecond)
	if got := d.Fetch(100 * time.Millisecond); got != 115*time.Millisecond {
		t.Fatalf("Fetch = %v", got)
	}
}

func TestFetchSerializesOnArm(t *testing.T) {
	d := New(15 * time.Millisecond)
	first := d.Fetch(0)
	second := d.Fetch(0) // issued while the arm is busy
	if first != 15*time.Millisecond || second != 30*time.Millisecond {
		t.Fatalf("fetches = %v, %v", first, second)
	}
	// A request issued after the arm went idle starts immediately.
	third := d.Fetch(100 * time.Millisecond)
	if third != 115*time.Millisecond {
		t.Fatalf("third = %v", third)
	}
}

func TestStats(t *testing.T) {
	d := New(15 * time.Millisecond)
	d.Fetch(0)
	d.Fetch(0)
	n, busy := d.Stats()
	if n != 2 || busy != 30*time.Millisecond {
		t.Fatalf("stats = %d, %v", n, busy)
	}
}

func TestFetchMonotone(t *testing.T) {
	// Property: completion times never decrease, and each fetch takes at
	// least one page time after its issue time.
	f := func(issues []uint32) bool {
		d := New(15 * time.Millisecond)
		var prev vtime.Time
		for _, raw := range issues {
			at := vtime.Time(raw % 1000000)
			done := d.Fetch(at)
			if done < prev || done < at+15*time.Millisecond {
				return false
			}
			prev = done
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestThroughputBound(t *testing.T) {
	// Back-to-back fetches deliver exactly one page per page time.
	d := New(15 * time.Millisecond)
	var last vtime.Time
	for i := 0; i < 100; i++ {
		last = d.Fetch(0)
	}
	if last != 100*15*time.Millisecond {
		t.Fatalf("100 pages took %v", last)
	}
}
