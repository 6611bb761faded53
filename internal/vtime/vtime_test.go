package vtime

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestClockZeroValue(t *testing.T) {
	var c Clock
	if got := c.Now(); got != 0 {
		t.Fatalf("zero clock Now() = %v, want 0", got)
	}
}

func TestClockAdvance(t *testing.T) {
	var c Clock
	if got := c.Advance(5 * time.Millisecond); got != 5*time.Millisecond {
		t.Fatalf("Advance = %v, want 5ms", got)
	}
	if got := c.Advance(3 * time.Millisecond); got != 8*time.Millisecond {
		t.Fatalf("Advance = %v, want 8ms", got)
	}
}

func TestClockAdvanceNegativeIsNoop(t *testing.T) {
	var c Clock
	c.Advance(10 * time.Millisecond)
	if got := c.Advance(-4 * time.Millisecond); got != 10*time.Millisecond {
		t.Fatalf("Advance(-4ms) = %v, want clock unchanged at 10ms", got)
	}
}

func TestClockObserve(t *testing.T) {
	var c Clock
	c.Advance(10 * time.Millisecond)
	if got := c.Observe(4 * time.Millisecond); got != 10*time.Millisecond {
		t.Fatalf("Observe(earlier) = %v, want 10ms", got)
	}
	if got := c.Observe(25 * time.Millisecond); got != 25*time.Millisecond {
		t.Fatalf("Observe(later) = %v, want 25ms", got)
	}
}

// TestClockObserveAndAdvance: a receive observes the arrival time, then
// the handling is charged on top — max(now, arrival) + charge.
func TestClockObserveAndAdvance(t *testing.T) {
	var c Clock
	c.Advance(2 * time.Millisecond)
	c.Observe(7 * time.Millisecond)
	if got := c.Advance(1 * time.Millisecond); got != 8*time.Millisecond {
		t.Fatalf("observe 7ms, advance 1ms = %v, want 8ms", got)
	}
	c.Observe(3 * time.Millisecond)
	if got := c.Advance(1 * time.Millisecond); got != 9*time.Millisecond {
		t.Fatalf("observe an earlier 3ms, advance 1ms = %v, want 9ms", got)
	}
}

func TestClockMonotonicProperty(t *testing.T) {
	// Property: no sequence of Advance/Observe calls ever moves a clock
	// backwards.
	f := func(steps []int64) bool {
		var c Clock
		prev := c.Now()
		for i, s := range steps {
			d := time.Duration(s % int64(time.Second))
			var now Time
			if i%2 == 0 {
				now = c.Advance(d)
			} else {
				now = c.Observe(Time(d))
			}
			if now < prev {
				return false
			}
			prev = now
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestClockConcurrentSafety(t *testing.T) {
	var c Clock
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Advance(time.Microsecond)
				c.Observe(c.Now())
			}
		}()
	}
	wg.Wait()
	if got := c.Now(); got < 8*1000*time.Microsecond {
		t.Fatalf("concurrent advances lost updates: %v", got)
	}
}

// TestCalibrationRemoteTransaction pins the headline calibration: a 32-byte
// Send-Receive-Reply between processes on separate hosts costs two remote
// hops, which must land on the paper's measured 2.56 ms (±2%).
func TestCalibrationRemoteTransaction(t *testing.T) {
	m := DefaultModel()
	rtt := 2 * m.RemoteHop(32)
	paper := 2560 * time.Microsecond
	if diff := rtt - paper; diff < -paper/50 || diff > paper/50 {
		t.Fatalf("32-byte remote transaction = %v, want %v ±2%%", rtt, paper)
	}
}

// TestCalibrationProgramLoad pins the 64 KB MoveTo calibration: the paper
// measured 338 ms, within 13 percent of the maximum packet write rate.
func TestCalibrationProgramLoad(t *testing.T) {
	m := DefaultModel()
	moved := m.RemoteHop(64 * 1024)
	paper := 338 * time.Millisecond
	if diff := moved - paper; diff < -paper/20 || diff > paper/20 {
		t.Fatalf("64 KB MoveTo = %v, want %v ±5%%", moved, paper)
	}
	floor := m.RemoteHopFloor(64 * 1024)
	overhead := float64(moved-floor) / float64(floor)
	if overhead < 0.05 || overhead > 0.20 {
		t.Fatalf("MoveTo overhead over driver floor = %.1f%%, want near the paper's 13%%", overhead*100)
	}
}

func TestWireTimeMinimumFrame(t *testing.T) {
	m := DefaultModel()
	// A tiny payload still occupies a minimum-size Ethernet frame.
	if m.WireTime(1) != m.WireTime(4) {
		t.Fatalf("payloads below the minimum frame should cost the same wire time")
	}
	if m.WireTime(512) <= m.WireTime(64) {
		t.Fatalf("larger frames must cost more wire time")
	}
}

func TestRemoteHopPacketization(t *testing.T) {
	m := DefaultModel()
	one := m.RemoteHop(m.MaxDataPerPacket)
	two := m.RemoteHop(m.MaxDataPerPacket + 1)
	if two <= one {
		t.Fatalf("crossing the packet boundary must add a packet: %v vs %v", one, two)
	}
	// Exactly two full packets cost exactly twice one full packet.
	if got, want := m.RemoteHop(2*m.MaxDataPerPacket), 2*one; got != want {
		t.Fatalf("two full packets = %v, want %v", got, want)
	}
}

func TestRemoteHopMonotonicInSize(t *testing.T) {
	m := DefaultModel()
	f := func(a, b uint16) bool {
		x, y := int(a), int(b)
		if x > y {
			x, y = y, x
		}
		return m.RemoteHop(x) <= m.RemoteHop(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLocalHopCheaperThanRemote(t *testing.T) {
	m := DefaultModel()
	for _, n := range []int{0, 32, 512, 4096} {
		if m.LocalHop(n) >= m.RemoteHop(n) {
			t.Fatalf("local hop (%d bytes) should be cheaper than remote", n)
		}
	}
}

func TestRemoteHopFloorBelowHop(t *testing.T) {
	m := DefaultModel()
	f := func(n uint32) bool {
		b := int(n % (1 << 20))
		if b == 0 {
			b = 1
		}
		return m.RemoteHopFloor(b) < m.RemoteHop(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMillisecondsFormat(t *testing.T) {
	if got := Milliseconds(2560 * time.Microsecond); got != "2.56 ms" {
		t.Fatalf("Milliseconds = %q, want \"2.56 ms\"", got)
	}
	if got := Milliseconds(0); got != "0.00 ms" {
		t.Fatalf("Milliseconds(0) = %q", got)
	}
}

func TestNameParseLinear(t *testing.T) {
	m := DefaultModel()
	if m.NameParse(0) != 0 {
		t.Fatal("parsing an empty name costs nothing")
	}
	if m.NameParse(20) != 2*m.NameParse(10) {
		t.Fatal("name parse cost must be linear in length")
	}
}

func TestModel10MbitFasterWire(t *testing.T) {
	m3, m10 := DefaultModel(), Model10Mbit()
	if m10.RemoteHop(512) >= m3.RemoteHop(512) {
		t.Fatal("10 Mbit hops must be faster")
	}
	// Per-packet fixed costs are unchanged: small messages barely improve
	// (CPU-bound), bulk transfers improve a lot (wire-bound).
	smallGain := float64(m3.RemoteHop(32)) / float64(m10.RemoteHop(32))
	bulkGain := float64(m3.RemoteHop(64*1024)) / float64(m10.RemoteHop(64*1024))
	if smallGain > 1.25 {
		t.Fatalf("small-message gain %.2fx should be modest (CPU-bound)", smallGain)
	}
	if bulkGain < 1.5 {
		t.Fatalf("bulk gain %.2fx should be substantial (wire-bound)", bulkGain)
	}
}
