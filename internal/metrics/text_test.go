package metrics

import (
	"strings"
	"testing"
	"time"

	"repro/internal/vtime"
)

func textFixture() (*Registry, *Sampler) {
	reg := New()
	s := NewSampler(reg, 50*time.Millisecond)
	reg.Counter("ops_total", Labels{Server: "fs1"}).Inc()
	s.AdvanceTo(60 * time.Millisecond)
	reg.Counter("ops_total", Labels{Server: "fs1"}).Add(2)
	reg.SetGauges([]GaugePoint{{Name: "inflight", Value: 3}})
	reg.SetGauges([]GaugePoint{{Name: "pool_size", Value: 7, Volatile: true}})
	reg.Histogram("latency", Labels{Server: "fs1", Op: "Read"}).Record(vtime.Time(2560 * time.Microsecond))
	reg.Timeline("server_up", Labels{Host: "fs1"}).Mark(100*time.Millisecond, 0)
	s.AdvanceTo(120 * time.Millisecond)
	return reg, s
}

func TestWriteTextRendersEveryKind(t *testing.T) {
	reg, _ := textFixture()
	var sb strings.Builder
	reg.Snapshot().WriteText(&sb)
	out := sb.String()
	for _, want := range []string{
		"counters:",
		`ops_total{server="fs1"}`,
		"pool_size",
		"(volatile)",
		"gauges:",
		"inflight",
		"histograms:",
		`latency{server="fs1",op="Read"}`,
		"2.56 ms",
		"timelines:",
		`server_up{host="fs1"}`,
		"100.00 ms=0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("WriteText missing %q:\n%s", want, out)
		}
	}
}

func TestWriteDiffsPerTickDeltas(t *testing.T) {
	_, s := textFixture()
	if s.Tick() != 50*time.Millisecond {
		t.Fatalf("tick = %v", s.Tick())
	}
	var sb strings.Builder
	WriteDiffs(&sb, s.Samples())
	out := sb.String()
	// First tick saw one increment, second the +2.
	for _, want := range []string{
		`t=50.00 ms`,
		`ops_total{server="fs1"} +1`,
		`t=100.00 ms`,
		`ops_total{server="fs1"} +2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("WriteDiffs missing %q:\n%s", want, out)
		}
	}
}

func TestWriteDiffsIdleTick(t *testing.T) {
	reg := New()
	s := NewSampler(reg, 50*time.Millisecond)
	s.AdvanceTo(60 * time.Millisecond)
	var sb strings.Builder
	WriteDiffs(&sb, s.Samples())
	if !strings.Contains(sb.String(), "(idle)") {
		t.Fatalf("idle tick not marked:\n%s", sb.String())
	}
}
