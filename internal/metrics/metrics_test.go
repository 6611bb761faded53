package metrics

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestRegistrySnapshotOrderAndTotals(t *testing.T) {
	r := New()
	r.Counter("ops_total", Labels{Server: "fs2"}).Add(3)
	r.Counter("ops_total", Labels{Server: "fs1"}).Inc()
	r.Counter("aaa_total", Labels{}).Add(7)
	r.SetGauges([]GaugePoint{{Name: "inflight", Value: 2}})
	r.SetGauges([]GaugePoint{{Name: "pool", Value: 9, Volatile: true}})
	r.Histogram("lat", Labels{Server: "fs1", Op: "Echo"}).Record(2560 * time.Microsecond)
	r.Timeline(TimelineServerUp, Labels{Host: "fs1"}).Mark(100*time.Millisecond, 0)

	s := r.Snapshot()
	var names []string
	for _, c := range s.Counters {
		names = append(names, c.Name+"/"+c.Labels.Server)
	}
	want := []string{"aaa_total/", "ops_total/fs1", "ops_total/fs2"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("counter order = %v, want %v", names, want)
	}
	if s.Counters[1].Value != 1 || s.Counters[2].Value != 3 {
		t.Fatalf("ops_total by server = %+v", s.Counters[1:])
	}
	if len(s.Gauges) != 2 || s.Gauges[0].Name != "inflight" || s.Gauges[0].Value != 2 {
		t.Fatalf("gauges = %+v", s.Gauges)
	}
	if len(s.Histograms) != 1 || s.Histograms[0].P50US != 2560 {
		t.Fatalf("histogram snapshot = %+v, want p50 2560us", s.Histograms)
	}

	det := s.Deterministic()
	if len(det.Gauges) != 1 || det.Gauges[0].Name != "inflight" {
		t.Fatalf("Deterministic() kept gauges %+v, want the volatile one dropped", det.Gauges)
	}
	if !reflect.DeepEqual(det.Counters, s.Counters) {
		t.Fatalf("Deterministic dropped counters: %d vs %d", len(det.Counters), len(s.Counters))
	}

	// Nil registry and nil instruments are no-ops throughout.
	var nr *Registry
	nr.Counter("x", Labels{}).Inc()
	nr.SetGauges([]GaugePoint{{Name: "x", Value: 1}})
	nr.Histogram("x", Labels{}).Record(1)
	nr.Timeline("x", Labels{}).Mark(0, 0)
	if got := nr.Snapshot(); len(got.Counters) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", got)
	}
}

func TestSamplerTicks(t *testing.T) {
	r := New()
	c := r.Counter("ops_total", Labels{})
	s := NewSampler(r, 10*time.Millisecond)
	s.AdvanceTo(5 * time.Millisecond) // before first tick
	if len(s.Samples()) != 0 {
		t.Fatalf("sample emitted before first tick")
	}
	c.Add(4)
	s.AdvanceTo(10 * time.Millisecond) // exactly on tick
	c.Add(6)
	s.AdvanceTo(35 * time.Millisecond) // crosses ticks 20 and 30
	got := s.Samples()
	if len(got) != 3 {
		t.Fatalf("got %d samples, want 3", len(got))
	}
	wantAt := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}
	wantTotals := []uint64{4, 10, 10}
	for i, sm := range got {
		if sm.At != wantAt[i] || sm.Total("ops_total") != wantTotals[i] {
			t.Fatalf("sample %d = at %v total %d, want at %v total %d",
				i, sm.At, sm.Total("ops_total"), wantAt[i], wantTotals[i])
		}
	}
	series := CounterSeries(got, "ops_total")
	if series[0].Value != 4 || series[1].Value != 6 || series[2].Value != 0 {
		t.Fatalf("delta series wrong: %+v", series)
	}
}

func TestHealthReportWindows(t *testing.T) {
	r := New()
	tl := r.Timeline(TimelineServerUp, Labels{Host: "fs1"})
	tl.Mark(200*time.Millisecond, 0)
	tl.Mark(300*time.Millisecond, 1)
	tl.Mark(900*time.Millisecond, 0) // still down at horizon

	samples := []Sample{
		{At: 100 * time.Millisecond, Counters: []CounterPoint{{Name: "client_retries_total", Value: 0}}},
		{At: 200 * time.Millisecond, Counters: []CounterPoint{{Name: "client_retries_total", Value: 0}}},
		{At: 300 * time.Millisecond, Counters: []CounterPoint{{Name: "client_retries_total", Value: 5}}},
		{At: 400 * time.Millisecond, Counters: []CounterPoint{{Name: "client_retries_total", Value: 7}}},
		{At: 500 * time.Millisecond, Counters: []CounterPoint{{Name: "client_retries_total", Value: 7}}},
	}
	rep := Health(r.Snapshot(), samples, time.Second, 0.9)
	if len(rep.Servers) != 1 {
		t.Fatalf("got %d servers, want 1", len(rep.Servers))
	}
	sh := rep.Servers[0]
	wantOutages := []Window{
		{From: 200 * time.Millisecond, To: 300 * time.Millisecond},
		{From: 900 * time.Millisecond, To: time.Second},
	}
	if !reflect.DeepEqual(sh.Outages, wantOutages) {
		t.Fatalf("outages = %+v, want %+v", sh.Outages, wantOutages)
	}
	if sh.Up {
		t.Fatalf("server marked up at horizon despite open outage")
	}
	if sh.DowntimeUS != 200_000 {
		t.Fatalf("downtime = %dus, want 200000", sh.DowntimeUS)
	}
	if sh.Availability != 0.8 || sh.SLOMet {
		t.Fatalf("availability %v sloMet %v, want 0.8 / violated", sh.Availability, sh.SLOMet)
	}
	// 10% budget over 1s = 100ms allowed; 200ms used => budget -1.0.
	if diff := sh.ErrorBudgetLeft + 1.0; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("error budget = %v, want -1.0", sh.ErrorBudgetLeft)
	}
	wantDegraded := []Window{{From: 200 * time.Millisecond, To: 400 * time.Millisecond}}
	if !reflect.DeepEqual(rep.Degraded, wantDegraded) {
		t.Fatalf("degraded = %+v, want %+v", rep.Degraded, wantDegraded)
	}
	var buf strings.Builder
	rep.WriteText(&buf)
	if !strings.Contains(buf.String(), "VIOLATED") || !strings.Contains(buf.String(), "outage") {
		t.Fatalf("text report missing expected lines:\n%s", buf.String())
	}
}

func TestWritePrometheus(t *testing.T) {
	r := New()
	r.Counter("ops_total", Labels{Server: "fs1", Op: "Echo"}).Add(2)
	r.SetGauges([]GaugePoint{{Name: "inflight", Value: 1}})
	r.Histogram("lat", Labels{Server: "fs1"}).Record(2560 * time.Microsecond)
	r.Timeline(TimelineServerUp, Labels{Host: "fs1"}).Mark(time.Millisecond, 0)
	var buf strings.Builder
	WritePrometheus(&buf, r.Snapshot())
	out := buf.String()
	for _, want := range []string{
		"# TYPE ops_total counter",
		`ops_total{server="fs1",op="Echo"} 2`,
		"# TYPE inflight gauge",
		"inflight 1",
		"# TYPE lat summary",
		`lat{server="fs1",quantile="0.5"} 2560000`,
		`lat_count{server="fs1"} 1`,
		`server_up{host="fs1"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

// TestSamplerNextAt pins the sampler's tick boundaries: AdvanceTo emits
// one sample per boundary passed, the next at the first boundary not yet
// emitted, and the nil sampler's probes return 0.
func TestSamplerNextAt(t *testing.T) {
	reg := New()
	s := NewSampler(reg, 10*time.Millisecond)
	s.AdvanceTo(25 * time.Millisecond)
	if got := len(s.Samples()); got != 2 {
		t.Fatalf("samples after AdvanceTo(25ms) = %d, want the 10ms and 20ms ticks", got)
	}
	s.AdvanceTo(29 * time.Millisecond)
	if got := len(s.Samples()); got != 2 {
		t.Fatalf("samples after AdvanceTo(29ms) = %d, want no tick before 30ms", got)
	}
	s.AdvanceTo(30 * time.Millisecond)
	if got := len(s.Samples()); got != 3 {
		t.Fatalf("samples after AdvanceTo(30ms) = %d, want the 30ms tick", got)
	}
	var nilS *Sampler
	if nilS.Tick() != 0 {
		t.Fatal("nil sampler probes must return 0")
	}
	if def := NewSampler(reg, 0); def.Tick() != 50*time.Millisecond {
		t.Fatalf("default tick = %v, want 50ms", def.Tick())
	}
}

func TestSetGaugesMatchesOneByOne(t *testing.T) {
	points := []GaugePoint{
		{Name: "top", Labels: Labels{Server: "pfx", Op: "bin"}, Value: 7, Volatile: true},
		{Name: "rate", Labels: Labels{Server: "pfx", Op: "bin"}, Value: -3, Volatile: true},
		{Name: "inflight", Labels: Labels{}, Value: 2},
		{Name: "top", Labels: Labels{Server: "pfx", Op: "bin"}, Value: 9, Volatile: true}, // again: the last value stands
	}
	one, batch := New(), New()
	batch.SetGauges([]GaugePoint{{Name: "inflight", Value: 40}}) // one gauge exists already
	for _, p := range points {
		one.SetGauges([]GaugePoint{p})
	}
	batch.SetGauges(points)
	if got, want := batch.Snapshot(), one.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("SetGauges left %+v, one by one %+v", got.Gauges, want.Gauges)
	}
	var none *Registry
	none.SetGauges(points) // must not panic
}

// TestPublishedCountsFromFirstEvent: a registry counts an emitter's
// events while it is installed on the emitter's catalogue, from install
// to removal or replacement, summing the emitters under one key. A
// registry removed, then installed again, counts both periods and
// nothing in between; a registry never installed counts nothing.
func TestPublishedCountsFromFirstEvent(t *testing.T) {
	a, b := New(), New()
	var cat Catalogue
	var count, other Counter
	cat.Add(func(r *Reading) {
		r.Counter("events_total", Labels{}, count.Value(), false)
		r.Counter("events_total", Labels{}, other.Value(), false)
	})
	count.Add(2)
	cat.Install(a)
	count.Add(3)
	cat.Install(b)
	count.Add(5)
	other.Add(7)
	cat.Install(a)
	count.Add(11)
	cat.Install(nil)
	count.Add(13)
	if got, want := (Sample{Counters: a.Snapshot().Counters}).Total("events_total"), uint64(3+11); got != want {
		t.Errorf("A counts %d, want %d", got, want)
	}
	if got, want := (Sample{Counters: b.Snapshot().Counters}).Total("events_total"), uint64(5+7); got != want {
		t.Errorf("B counts %d, want %d", got, want)
	}
	if got := New().Snapshot().Counters; len(got) != 0 {
		t.Errorf("a registry never installed lists %v", got)
	}
}
