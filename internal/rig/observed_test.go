package rig

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/proto"
	"repro/internal/raceflag"
	"repro/internal/trace"
)

// observedZipf boots the ledger's resolve_observed shape at 10⁴ names —
// every observer on when observed: the sampled tracer, a registry on
// kernel and network, flight seals at one fence per virtual second — and
// returns it with the function that drives requests [from, from+n) of
// every client.
func observedZipf(t *testing.T, observed bool, arrivals int) (*Topology, *metrics.Registry, func(from, n int) *WorkloadResult) {
	t.Helper()
	cfg := ZipfConfig{Population: 10_000, Skew: 0.5, Shards: 4, ClientsPerShard: 2, Arrivals: arrivals,
		Interarrival: 56 * time.Millisecond, Lease: 20 * time.Millisecond, Seed: 42}
	var reg *metrics.Registry
	var opts EngineOptions
	if observed {
		cfg.TraceSample = &trace.SampleConfig{HeadEvery: 32, SlowOver: 50 * time.Millisecond}
	}
	zw, err := NewZipfWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if observed {
		reg = metrics.New()
		zw.Kernel.SetMetrics(reg)
		zw.Net.SetMetrics(reg)
		opts.Fences = SealFlightAtFences(engine.Fences{Next: func(after time.Duration) (time.Duration, bool) {
			return (after/time.Second + 1) * time.Second, true
		}}, zw.Flight)
	}
	type program struct {
		op       func(*client.Session, int) error
		arrive   func(int) time.Duration
		classify func(*client.Session, int) engine.Class
	}
	programs := make([]program, len(zw.Clients))
	for i, c := range zw.Clients {
		programs[i] = program{c.Op, c.Arrive, c.Classify}
	}
	return zw, reg, func(from, n int) *WorkloadResult {
		for i, c := range zw.Clients {
			p := programs[i]
			c.Requests = n
			c.Op = func(s *client.Session, iter int) error { return p.op(s, from+iter) }
			c.Arrive = func(iter int) time.Duration { return p.arrive(from + iter) }
			c.Classify = func(s *client.Session, iter int) engine.Class { return p.classify(s, from+iter) }
		}
		res := RunWorkloadEngine(zw.Clients, opts)
		for ci, st := range res.Clients {
			if st.Errors != 0 || st.Completed != n {
				t.Fatalf("client %d: %d of %d completed, %d failed", ci, st.Completed, n, st.Errors)
			}
		}
		return res
	}
}

// TestObservedOpFootprint is the ceiling on what observing an operation
// allocates: the same seed driven observed and unobserved, the difference
// in bytes allocated per operation. An observed event costs what it keeps
// — a retained span in its chunk, a sealed event in its — so the ceiling
// sits 10% above the 292 B measured; with retention in one growing slice
// and a doubling journal it measured 735 B.
func TestObservedOpFootprint(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector's shadow allocations are not the repository's")
	}
	const arrivals, maxBytes = 1_500, 320
	perOp := func(observed bool) float64 {
		_, _, drive := observedZipf(t, observed, arrivals)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res := drive(0, arrivals)
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(res.Requests)
	}
	on, off := perOp(true), perOp(false)
	t.Logf("allocated per operation: %.0f B observed, %.0f B unobserved", on, off)
	if on-off > maxBytes {
		t.Fatalf("observing an operation allocates %.0f B, ceiling %d", on-off, maxBytes)
	}
}

// TestSteadyStateResolvesNoSeries pins "the registry reads; emitters
// count": once every emitter has seen each of its ops, 10³ more
// operations look nothing up in the registry by label and list no new
// series. Failures are emitters' events too: between the drives a session
// under a retry policy queries a server whose host has crashed, and one
// whose server answers NotFound, and their failure series move by what
// the policy and the server count, with no lookup either.
func TestSteadyStateResolvesNoSeries(t *testing.T) {
	const warm, more, failing = 500, 125, 5
	const attempts = 3
	zw, reg, drive := observedZipf(t, true, warm+more)
	probe, err := zw.Kernel.NewHost("probe").NewProcess("prober")
	if err != nil {
		t.Fatal(err)
	}
	gone := zw.Kernel.NewHost("gone")
	dead, err := gone.NewProcess("server")
	if err != nil {
		t.Fatal(err)
	}
	gone.Crash()
	s := client.New(probe, zw.Prefix.PID(), zw.Shards[0].RootPair(), "prober")
	s.EnableResilience(client.RetryPolicy{MaxAttempts: attempts, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond})
	fail := func() {
		for i := 0; i < failing; i++ {
			s.SetCurrent(core.ContextPair{Server: dead.PID(), Ctx: core.CtxDefault})
			if _, err := s.Query("x"); !errors.Is(err, kernel.ErrNonexistentProcess) {
				t.Fatalf("query on the crashed host: %v", err)
			}
			s.SetCurrent(zw.Shards[0].RootPair())
			if _, err := s.Query("no-such-name"); !errors.Is(err, proto.ErrNotFound) {
				t.Fatalf("query of a missing name: %v", err)
			}
		}
	}
	failures := func() [3]uint64 {
		return [3]uint64{countOf(reg, "kernel_send_failures_total", metrics.Labels{Class: "nonexistent-process"}),
			countOf(reg, "server_failures_total", metrics.Labels{Server: zw.Shards[0].Proc().Name(), Op: proto.OpQueryObject.String()}),
			countOf(reg, "client_retries_total", metrics.Labels{Server: "prober"})}
	}
	drive(0, warm)
	fail()
	series := func() (names []string) {
		s := reg.Snapshot()
		for _, c := range s.Counters {
			names = append(names, c.Name+c.Labels.Server+c.Labels.Op+c.Labels.Class)
		}
		for _, h := range s.Histograms {
			names = append(names, h.Name+h.Labels.Server+h.Labels.Op)
		}
		return names
	}
	before, lookups, failed := series(), reg.Lookups(), failures()
	if res := drive(warm, more); res.Requests != 8*more {
		t.Fatalf("ran %d requests", res.Requests)
	}
	fail()
	if got := reg.Lookups() - lookups; got != 0 {
		t.Fatalf("%d steady-state operations and %d failing ones did %d registry lookups", 8*more, 2*failing, got)
	}
	if after := series(); !reflect.DeepEqual(after, before) || len(before) == 0 {
		t.Fatalf("steady state created series: %d before, %d after", len(before), len(after))
	}
	// Each query on the crashed host fails every attempt's Send and
	// retries all but the last; each NotFound is one failed answer.
	if got, want := failures(), [3]uint64{failed[0] + attempts*failing, failed[1] + failing, failed[2] + (attempts-1)*failing}; got != want {
		t.Fatalf("send failures, server failures, retries = %v, want %v", got, want)
	}
}

// TestSampledRetentionIndependentOfGOMAXPROCS: which roots a sampled
// tracer keeps follows from each process's program order and the virtual
// clocks, never from how the engine's lanes happen to interleave. The
// observedZipf shape driven at one P and at four keeps the same roots —
// by process, start, name and the shape of the subtree under each — and
// both traces pass the checker. The ids they export may differ: they
// number spans in the order the lanes created them.
func TestSampledRetentionIndependentOfGOMAXPROCS(t *testing.T) {
	const arrivals = 300
	retained := func(procs int) []string {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		zw, _, drive := observedZipf(t, true, arrivals)
		drive(0, arrivals)
		if err := zw.CheckTrace(); err != nil {
			t.Fatalf("GOMAXPROCS %d: %v", procs, err)
		}
		return rootShapes(zw.Tracer.Snapshot())
	}
	one, four := retained(1), retained(4)
	if len(one) == 0 || !reflect.DeepEqual(one, four) {
		t.Fatalf("kept %d roots at GOMAXPROCS 1 and %d at 4, or different ones", len(one), len(four))
	}
}

// rootShapes renders each root of spans with its subtree and no ids:
// every span in creation order as its process, kind, name, times, class,
// wire bytes, and its own and its parent's place in that order — the
// root first, so each entry leads with the root's process, name and
// start.
func rootShapes(spans []trace.Span) []string {
	root := map[trace.SpanID]trace.SpanID{}
	place := map[trace.SpanID]int{}
	shape := map[trace.SpanID]*strings.Builder{}
	size := map[trace.SpanID]int{}
	for _, sp := range spans { // id order: a parent before its children
		r, up := sp.ID, -1
		if sp.Parent != 0 {
			r, up = root[sp.Parent], place[sp.Parent]
		}
		if shape[r] == nil {
			shape[r] = new(strings.Builder)
		}
		root[sp.ID], place[sp.ID] = r, size[r]
		size[r]++
		fmt.Fprintf(shape[r], "%s@%d %s %q %d-%d %s %dB %d<%d;", sp.Proc, sp.PID, sp.Kind, sp.Name,
			sp.Start, sp.End, sp.Err, sp.Bytes, place[sp.ID], up)
	}
	out := make([]string, 0, len(shape))
	for _, b := range shape {
		out = append(out, b.String())
	}
	sort.Strings(out)
	return out
}

// TestObserversOnlyWhereRead pins where Boot installs the flight ring
// and the prefix server's hot-name sketch: beside something that reads
// them — a tracer, a fault schedule, the lease auto-tuner, the Paper
// testbed — and nowhere else. Leaving them out changes no result: an
// unobserved Zipf run's result and latencies equal the sampled run's.
func TestObserversOnlyWhereRead(t *testing.T) {
	zipf := Scenario{Kind: Zipf, Population: 1000, Skew: 0.5, PopSeed: 1, Shards: 2, ClientsPerShard: 2,
		Requests: 200, Interarrival: 20 * time.Millisecond, Lease: 5 * time.Millisecond, Seed: 3}
	traced, sampled, faulted, tuned := zipf, zipf, zipf, zipf
	traced.Trace = true
	sampled.TraceSample = &trace.SampleConfig{HeadEvery: 32, SlowOver: 50 * time.Millisecond}
	faulted.Faults = []chaos.Event{{At: 100 * time.Millisecond, Action: chaos.SetLoss}}
	tuned.AutoTuneMax = 80 * time.Millisecond
	type run struct {
		res *WorkloadResult
		ev  Evidence
	}
	runs := map[string]run{}
	for _, c := range []struct {
		name     string
		sc       Scenario
		observed bool
	}{
		{"zipf", zipf, false}, {"shared-prefix", sharedPrefixShape, false},
		{"trace", traced, true}, {"sampled", sampled, true}, {"faults", faulted, true},
		{"auto-tune", tuned, true}, {"paper", Scenario{Kind: Paper, Users: []string{"mann"}, Seed: 1, Requests: 10}, true},
	} {
		res, ev := mustRun(t, c.sc)
		runs[c.name] = run{res, ev}
		pfx := ev.Topology.Prefix
		if c.sc.Kind == Paper {
			pfx = ev.Topology.WS[0].Prefix
		}
		ring, names := ev.Topology.Flight != nil, len(pfx.TopNames())
		if ring != c.observed || (names > 0) != c.observed {
			t.Errorf("%s: flight ring %v, %d hot names; want both only if observed (%v)", c.name, ring, names, c.observed)
		}
	}
	plain, observed := runs["zipf"], runs["sampled"]
	if !reflect.DeepEqual(plain.res, observed.res) || !reflect.DeepEqual(plain.ev.Topology.Latencies, observed.ev.Topology.Latencies) {
		t.Fatal("the unobserved Zipf run's result or latencies differ from the sampled run's")
	}
}
