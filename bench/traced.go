package main

import (
	"fmt"
	"maps"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"strings"
	"time"

	"repro/internal/metrics"
)

// counts are the layers' public counters over one repetition.
type counts struct {
	ops                          int
	hits, misses, renewals       float64 // client lease caches, summed
	prefixRequests, prefixGrants float64
	prefixInvalidations          float64
	tierHits, tierMisses         float64
	// firstLeases is how many of the prefix requests were the first lease
	// of their name, which makes the server create the name's holder group:
	// the distinct names the workload draws.
	firstLeases     float64
	sends, forwards float64 // kernel registry counters
	frames          float64
	queueWaitUS     float64 // virtual microseconds queued for the wire
	fences          float64
}

func readCounts(in *instance, ops int) counts {
	c := counts{ops: ops, firstLeases: float64(in.distinctNames)}
	l := in.layers
	for _, s := range l.sessions {
		st := s.LeaseCacheStats()
		c.hits += float64(st.Hits)
		c.misses += float64(st.Misses)
		c.renewals += float64(st.Renewals)
	}
	for _, ps := range l.prefixes {
		// A forwarded request gets no reply from the prefix server, so the
		// registry's server_requests_total (below) does not count it.
		c.prefixRequests += float64(ps.Stats().Forwards)
		ls := ps.LeaseStats()
		c.prefixGrants += float64(ls.Grants)
		c.prefixInvalidations += float64(ls.Invalidations)
	}
	if l.tier != nil {
		ts := l.tier.Stats()
		c.tierHits, c.tierMisses = float64(ts.Hits), float64(ts.Misses)
	}
	c.frames = float64(l.net.Stats().Packets)
	if l.fences != nil {
		c.fences = float64(*l.fences)
	}
	snap := l.registry.Snapshot()
	for _, p := range snap.Counters {
		switch {
		case p.Name == "kernel_sends_total":
			c.sends += float64(p.Value)
		case p.Name == "kernel_forwards_total":
			c.forwards += float64(p.Value)
		case p.Name == "server_requests_total" && strings.HasPrefix(p.Labels.Server, "context-prefix["):
			c.prefixRequests += float64(p.Value)
		}
	}
	for _, h := range snap.Histograms {
		if h.Name == "wire_queue_wait" {
			c.queueWaitUS += float64(h.SumUS)
		}
	}
	return c
}

func (c counts) perOp(v float64) float64 { return v / float64(c.ops) }

// gcSample reads the runtime's GC accounting.
type gcSample struct{ gcCPU, totalCPU, cycles float64 }

func readGC() gcSample {
	s := []rtmetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	rtmetrics.Read(s)
	return gcSample{s[0].Value.Float64(), s[1].Value.Float64(), float64(s[2].Value.Uint64())}
}

// tracedRep is what the hooks collect around one traced repetition.
type tracedRep struct {
	rep    rep
	spans  spanSummary
	counts counts
	gc     gcSample // deltas over the timed phase
	rec    *spanRecorder
}

// traceHooks returns hooks that, per repetition, install a registry where
// the topology has none, wrap the Op/Classify closures and the driver
// call in spans, and read every public counter afterwards.
func traceHooks(sink *[]tracedRep) hooks {
	var rec *spanRecorder
	var gc0 gcSample
	return hooks{
		built: func(in *instance) {
			if in.layers.registry == nil {
				reg := metrics.New()
				in.layers.kernel.SetMetrics(reg)
				in.layers.net.SetMetrics(reg)
				in.layers.registry = reg
			}
			rec = instrument(in)
			gc0 = readGC()
		},
		driven: func(in *instance, p *rep) {
			gc1 := readGC()
			*sink = append(*sink, tracedRep{
				rep: *p, spans: rec.summarize(), counts: readCounts(in, p.ops), rec: rec,
				gc: gcSample{gc1.gcCPU - gc0.gcCPU, gc1.totalCPU - gc0.totalCPU, gc1.cycles - gc0.cycles},
			})
		},
	}
}

// tracedResult is everything a traced run reports.
type tracedResult struct {
	metrics   map[string]metric
	attempted int
	failed    int
	report    []string
}

// Size divisors of the reduced side legs a traced run makes of other
// workloads, so that every traced run can report the cross-workload
// ratios within its time budget.
const (
	sideLegMissDiv = 8
	sideLegHitDiv  = 12
)

// tracedRun produces every per-layer metric for one workload: the probes'
// (run beforehand), and those of an untraced and a traced leg of the
// workload itself and of reduced side legs of other workloads for the
// cross-workload ratios.
func tracedRun(w *workload, probes probeOut, seed uint64, div int, deadline time.Time, outDir string) (*tracedResult, error) {
	t := &tracedRunner{seed: seed, div: div, deadline: deadline, traffic: probes.traffic,
		out: &tracedResult{metrics: maps.Clone(probes.metrics)}, phaseStart: time.Now()}

	// The workload itself: untraced (after a warm-up repetition), then traced.
	build := w.prepare(seed, div)
	plain, err := t.reps(w, build, repPlan{reps: 1, warm: true})
	if err != nil {
		return nil, err
	}
	var traced []tracedRep
	withSpans, err := t.reps(w, build, repPlan{reps: 1, hooks: traceHooks(&traced)})
	if err != nil {
		return nil, err
	}
	t.phase(w.name + " untraced+traced")
	tr := traced[0]
	if err := tr.rec.write(filepath.Join(outDir, w.name+".spans.json"), w.name, seed); err != nil {
		return nil, fmt.Errorf("span file: %w", err)
	}
	hostNs := plain.hostNsPerOp()
	c := tr.counts
	t.set("client.hit_ratio", ratio(c.hits, c.hits+c.misses+c.renewals), "ratio")
	t.set("client.renewals_per_op", c.perOp(c.renewals), "1/op")
	t.set("prefix.requests_per_op", c.perOp(c.prefixRequests), "1/op")
	t.set("prefix.grants_per_op", c.perOp(c.prefixGrants), "1/op")
	t.set("kernel.sends_per_op", c.perOp(c.sends), "1/op")
	t.set("kernel.forwards_per_op", c.perOp(c.forwards), "1/op")
	t.set("netsim.frames_per_op", c.perOp(c.frames), "1/op")
	t.set("netsim.queue_wait_us_sim_per_op", c.perOp(c.queueWaitUS), "us_sim")
	t.set("engine.confined_share", tr.spans.confinedShare, "ratio")
	t.set("engine.fences_fired", c.fences, "count")
	// Spans are wall time; the traced repetition's slowdown brings them to
	// the same reference-host time as host_ns_per_op. The driver span also
	// holds the calibration samples, which no operation span covers.
	spanNs := func(wall int64) float64 { return float64(wall) / tr.rep.slow / float64(tr.spans.ops) }
	t.set("client.op_span_ns", spanNs(tr.spans.opNs), "ns")
	t.set("rig.driver_self_ns_per_op", spanNs(tr.spans.driverNs-tr.spans.coveredNs-tr.rep.sampling.Nanoseconds()), "ns")
	t.set("rig.sim_backlog_ratio", tr.rep.backlog, "ratio")
	t.set("rig.sim_p50_us", float64(tr.rep.sim.P50)/1e3, "us_sim")
	t.set("runtime.gc_cpu_fraction", ratio(tr.gc.gcCPU, tr.gc.totalCPU), "ratio")
	t.set("runtime.gc_cycles_per_kop", tr.gc.cycles/float64(c.ops)*1e3, "1/kop")
	overhead := ratio(withSpans.hostNsPerOp(), hostNs)
	t.set("bench.trace_overhead_ratio", overhead, "ratio")
	if overhead >= 1.3 {
		t.say("WARNING: bench.trace_overhead_ratio %.2f >= 1.3: the spans distort what they measure", overhead)
	}
	t.reconcile(w, c, hostNs)

	if err := t.sideLegs(); err != nil {
		return nil, err
	}
	t.phase("side legs")
	return t.out, nil
}

// tracedRunner carries one traced run's accumulating result.
type tracedRunner struct {
	seed       uint64
	div        int
	deadline   time.Time
	out        *tracedResult
	traffic    map[string]traffic // of the probes that cross layers
	phaseStart time.Time
}

func (t *tracedRunner) say(format string, a ...any) {
	t.out.report = append(t.out.report, fmt.Sprintf(format, a...))
}

func (t *tracedRunner) set(name string, v float64, unit string) {
	t.out.metrics[name] = metric{v, unit}
}

func (t *tracedRunner) ns(name string) float64 { return t.out.metrics[name].Value }

// phase reports how much of the run's budget the phase just ended took.
func (t *tracedRunner) phase(name string) {
	t.say("phase %-32s %5.1f s", name, time.Since(t.phaseStart).Seconds())
	t.phaseStart = time.Now()
}

// reps runs repetitions under the run's deadline and adds their operations
// to the run's attempted and failed totals.
func (t *tracedRunner) reps(w *workload, build func() (*instance, error), plan repPlan) (*runResult, error) {
	plan.deadline = t.deadline
	r, err := runReps(w, build, plan)
	if err != nil {
		return nil, err
	}
	t.out.attempted += r.attempted()
	t.out.failed += r.failed()
	return r, nil
}

// sideLeg runs repetitions of another workload at a reduced size.
func (t *tracedRunner) sideLeg(w *workload, div, reps int, hk hooks) (*runResult, error) {
	return t.reps(w, w.prepare(t.seed, t.div*div), repPlan{reps: reps, hooks: hk})
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// reconcile rebuilds the workload's host time per operation from the
// layers' probes and the layers' own counters, and compares the sum with
// the untraced host time per operation: the wall-clock twin of experiment
// A12. Every Send and every frame the workload's counters report is
// charged to kernel and netsim at their probes' prices; a probe that
// crosses layers (a client lookup, a redefinition, a file operation)
// contributes only what is left of it after its own Sends and frames, and
// the probes nested in it, are taken off. Every term is printed, then the
// sum per layer.
func (t *tracedRunner) reconcile(w *workload, c counts, hostNs float64) {
	send := t.ns("kernel.send_local_ns")
	wire := t.ns("netsim.unicast_ns")
	// What crossing hosts adds to a transaction beyond the wire model's
	// own time, per frame (a short remote Send is two frames).
	hop := max(0, (t.ns("kernel.send_remote_ns")-send-2*wire)/2)
	// own is the named probe's time less its traffic and the nested probes.
	own := func(name string, nested ...float64) float64 {
		v := t.ns(name) - t.traffic[name].sends*send - t.traffic[name].frames*(hop+wire)
		for _, n := range nested {
			v -= n
		}
		return max(0, v)
	}
	get := t.ns("nametree.get_ns")
	serve := max(0, t.ns("core.map_context_ns")) // a difference of two timings
	firstGrant, regrant := t.ns("prefix.first_grant_ns"), t.ns("prefix.resolve_ns")
	hitOwn := own("client.lease_hit_ns", serve)

	lookups := c.perOp(c.hits + c.misses + c.renewals)
	// Lease requests the prefix server answers itself. paper_fileio's are
	// forwards, which its file-operation probes already contain.
	requests := c.perOp(c.prefixRequests)
	if !w.openLoop {
		requests = 0
	}
	first := min(c.perOp(c.firstLeases), requests)
	redefines := c.perOp(c.prefixInvalidations) / 2 // a redefinition commits a delete and an add
	gated := 0.0
	if w.engine {
		gated = 1
	}
	fileOps := 0.0
	if !w.openLoop { // paper_fileio: four operation kinds in equal shares
		fileOps = 1.0 / fileioOpKinds
	}
	terms := []struct {
		layer, name string
		perOp       float64
		callNs      float64
	}{
		{"kernel", "kernel.send_local_ns", c.perOp(c.sends), send},
		{"kernel", "kernel: remote extra per frame", c.perOp(c.frames), hop},
		{"netsim", "netsim.unicast_ns", c.perOp(c.frames), wire},
		{"prefix", "prefix.first_grant_ns less its descent", first, max(0, firstGrant-get)},
		{"prefix", "prefix.resolve_ns less its descent", requests - first, max(0, regrant-get)},
		{"prefix", "prefix.redefine_ns own", redefines, own("prefix.redefine_ns")},
		{"nametree", "nametree.get_ns (server's descent)", requests, get},
		{"nametree", "nametree.insert_ns + delete_ns", redefines, t.ns("nametree.insert_ns") + t.ns("nametree.delete_ns")},
		{"core", "core.map_context_ns (leased server)", lookups, serve},
		{"core", "core.serve_team1_ns own (Query)", fileOps, own("core.serve_team1_ns")},
		{"client", "client.lease_hit_ns own (every lookup)", lookups, hitOwn},
		{"client", "client.lease_miss_ns own, above a hit", c.perOp(c.misses), max(0, own("client.lease_miss_ns", firstGrant, serve)-hitOwn)},
		{"client", "client.lease_renew_ns own, above a hit", c.perOp(c.renewals), max(0, own("client.lease_renew_ns", regrant, serve)-hitOwn)},
		{"client", "client.leased_route_ns (classifier)", gated * lookups, t.ns("client.leased_route_ns")},
		{"engine", "engine.gate_uncontended_ns (hits)", gated * c.perOp(c.hits), t.ns("engine.gate_uncontended_ns")},
		{"engine", "engine.gate_contended_ns (misses)", gated * c.perOp(c.misses+c.renewals), t.ns("engine.gate_contended_ns")},
		{"fileserver", "fileserver.open_read4k_ns own", fileOps, own("fileserver.open_read4k_ns")},
		{"fileserver", "fileserver.write1k_ns own", fileOps, own("fileserver.write1k_ns")},
		{"fileserver", "fileserver.list100_ns own", fileOps, own("fileserver.list100_ns")},
	}
	sum := 0.0
	layerNs := map[string]float64{}
	t.say("bench.reconcile_ratio terms for %s (calls/op x reference-host ns):", w.name)
	for _, term := range terms {
		if term.perOp == 0 {
			continue
		}
		ns := term.perOp * term.callNs
		sum += ns
		layerNs[term.layer] += ns
		t.say("  %-40s %8.4f x %10.1f = %10.1f ns", term.name, term.perOp, term.callNs, ns)
	}
	r := ratio(sum, hostNs)
	t.set("bench.reconcile_ratio", r, "ratio")
	t.say("  sum %.1f ns / untraced host_ns_per_op %.1f ns = %.3f (in no layer's probe: %.1f ns)", sum, hostNs, r, hostNs-sum)
	if r < 0.7 || r > 1.3 {
		t.say("  WARNING: reconcile ratio outside [0.7, 1.3]: the probes do not account for this workload's host time")
	}
	layers := make([]string, 0, len(layerNs))
	for l := range layerNs {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return layerNs[layers[i]] > layerNs[layers[j]] })
	line := fmt.Sprintf("layers of %s, by share of the sum:", w.name)
	for _, l := range layers {
		line += fmt.Sprintf(" %s %.1f%%", l, 100*layerNs[l]/sum)
	}
	t.say("%s", line)
}

// sideLegs runs other workloads at reduced size for the ratios that span
// workloads: observers on / off, the ncache tier's hit ratio, and the
// engine's multi-core scaling.
func (t *tracedRunner) sideLegs() error {
	miss, _ := workloadByName("resolve_miss")
	observed, _ := workloadByName("resolve_observed")
	off, err := t.sideLeg(miss, sideLegMissDiv, 1, hooks{})
	if err != nil {
		return err
	}
	on, err := t.sideLeg(observed, sideLegMissDiv, 1, hooks{})
	if err != nil {
		return err
	}
	t.set("observers.on_off_ratio", ratio(on.hostNsPerOp(), off.hostNsPerOp()), "ratio")
	t.say("observers.on_off_ratio: resolve_observed %.0f ns/op / resolve_miss %.0f ns/op at 1/%d size",
		on.hostNsPerOp(), off.hostNsPerOp(), t.div*sideLegMissDiv)

	tiered := missShape
	tiered.tier = true
	var tierReps []tracedRep
	if _, err := t.sideLeg(tiered.workload("resolve_miss+tier"), sideLegMissDiv, 1, traceHooks(&tierReps)); err != nil {
		return err
	}
	tc := tierReps[0].counts
	t.set("ncache.hit_ratio", ratio(tc.tierHits, tc.tierHits+tc.tierMisses), "ratio")

	// Wall time here: CPU time adds up across cores.
	hit, _ := workloadByName("resolve_hit")
	procs := min(runtime.NumCPU(), 4)
	p1, err := t.sideLeg(hit, sideLegHitDiv, 3, hooks{})
	if err != nil {
		return err
	}
	prev := runtime.GOMAXPROCS(procs)
	pN, err := t.sideLeg(hit, sideLegHitDiv, 3, hooks{})
	runtime.GOMAXPROCS(prev)
	if err != nil {
		return err
	}
	t.set("engine.speedup_pN", ratio(p1.wallNsPerOp(), pN.wallNsPerOp()), "ratio")
	t.say("engine.speedup_pN: N=%d, resolve_hit at 1/%d size, wall ns/op at GOMAXPROCS=1 %v, at %d %v",
		procs, t.div*sideLegHitDiv, eachWallNsPerOp(p1), procs, eachWallNsPerOp(pN))
	return nil
}

// eachWallNsPerOp lists every repetition's wall ns/op, for the report.
func eachWallNsPerOp(r *runResult) []int64 {
	var v []int64
	for _, p := range r.reps {
		v = append(v, p.wall.Nanoseconds()/int64(p.ops))
	}
	return v
}
