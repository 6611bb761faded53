package experiments

// A19 measures the population-scale observability layer (PROTOCOL.md
// §15) and the lease auto-tuner it enables. Four legs:
//
//   - a hot-name analytics leg: the space-saving top-k sketch is run
//     against exact counts on a Zipf draw stream — every name the
//     sketch guarantees (true count > draws/k) must be recalled, and
//     every estimate must sit inside [true, true+err];
//
//   - a churn-estimator leg: the event-driven EWMA is fed a fixed
//     cadence and must converge to the analytic rate exactly;
//
//   - a sampled-tracing leg: the A12 echo decomposition re-read from a
//     sampled tracer must agree with the full tracer span for span,
//     and the open-loop Zipf workload run under head sampling must
//     retain O(k) spans while the flight recorder journals the run's
//     naming events at zero virtual cost;
//
//   - an auto-tune leg: the A17 partition schedule, preceded by two
//     redefinitions that train the tuner, run under each fixed lease
//     of the A17 sweep and under the auto-tuner — the tuned run must
//     beat at least one fixed point on the (hit rate, widest stale
//     window) frontier, with every stale window bounded by the cap
//     (trace invariant #7 with max in place of the fixed length).
//
// Everything here is virtual time: BENCH_obs.json is byte-identical
// across runs and pinned by golden-guard.

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/chaos"
	"repro/internal/flight"
	"repro/internal/namestat"
	"repro/internal/popgen"
	"repro/internal/rig"
	"repro/internal/trace"
)

// a19 shapes.
const (
	// Top-k sketch leg.
	a19TopKPop     = 5_000
	a19TopKDraws   = 50_000
	a19TopKK       = 48
	a19TopKSkew    = 0.99
	a19TopKPopSeed = 1
	a19TopKStream  = 7
	// EWMA convergence leg.
	a19RateCadence = 10 * time.Millisecond
	a19RateEvents  = 64
	// Sampled Zipf leg.
	a19SamplePop       = 10_000
	a19SampleHeadEvery = 32
	// Auto-tune leg: the A17 chaos shape with the tuner's cap at the
	// top of the A17 sweep.
	a19TuneRequests = 150
	a19TuneCap      = 320 * time.Millisecond
)

// a19TuneFloors are the tuned points: each floor is one of the A17
// sweep's fixed leases, so every tuned run has a like-for-like fixed
// baseline on the frontier.
var a19TuneFloors = []time.Duration{20 * time.Millisecond, 80 * time.Millisecond}

// a19TopK runs the sketch against exact counts on a deterministic Zipf
// draw stream. Every name the space-saving guarantee covers (true count
// > draws/k) must be recalled, and every estimate must sit in [true,
// true+err]; the leg reads the guarantee, the recall, the widest
// estimate-minus-true gap and the hottest name's estimate and truth.
func a19TopK() (Leg, string, error) {
	pop := popgen.NewPopulation(a19TopKPop, a19TopKSkew, a19TopKPopSeed)
	s := pop.Sampler(a19TopKStream)
	sk := namestat.NewTopK(a19TopKK)
	exact := make(map[string]uint64, a19TopKPop)
	for i := 0; i < a19TopKDraws; i++ {
		name := pop.Names[s.NextRank()]
		sk.Observe(name)
		exact[name]++
	}

	items := sk.Snapshot()
	est := make(map[string]namestat.Item, len(items))
	for _, it := range items {
		est[it.Name] = it
	}
	hottest := pop.Names[0]
	rd := reads{
		"population": a19TopKPop, "draws": a19TopKDraws, "k": a19TopKK, "skew": a19TopKSkew,
		"guaranteed": 0, "recalled": 0, "max_overestimate": 0,
		"hottest_true": float64(exact[hottest]), "hottest_est": float64(est[hottest].Count),
	}
	for name, count := range exact {
		if count > a19TopKDraws/a19TopKK {
			rd["guaranteed"]++
			if _, ok := est[name]; ok {
				rd["recalled"]++
			}
		}
	}
	for _, it := range items {
		truth := exact[it.Name]
		if it.Count < truth || it.Count-it.Err > truth {
			return Leg{}, "", fmt.Errorf("a19 topk: an estimate escaped [true, true+err]")
		}
		rd["max_overestimate"] = max(rd["max_overestimate"], float64(it.Count-truth))
	}
	if rd["recalled"] != rd["guaranteed"] {
		return Leg{}, "", fmt.Errorf("a19 topk: recalled %v of %v guaranteed names", rd["recalled"], rd["guaranteed"])
	}
	return Leg{Label: fmt.Sprintf("top-%d sketch vs exact counts", a19TopKK), Reads: rd}, hottest, nil
}

// a19Rates feeds the sketch's resolution estimator a fixed cadence; the
// EWMA must converge to the analytic rate exactly.
func a19Rates() (Leg, error) {
	r := namestat.NewTopK(1)
	at := time.Duration(0)
	for i := 0; i < a19RateEvents; i++ {
		at += a19RateCadence
		r.ObserveResolution("[hot]", at)
	}
	want, got := int64(1000/a19RateCadence.Seconds()), int64(0)
	for _, it := range r.Rates() {
		if it.Name == "[hot]" {
			got = it.ResRateMilliHz
		}
	}
	if got != want {
		return Leg{}, fmt.Errorf("a19 rates: EWMA converged to %d mHz, want %d", got, want)
	}
	return Leg{Label: "churn EWMA at a fixed cadence", Reads: reads{
		"cadence_ns": float64(a19RateCadence), "events": a19RateEvents, "rate_mhz": float64(got),
	}}, nil
}

// a19Echo runs the A12 echo transaction under the full tracer and under a
// sampled one at head 1/1 — sampled-mode accounting with everything
// retained — whose decompositions must agree exactly.
func a19Echo() (Leg, error) {
	full, err := traceEcho(trace.New())
	if err != nil {
		return Leg{}, err
	}
	sampled, err := traceEcho(trace.NewSampled(trace.SampleConfig{HeadEvery: 1}))
	if err != nil {
		return Leg{}, err
	}
	if full != sampled {
		return Leg{}, fmt.Errorf("a19 sampling: sampled decomposition %+v differs from full %+v", sampled, full)
	}
	return Leg{Label: "echo decomposition: full tracer = head-1/1 sampled tracer", Reads: reads{
		"total_ns": float64(full.total), "request_hop_ns": float64(full.reqHop),
		"dwell_ns": float64(full.dwell), "reply_hop_ns": float64(full.repHop),
	}}, nil
}

// a19Sampled runs the open-loop Zipf workload under head sampling: the
// tracer must retain O(k) spans, the population's hottest name must show
// up in the prefix server's hot-name sketch, and the flight recorder
// must journal the run's naming events.
func a19Sampled() (Leg, error) {
	pop := popgen.NewPopulation(a19SamplePop, a18Skew, a18PopSeed)
	sc := a19SampledScenario(pop)
	sc.Pop = pop
	leg, ev, err := sampledRun("head-1/32 sampled Zipf run with the flight recorder", sc)
	if err != nil {
		return Leg{}, fmt.Errorf("a19 sampling: %w", err)
	}
	hottest := false
	for _, it := range ev.Topology.Prefix.TopNames() {
		hottest = hottest || it.Name == pop.Names[0]
	}
	if !hottest {
		return Leg{}, fmt.Errorf("a19 sampling: hottest name missing from the prefix server's sketch")
	}
	counts := flight.Counts(ev.Journal)
	leg.Reads["flight_events"] = float64(len(ev.Journal))
	leg.Reads["flight_resolutions"] = float64(counts[flight.KindResolution])
	leg.Reads["flight_redefines"] = float64(counts[flight.KindRedefine])
	leg.Reads["flight_dropped"] = float64(ev.Topology.Flight.Dropped())
	if leg.Reads["flight_redefines"] == 0 {
		return Leg{}, fmt.Errorf("a19 sampling: redefinition missing from the flight journal")
	}
	return leg, nil
}

// sampledRun runs a head-sampled scenario and reads what the tracer
// kept: the retained subtrees must pass the span invariant checker
// (rig.Run) and stay O(k) in the sampling budget.
func sampledRun(label string, sc rig.Scenario) (Leg, rig.Evidence, error) {
	_, ev, err := rig.Run(sc)
	if err != nil {
		return Leg{}, ev, err
	}
	seen, kept := ev.Topology.Tracer.RootsSeen(), ev.Topology.Tracer.RootsRetained()
	switch {
	case kept == 0 || ev.Spans == 0:
		err = errors.New("head sampling retained nothing")
	case kept*8 > seen:
		err = fmt.Errorf("retained %d of %d roots — not O(k)", kept, seen)
	}
	return newLeg(label, sc, ev, reads{"roots_seen": float64(seen), "roots_retained": float64(kept)}), ev, err
}

// a19SampledScenario is the a18 traced leg — the open-loop Zipf
// workload with the hottest name redefined at a quiescent cut — under
// head sampling instead of the full tracer.
func a19SampledScenario(pop *popgen.Population) rig.Scenario {
	sc := a18TraceScenario(pop)
	sc.Trace = false
	sc.TraceSample = &trace.SampleConfig{HeadEvery: a19SampleHeadEvery}
	return sc
}

// a19TuneScenario is one policy point — a fixed lease (cap 0) or the
// auto-tuner over [lease, cap] — on the A17 chaos shape. Its schedule is
// the A17 partition schedule preceded by two redefinitions of [shard0]
// that train the tuner: shard0's estimator goes hot (lease pinned to the
// floor) while the quiet shards grow toward the cap, before the
// partition makes the staleness trade bite. The redefinitions commit at
// their scheduled times (AtEventTime), not at the partitioned server's
// stalled clock as A17's does: the commit instant is exactly what the
// staleness frontier is measured against.
func a19TuneScenario(lease, cap time.Duration) rig.Scenario {
	redefine := func(at time.Duration, note string) chaos.Event {
		return chaos.Event{At: at, Action: chaos.Redefine, Name: "shard0", AtEventTime: true, Note: note}
	}
	return rig.Scenario{
		Kind:            rig.SharedPrefix,
		Shards:          a17Shards,
		ClientsPerShard: a17ClientsPerShard,
		Requests:        a19TuneRequests,
		Seed:            a17Seed,
		Lease:           lease,
		AutoTuneMax:     cap,
		Trace:           true,
		Sequential:      true,
		Faults: []chaos.Event{
			redefine(60*time.Millisecond, "redefine shard0 (train tuner)"),
			redefine(120*time.Millisecond, "redefine shard0 again"),
			{At: 250 * time.Millisecond, Action: chaos.Partition, Host: "nexus", Group: 1, Note: "prefix host cut off"},
			redefine(300*time.Millisecond, "redefine shard0 behind the partition"),
			{At: 450 * time.Millisecond, Action: chaos.Heal},
		},
	}
}

// a19Tune runs one policy point. The leg reads the tuned lease lengths
// at the end of the run — the churned shard0 name must sit at the floor,
// the quiet shard1 name at the cap — and the journal's redefinitions:
// each chaos redefinition is a delete + a re-add, two invalidation
// commits, so the three scheduled events journal six.
func a19Tune(label string, lease, cap time.Duration) (Leg, error) {
	leg, err := runLeg(label, a19TuneScenario(lease, cap), func(_ *rig.WorkloadResult, ev rig.Evidence) reads {
		rd := reads{"flight_redefines": float64(flight.Counts(ev.Journal)[flight.KindRedefine])}
		if cap > 0 {
			rd["tuned_shard0_ns"] = float64(ev.Topology.Prefix.TunedLease("shard0"))
			rd["tuned_shard1_ns"] = float64(ev.Topology.Prefix.TunedLease("shard1"))
		}
		return rd
	})
	if err == nil && leg.Reads["flight_redefines"] != 6 {
		err = fmt.Errorf("journal has %v redefinitions, want 6", leg.Reads["flight_redefines"])
	}
	if err != nil {
		return Leg{}, fmt.Errorf("a19 tune %s: %w", label, err)
	}
	return leg, nil
}

// a19Collect runs every leg once, producing the legs and the experiment
// rows from the same data.
func a19Collect() (Result, error) {
	var res Result
	topk, hottest, err := a19TopK()
	if err != nil {
		return Result{}, err
	}
	rd := topk.Reads
	res.Rows = append(res.Rows, Row{
		Label:    fmt.Sprintf("top-%d sketch on %d Zipf draws", a19TopKK, a19TopKDraws),
		Paper:    "-",
		Measured: fmt.Sprintf("%d/%d guaranteed names recalled", int(rd["recalled"]), int(rd["guaranteed"])),
		Note: fmt.Sprintf("all estimates in [true, true+err]; hottest %q est %d true %d",
			hottest, int(rd["hottest_est"]), int(rd["hottest_true"])),
	})

	rates, err := a19Rates()
	if err != nil {
		return Result{}, err
	}
	res.Rows = append(res.Rows, Row{
		Label:    fmt.Sprintf("churn EWMA at %s cadence", ms(a19RateCadence)),
		Paper:    "-",
		Measured: fmt.Sprintf("%d mHz", int(rates.Reads["rate_mhz"])),
		Note:     fmt.Sprintf("analytic %d mHz, converged exactly after %d events", int(rates.Reads["rate_mhz"]), a19RateEvents),
	})

	echo, err := a19Echo()
	if err != nil {
		return Result{}, err
	}
	us := func(name string) string { return usms(echo.ns(name).Microseconds()) }
	res.Rows = append(res.Rows, Row{
		Label:    "sampled vs full echo decomposition",
		Paper:    "-",
		Measured: "identical",
		Note: fmt.Sprintf("total %s = request %s + dwell %s + reply %s",
			us("total_ns"), us("request_hop_ns"), us("dwell_ns"), us("reply_hop_ns")),
	})

	sampled, err := a19Sampled()
	if err != nil {
		return Result{}, err
	}
	rd = sampled.Reads
	res.Rows = append(res.Rows, Row{
		Label:    fmt.Sprintf("head-1/%d sampling, %d-name Zipf run", a19SampleHeadEvery, a19SamplePop),
		Paper:    "-",
		Measured: fmt.Sprintf("%d of %d roots retained", int(rd["roots_retained"]), int(rd["roots_seen"])),
		Note: fmt.Sprintf("%d spans held; flight journal %d events (%d resolutions, %d redefines), %d dropped",
			sampled.Evidence.Spans, int(rd["flight_events"]), int(rd["flight_resolutions"]), int(rd["flight_redefines"]), int(rd["flight_dropped"])),
	})
	res.Legs = append(res.Legs, topk, rates, echo, sampled)

	var fixed, tuned []Leg
	for _, lease := range a17LeaseSweep {
		leg, err := a19Tune(fmt.Sprintf("fixed lease %s", ms(lease)), lease, 0)
		if err != nil {
			return Result{}, err
		}
		fixed = append(fixed, leg)
		ev := leg.Evidence
		res.Rows = append(res.Rows, Row{
			Label:    fmt.Sprintf("fixed lease %s under churn+partition", ms(lease)),
			Paper:    "-",
			Measured: fmt.Sprintf("%.1f%% hits", 100*hitRate(ev.Client)),
			Note: fmt.Sprintf("%d stale windows (widest %s ≤ bound %s); %d renewals",
				ev.StaleWindows, usms(ev.WidestStale.Microseconds()), usms(ev.Bound.Microseconds()), ev.Client.Renewals),
		})
	}
	for _, floor := range a19TuneFloors {
		label := fmt.Sprintf("auto-tuned [%s, %s]", ms(floor), ms(a19TuneCap))
		leg, err := a19Tune(label, floor, a19TuneCap)
		if err != nil {
			return Result{}, err
		}
		tuned = append(tuned, leg)
		ev := leg.Evidence
		res.Rows = append(res.Rows, Row{
			Label:    label,
			Paper:    "-",
			Measured: fmt.Sprintf("%.1f%% hits", 100*hitRate(ev.Client)),
			Note: fmt.Sprintf("%d stale windows (widest %s); churned shard0 at %s, quiet shard1 at %s",
				ev.StaleWindows, usms(ev.WidestStale.Microseconds()),
				usms(leg.ns("tuned_shard0_ns").Microseconds()), usms(leg.ns("tuned_shard1_ns").Microseconds())),
		})
	}
	res.Legs = append(append(res.Legs, fixed...), tuned...)

	beats := frontierBeats(tuned, fixed)
	if beats == 0 {
		return Result{}, fmt.Errorf("a19: no tuned run dominates a fixed lease on the (hit rate, staleness) frontier")
	}
	res.Rows = append(res.Rows, Row{
		Label:    "frontier: tuned vs fixed sweep",
		Paper:    "-",
		Measured: fmt.Sprintf("%d dominated (tuned, fixed) pairs", beats),
		Note:     "no worse on both axes, strictly better on one; every window ≤ invariant-#7 bound",
	})
	return res, nil
}

// frontierBeats counts the (tuned, fixed) pairs in which the tuned run
// dominates on the (hit rate, widest stale window) frontier: no worse on
// both axes, strictly better on one.
func frontierBeats(tuned, fixed []Leg) int {
	beats := 0
	for _, t := range tuned {
		for _, f := range fixed {
			th, fh := hitRate(t.Evidence.Client), hitRate(f.Evidence.Client)
			tw, fw := t.Evidence.WidestStale, f.Evidence.WidestStale
			if th >= fh && tw <= fw && (th > fh || tw < fw) {
				beats++
			}
		}
	}
	return beats
}

// PopulationTrace runs the open-loop Zipf workload at the given
// population under head-1/32 sampling and returns the retained trace as
// JSON — the acceptance run the full tracer structurally cannot do: at
// 10⁶ names its span store is O(ops), while the sampled store is O(k)
// in the sampling budget. The retained subtrees still pass the span
// invariant checker.
func PopulationTrace(population int) ([]byte, Leg, error) {
	sc := a18Scenario(population, a18Skew, false)
	sc.Sequential = false
	sc.TraceSample = &trace.SampleConfig{HeadEvery: a19SampleHeadEvery}
	leg, ev, err := sampledRun("sampled population trace", sc)
	if err != nil {
		return nil, leg, err
	}
	data, err := ev.Topology.Tracer.JSON()
	return data, leg, err
}
