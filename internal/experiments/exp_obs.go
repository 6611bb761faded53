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

// ObsTopK is the sketch-vs-exact leg of BENCH_obs.json.
type ObsTopK struct {
	Population int     `json:"population"`
	Draws      int     `json:"draws"`
	K          int     `json:"k"`
	Skew       float64 `json:"skew"`

	// Guaranteed is how many names the space-saving guarantee covers
	// (true count > draws/k); Recalled of them appeared in the sketch.
	Guaranteed int `json:"guaranteed"`
	Recalled   int `json:"recalled"`
	// WithinBound asserts every sketch estimate sat in [true, true+err].
	WithinBound bool `json:"within_bound"`
	// MaxOverestimate is the widest estimate-minus-true gap observed.
	MaxOverestimate int64 `json:"max_overestimate"`

	HottestName string `json:"hottest_name"`
	HottestEst  int64  `json:"hottest_est"`
	HottestTrue int64  `json:"hottest_true"`
}

// ObsRates is the EWMA convergence leg.
type ObsRates struct {
	CadenceUS   int64 `json:"cadence_us"`
	Events      int   `json:"events"`
	WantMilliHz int64 `json:"want_mhz"`
	GotMilliHz  int64 `json:"got_mhz"`
	Exact       bool  `json:"exact"`
}

// ObsDecomp is one A12-style echo decomposition read off a trace.
type ObsDecomp struct {
	TotalUS      int64 `json:"total_us"`
	RequestHopUS int64 `json:"request_hop_us"`
	DwellUS      int64 `json:"dwell_us"`
	ReplyHopUS   int64 `json:"reply_hop_us"`
}

// ObsSampling is the sampled-tracing leg.
type ObsSampling struct {
	// The echo decomposition under the full and the sampled tracer
	// (head 1/1: everything retained) must agree exactly.
	Full    ObsDecomp `json:"full"`
	Sampled ObsDecomp `json:"sampled"`
	Agrees  bool      `json:"agrees"`

	// The open-loop Zipf workload under head sampling.
	PopTrace
	TraceClean bool `json:"trace_clean"`
	// HottestInTopK asserts the population's true hottest name shows up
	// in the prefix server's hot-name sketch.
	HottestInTopK bool `json:"hottest_in_topk"`

	// Flight-recorder journal counts for the same run.
	FlightEvents      int64 `json:"flight_events"`
	FlightResolutions int64 `json:"flight_resolutions"`
	FlightRedefines   int64 `json:"flight_redefines"`
	FlightDropped     int64 `json:"flight_dropped"`
}

// ObsTuneRun is one policy point of the auto-tune leg.
type ObsTuneRun struct {
	Policy  string `json:"policy"` // "fixed" or "tuned"
	LeaseUS int64  `json:"lease_us"`
	CapUS   int64  `json:"cap_us,omitempty"`

	Requests      int     `json:"requests"`
	Errors        int     `json:"errors"`
	Hits          int     `json:"hits"`
	Misses        int     `json:"misses"`
	Renewals      int     `json:"renewals"`
	Invalidations int     `json:"invalidations"`
	HitRate       float64 `json:"hit_rate"`

	StaleWindows  int   `json:"stale_windows"`
	WidestStaleUS int64 `json:"widest_stale_us"`
	BoundUS       int64 `json:"bound_us"`
	BoundHeld     bool  `json:"bound_held"`
	TraceClean    bool  `json:"trace_clean"`

	// Tuned lease lengths at the end of the run: the churned shard0
	// name must sit at the floor, the quiet shard1 name at the cap.
	TunedShard0US int64 `json:"tuned_shard0_us,omitempty"`
	TunedShard1US int64 `json:"tuned_shard1_us,omitempty"`

	FlightRedefines int64 `json:"flight_redefines"`
}

// ObsDoc is the BENCH_obs.json schema.
type ObsDoc struct {
	Tool        string `json:"tool"`
	Description string `json:"description"`

	TopK     ObsTopK      `json:"topk"`
	Rates    ObsRates     `json:"rates"`
	Sampling ObsSampling  `json:"sampling"`
	AutoTune []ObsTuneRun `json:"auto_tune"`
	// FrontierBeats counts the fixed points the tuned run dominates on
	// the (hit rate, widest stale window) frontier.
	FrontierBeats int `json:"frontier_beats"`
}

// a19TopK runs the sketch against exact counts on a deterministic Zipf
// draw stream.
func a19TopK() (ObsTopK, error) {
	leg := ObsTopK{
		Population: a19TopKPop,
		Draws:      a19TopKDraws,
		K:          a19TopKK,
		Skew:       a19TopKSkew,
	}
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

	threshold := uint64(a19TopKDraws / a19TopKK)
	leg.WithinBound = true
	for name, count := range exact {
		if count > threshold {
			leg.Guaranteed++
			if _, ok := est[name]; ok {
				leg.Recalled++
			}
		}
	}
	for _, it := range items {
		truth := exact[it.Name]
		if it.Count < truth || it.Count-it.Err > truth {
			leg.WithinBound = false
		}
		if over := int64(it.Count) - int64(truth); over > leg.MaxOverestimate {
			leg.MaxOverestimate = over
		}
	}
	hottest := pop.Names[0]
	leg.HottestName = hottest
	leg.HottestTrue = int64(exact[hottest])
	if it, ok := est[hottest]; ok {
		leg.HottestEst = int64(it.Count)
	}
	if leg.Recalled != leg.Guaranteed {
		return leg, fmt.Errorf("a19 topk: recalled %d of %d guaranteed names", leg.Recalled, leg.Guaranteed)
	}
	if !leg.WithinBound {
		return leg, fmt.Errorf("a19 topk: an estimate escaped [true, true+err]")
	}
	return leg, nil
}

// a19Rates feeds the estimator a fixed cadence and reads the rate back.
func a19Rates() (ObsRates, error) {
	leg := ObsRates{
		CadenceUS:   a19RateCadence.Microseconds(),
		Events:      a19RateEvents,
		WantMilliHz: int64(1000 / a19RateCadence.Seconds()),
	}
	r := namestat.NewRates(0)
	at := time.Duration(0)
	for i := 0; i < a19RateEvents; i++ {
		at += a19RateCadence
		r.ObserveResolution("[hot]", at)
	}
	for _, it := range r.Snapshot() {
		if it.Name == "[hot]" {
			leg.GotMilliHz = it.ResRateMilliHz
		}
	}
	leg.Exact = leg.GotMilliHz == leg.WantMilliHz
	if !leg.Exact {
		return leg, fmt.Errorf("a19 rates: EWMA converged to %d mHz, want %d", leg.GotMilliHz, leg.WantMilliHz)
	}
	return leg, nil
}

// a19Echo runs the A12 echo transaction under the given tracer and
// renders its decomposition in the document's microseconds.
func a19Echo(tr *trace.Tracer) (ObsDecomp, error) {
	et, err := traceEcho(tr)
	return ObsDecomp{
		TotalUS:      et.total.Microseconds(),
		RequestHopUS: et.reqHop.Microseconds(),
		DwellUS:      et.dwell.Microseconds(),
		ReplyHopUS:   et.repHop.Microseconds(),
	}, err
}

// a19Sampling runs both halves of the sampled-tracing leg.
func a19Sampling() (ObsSampling, error) {
	var leg ObsSampling
	full, err := a19Echo(trace.New())
	if err != nil {
		return leg, err
	}
	// Head 1/1: sampled-mode accounting with everything retained, so the
	// decomposition must match the full tracer's exactly.
	sampled, err := a19Echo(trace.NewSampled(trace.SampleConfig{HeadEvery: 1}))
	if err != nil {
		return leg, err
	}
	leg.Full, leg.Sampled = full, sampled
	leg.Agrees = full == sampled
	if !leg.Agrees {
		return leg, fmt.Errorf("a19 sampling: sampled decomposition %+v differs from full %+v", sampled, full)
	}

	pop := popgen.NewPopulation(a19SamplePop, a18Skew, a18PopSeed)
	sc := a19SampledScenario(pop)
	sc.Pop = pop
	pt, ev, err := sampledRun(sc)
	if err != nil {
		return leg, fmt.Errorf("a19 sampling: %w", err)
	}
	leg.PopTrace, leg.TraceClean = pt, true
	for _, it := range ev.Topology.Prefix.TopNames() {
		if it.Name == pop.Names[0] {
			leg.HottestInTopK = true
		}
	}

	counts := flight.Counts(ev.Journal)
	leg.FlightEvents = int64(len(ev.Journal))
	leg.FlightResolutions = int64(counts[flight.KindResolution])
	leg.FlightRedefines = int64(counts[flight.KindRedefine])
	leg.FlightDropped = int64(ev.Topology.Flight.Dropped())

	if !leg.HottestInTopK {
		return leg, fmt.Errorf("a19 sampling: hottest name missing from the prefix server's sketch")
	}
	if leg.FlightRedefines == 0 {
		return leg, fmt.Errorf("a19 sampling: redefinition missing from the flight journal")
	}
	return leg, nil
}

// sampledRun runs a head-sampled scenario and summarizes what the tracer
// kept: the retained subtrees must pass the span invariant checker
// (runChecked) and stay O(k) in the sampling budget.
func sampledRun(sc rig.Scenario) (PopTrace, rig.Evidence, error) {
	pt := PopTrace{Population: sc.Population, HeadEvery: sc.TraceSample.HeadEvery}
	res, ev, err := runChecked(sc)
	if err != nil {
		return pt, ev, err
	}
	pt.TotalOps = res.Requests
	pt.RootsSeen = int64(ev.Topology.Tracer.RootsSeen())
	pt.RootsRetained = int64(ev.Topology.Tracer.RootsRetained())
	pt.RetainedSpans = ev.Spans
	switch {
	case pt.RootsRetained == 0 || pt.RetainedSpans == 0:
		err = errors.New("head sampling retained nothing")
	case pt.RootsRetained*8 > pt.RootsSeen:
		err = fmt.Errorf("retained %d of %d roots — not O(k)", pt.RootsRetained, pt.RootsSeen)
	}
	return pt, ev, err
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

// a19Tune runs one policy point.
func a19Tune(policy string, lease, cap time.Duration) (ObsTuneRun, error) {
	run := ObsTuneRun{
		Policy:   policy,
		LeaseUS:  lease.Microseconds(),
		CapUS:    cap.Microseconds(),
		Requests: a19TuneRequests,
	}
	_, ev, err := runChecked(a19TuneScenario(lease, cap))
	if err != nil {
		return run, fmt.Errorf("a19 tune %s lease=%v: %w", policy, lease, err)
	}
	run.Errors = ev.Errors
	run.Hits = ev.Client.Hits
	run.Misses = ev.Client.Misses
	run.Renewals = ev.Client.Renewals
	run.Invalidations = ev.Client.Invalidations
	run.HitRate = hitRate(ev.Client)

	run.BoundUS = ev.Bound.Microseconds()
	run.TraceClean, run.BoundHeld = true, true
	run.StaleWindows = ev.StaleWindows
	run.WidestStaleUS = ev.WidestStale.Microseconds()
	if cap > 0 {
		run.TunedShard0US = ev.Topology.Prefix.TunedLease("shard0").Microseconds()
		run.TunedShard1US = ev.Topology.Prefix.TunedLease("shard1").Microseconds()
	}
	run.FlightRedefines = int64(flight.Counts(ev.Journal)[flight.KindRedefine])

	// Each chaos redefinition is a delete + a re-add, two invalidation
	// commits — so the three scheduled events journal six.
	if run.FlightRedefines != 6 {
		return run, fmt.Errorf("a19 tune %s lease=%v: journal has %d redefinitions, want 6", policy, lease, run.FlightRedefines)
	}
	return run, nil
}

// a19Collect runs every leg once, producing both the JSON document and
// the experiment rows from the same data.
func a19Collect() (*ObsDoc, []Row, error) {
	doc := &ObsDoc{
		Tool:        "vbench -obs",
		Description: "population-scale observability: top-k sketch vs exact counts, EWMA convergence, sampled tracing with the flight recorder, and the per-name lease auto-tuner against the fixed-lease sweep",
	}
	var rows []Row

	topk, err := a19TopK()
	if err != nil {
		return nil, nil, err
	}
	doc.TopK = topk
	rows = append(rows, Row{
		Label:    fmt.Sprintf("top-%d sketch on %d Zipf draws", topk.K, topk.Draws),
		Paper:    "-",
		Measured: fmt.Sprintf("%d/%d guaranteed names recalled", topk.Recalled, topk.Guaranteed),
		Note: fmt.Sprintf("all estimates in [true, true+err]; hottest %q est %d true %d",
			topk.HottestName, topk.HottestEst, topk.HottestTrue),
	})

	rates, err := a19Rates()
	if err != nil {
		return nil, nil, err
	}
	doc.Rates = rates
	rows = append(rows, Row{
		Label:    fmt.Sprintf("churn EWMA at %s cadence", ms(a19RateCadence)),
		Paper:    "-",
		Measured: fmt.Sprintf("%d mHz", rates.GotMilliHz),
		Note:     fmt.Sprintf("analytic %d mHz, converged exactly after %d events", rates.WantMilliHz, rates.Events),
	})

	sampling, err := a19Sampling()
	if err != nil {
		return nil, nil, err
	}
	doc.Sampling = sampling
	rows = append(rows, Row{
		Label:    "sampled vs full echo decomposition",
		Paper:    "-",
		Measured: "identical",
		Note: fmt.Sprintf("total %s = request %s + dwell %s + reply %s", usms(sampling.Full.TotalUS),
			usms(sampling.Full.RequestHopUS), usms(sampling.Full.DwellUS), usms(sampling.Full.ReplyHopUS)),
	})
	rows = append(rows, Row{
		Label:    fmt.Sprintf("head-1/%d sampling, %d-name Zipf run", sampling.HeadEvery, sampling.Population),
		Paper:    "-",
		Measured: fmt.Sprintf("%d of %d roots retained", sampling.RootsRetained, sampling.RootsSeen),
		Note: fmt.Sprintf("%d spans held; flight journal %d events (%d resolutions, %d redefines), %d dropped",
			sampling.RetainedSpans, sampling.FlightEvents, sampling.FlightResolutions,
			sampling.FlightRedefines, sampling.FlightDropped),
	})

	var fixed, tuned []ObsTuneRun
	for _, lease := range a17LeaseSweep {
		run, err := a19Tune("fixed", lease, 0)
		if err != nil {
			return nil, nil, err
		}
		fixed = append(fixed, run)
		doc.AutoTune = append(doc.AutoTune, run)
		rows = append(rows, Row{
			Label:    fmt.Sprintf("fixed lease %s under churn+partition", ms(lease)),
			Paper:    "-",
			Measured: fmt.Sprintf("%.1f%% hits", 100*run.HitRate),
			Note: fmt.Sprintf("%d stale windows (widest %s ≤ bound %s); %d renewals",
				run.StaleWindows, usms(run.WidestStaleUS), usms(run.BoundUS), run.Renewals),
		})
	}
	for _, floor := range a19TuneFloors {
		run, err := a19Tune("tuned", floor, a19TuneCap)
		if err != nil {
			return nil, nil, err
		}
		tuned = append(tuned, run)
		doc.AutoTune = append(doc.AutoTune, run)
		rows = append(rows, Row{
			Label:    fmt.Sprintf("auto-tuned [%s, %s]", ms(floor), ms(a19TuneCap)),
			Paper:    "-",
			Measured: fmt.Sprintf("%.1f%% hits", 100*run.HitRate),
			Note: fmt.Sprintf("%d stale windows (widest %s); churned shard0 at %s, quiet shard1 at %s",
				run.StaleWindows, usms(run.WidestStaleUS), usms(run.TunedShard0US), usms(run.TunedShard1US)),
		})
	}

	for _, t := range tuned {
		for _, f := range fixed {
			noWorse := t.HitRate >= f.HitRate && t.WidestStaleUS <= f.WidestStaleUS
			strictly := t.HitRate > f.HitRate || t.WidestStaleUS < f.WidestStaleUS
			if noWorse && strictly {
				doc.FrontierBeats++
			}
		}
	}
	if doc.FrontierBeats == 0 {
		return nil, nil, fmt.Errorf("a19: no tuned run dominates a fixed lease on the (hit rate, staleness) frontier")
	}
	rows = append(rows, Row{
		Label:    "frontier: tuned vs fixed sweep",
		Paper:    "-",
		Measured: fmt.Sprintf("%d dominated (tuned, fixed) pairs", doc.FrontierBeats),
		Note:     "no worse on both axes, strictly better on one; every window ≤ invariant-#7 bound",
	})
	return doc, rows, nil
}

// PopTrace summarizes a sampled population-scale trace export
// (`vbench -zipf Z.json -trace T.json`).
type PopTrace struct {
	Population    int   `json:"population"`
	HeadEvery     int   `json:"head_every"`
	TotalOps      int   `json:"total_ops"`
	RootsSeen     int64 `json:"roots_seen"`
	RootsRetained int64 `json:"roots_retained"`
	RetainedSpans int   `json:"retained_spans"`
}

// PopulationTrace runs the open-loop Zipf workload at the given
// population under head-1/32 sampling and returns the retained trace as
// JSON — the acceptance run the full tracer structurally cannot do: at
// 10⁶ names its span store is O(ops), while the sampled store is O(k)
// in the sampling budget. The retained subtrees still pass the span
// invariant checker.
func PopulationTrace(population int) ([]byte, PopTrace, error) {
	sc := a18Scenario(population, a18Skew, false)
	sc.Sequential = false
	sc.TraceSample = &trace.SampleConfig{HeadEvery: a19SampleHeadEvery}
	pt, ev, err := sampledRun(sc)
	if err != nil {
		return nil, pt, err
	}
	data, err := ev.Topology.Tracer.JSON()
	return data, pt, err
}
