package experiments

// A18 measures population-scale resolution (PROTOCOL.md §14): the
// prefix table grown from the paper's dozen bindings to 10³–10⁶ names,
// driven by an open-loop Zipf workload instead of the closed think
// loops every earlier experiment used. Four legs:
//
//   - an index cost model: the mean per-lookup descent cost of the
//     compressed radix index against the flat sorted-table binary
//     search it replaced, counted in deterministic virtual steps over
//     a fixed Zipf sample at each population size, plus the index's
//     byte footprint (the paper's table was 2.6 KB; 10⁶ names is not);
//   - a population sweep at fixed skew, flat and tiered: open-loop
//     throughput and p50/p99 resolution latency as the table grows,
//     with the small points run through both the sequential driver and
//     the conservative engine and deep-compared — per-op latencies
//     included — and the large points engine-only (the equivalence
//     argument does not change with table size, only boot cost does);
//   - a skew sweep at fixed population: how popularity concentration
//     moves the hit rate and the tail;
//   - a traced leg with a mid-run redefinition of the hottest name,
//     fired at a quiescent cut: the recorded trace must satisfy the
//     lease staleness invariant (trace.Check #7) with zero stale
//     windows, since every holder is reachable.
//
// Everything here is virtual time: the documents are byte-identical
// across runs and pinned by golden-guard.

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/chaos"
	"repro/internal/nametree"
	"repro/internal/popgen"
	"repro/internal/rig"
)

// a18 shapes. The workload shape is fixed across every leg; only the
// population (and, in the skew sweep, the skew) varies.
const (
	a18Shards          = 4
	a18ClientsPerShard = 2
	a18Arrivals        = 150
	a18Interarrival    = 2 * time.Millisecond
	a18Lease           = 80 * time.Millisecond
	a18Seed            = 11
	a18Skew            = 0.99
	a18PopSeed         = 1
	// a18EquivMax bounds the populations double-run through both
	// drivers: above it the legs are engine-only.
	a18EquivMax = 10_000
	// a18IndexSample is the Zipf draw count behind each index cost row.
	a18IndexSample = 2_000
)

// a18Scale selects the leg sizes: the full scale feeds vbench and the
// golden documents; the test scale keeps the race-mode gates off the
// multi-second 10⁵–10⁶ boots (golden-guard still regenerates and
// compares the full document on every make check).
type a18Scale struct {
	pops     []int
	skewPop  int
	tracePop int
}

var (
	a18FullScale = a18Scale{pops: []int{1_000, 10_000, 100_000, 1_000_000}, skewPop: 100_000, tracePop: 10_000}
	a18TestScale = a18Scale{pops: []int{1_000, 10_000}, skewPop: 10_000, tracePop: 10_000}
)

// a18SkewSweep is the skew sweep at skewPop names.
var a18SkewSweep = []float64{0.5, 0.99, 1.3}

// ZipfIndexPoint is one index cost row in BENCH_zipf.json: the radix
// descent against the flat binary search over the same table, in
// deterministic steps (node visits vs string comparisons) averaged over
// one fixed Zipf sample. Virtual cost, not wall clock: wall-clock
// behavior of the same structures lives in the nametree benchmarks.
type ZipfIndexPoint struct {
	Population   int     `json:"population"`
	RadixSteps   float64 `json:"radix_steps"`
	FlatCompares float64 `json:"flat_compares"`
	// Speedup is FlatCompares / RadixSteps.
	Speedup float64 `json:"speedup"`
	// IndexBytes is the radix index's key storage (shared prefixes
	// stored once) plus one 8-byte rank entry per name.
	IndexBytes int `json:"index_bytes"`
}

// ZipfRun is one workload point in BENCH_zipf.json.
type ZipfRun struct {
	Population      int     `json:"population"`
	Skew            float64 `json:"skew"`
	CacheTier       bool    `json:"cache_tier"`
	Shards          int     `json:"shards"`
	ClientsPerShard int     `json:"clients_per_shard"`
	Arrivals        int     `json:"arrivals_per_client"`
	InterarrivalUS  int64   `json:"interarrival_us"`
	LeaseUS         int64   `json:"lease_us"`
	Seed            int64   `json:"seed"`

	TotalRequests int   `json:"total_requests"`
	Errors        int   `json:"errors"`
	SpanUS        int64 `json:"open_loop_span_us"`
	// ThroughputRPS is completed arrivals over the open-loop span.
	ThroughputRPS float64 `json:"throughput_rps"`
	// P50US/P99US are open-loop latency percentiles: virtual completion
	// minus scheduled arrival, queueing included.
	P50US int64 `json:"p50_us"`
	P99US int64 `json:"p99_us"`

	ClientHits     int     `json:"client_hits"`
	ClientMisses   int     `json:"client_misses"`
	ClientRenewals int     `json:"client_renewals"`
	ClientHitRate  float64 `json:"client_hit_rate"`
	TierHits       int     `json:"tier_hits,omitempty"`
	TierMisses     int     `json:"tier_misses,omitempty"`
	PrefixGrants   int     `json:"prefix_grants"`
	// TableBytes is the authoritative prefix server's table footprint.
	TableBytes int `json:"table_bytes"`

	// EquivalenceChecked records whether this point was double-run
	// through the sequential driver and the conservative engine;
	// EqualToSequential is the deep comparison (WorkloadResult and the
	// full per-op latency matrix) when it was.
	EquivalenceChecked bool `json:"equivalence_checked"`
	EqualToSequential  bool `json:"equal_to_sequential,omitempty"`
}

// ZipfTrace is the traced redefinition leg in BENCH_zipf.json.
type ZipfTrace struct {
	Population int      `json:"population"`
	LeaseUS    int64    `json:"lease_us"`
	Schedule   []string `json:"schedule"`

	TotalRequests int `json:"total_requests"`
	Completed     int `json:"completed"`
	Errors        int `json:"errors"`
	// Invalidations counts client lease entries dropped by callback
	// when the hottest name was redefined mid-run.
	Invalidations int `json:"invalidations"`

	TraceClean   bool `json:"trace_clean"`
	StaleWindows int  `json:"stale_windows"`
}

// ZipfDoc is the BENCH_zipf.json schema.
type ZipfDoc struct {
	Tool        string `json:"tool"`
	Description string `json:"description"`

	Index     []ZipfIndexPoint `json:"index"`
	Sweep     []ZipfRun        `json:"sweep"`
	SkewSweep []ZipfRun        `json:"skew_sweep"`
	Trace     ZipfTrace        `json:"trace"`
}

// a18Index prices one population's lookups under both index shapes:
// the same fixed Zipf sample resolved through a compressed radix tree
// (counting node visits) and through binary search over the flat
// sorted name table (counting string comparisons) — the structure the
// prefix server used before the radix index replaced it.
func a18Index(pop *popgen.Population) ZipfIndexPoint {
	tree := nametree.New[int]()
	if err := tree.Load(pop.Names, func(r int) int { return r }); err != nil {
		panic("a18: " + err.Error())
	}
	sorted := append([]string(nil), pop.Names...)
	sort.Strings(sorted)

	s := pop.Sampler(a18IndexStream)
	radix, flat := 0, 0
	for i := 0; i < a18IndexSample; i++ {
		name := pop.Names[s.NextRank()]
		_, ok, steps := tree.GetSteps(name)
		if !ok {
			panic("a18: population name missing from index")
		}
		radix += steps
		lo, hi := 0, len(sorted)
		for lo < hi {
			mid := (lo + hi) / 2
			flat++
			if sorted[mid] < name {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
	}
	pt := ZipfIndexPoint{
		Population:   len(pop.Names),
		RadixSteps:   float64(radix) / a18IndexSample,
		FlatCompares: float64(flat) / a18IndexSample,
		IndexBytes:   tree.KeyBytes() + tree.Len()*8,
	}
	pt.Speedup = pt.FlatCompares / pt.RadixSteps
	return pt
}

// a18IndexStream is the sampler stream behind the index sample —
// distinct from every client stream (those are 1..nclients).
const a18IndexStream = 1 << 20

// a18Scenario is the common workload shape over an n-name population.
// Populations at or below a18EquivMax are double-run (sequential and
// engine) and compared including the per-op latency matrix; larger ones
// run engine-only.
func a18Scenario(n int, skew float64, tier bool) rig.Scenario {
	return rig.Scenario{
		Kind:            rig.Zipf,
		Population:      n,
		Skew:            skew,
		PopSeed:         a18PopSeed,
		Shards:          a18Shards,
		ClientsPerShard: a18ClientsPerShard,
		Requests:        a18Arrivals,
		Interarrival:    a18Interarrival,
		Lease:           a18Lease,
		CacheTier:       tier,
		Seed:            a18Seed,
		Sequential:      n <= a18EquivMax,
	}
}

// a18Run executes one workload point over an already generated
// population.
func a18Run(pop *popgen.Population, tier bool) (ZipfRun, error) {
	sc := a18Scenario(len(pop.Names), pop.Skew, tier)
	sc.Pop = pop
	run := ZipfRun{
		Population:      sc.Population,
		Skew:            pop.Skew,
		CacheTier:       tier,
		Shards:          a18Shards,
		ClientsPerShard: a18ClientsPerShard,
		Arrivals:        a18Arrivals,
		InterarrivalUS:  a18Interarrival.Microseconds(),
		LeaseUS:         a18Lease.Microseconds(),
		Seed:            a18Seed,
	}
	res, ev, err := runChecked(sc)
	if err != nil {
		return run, err
	}
	run.EquivalenceChecked = sc.Sequential
	run.EqualToSequential = ev.EqualToSequential

	run.TotalRequests = res.Requests
	first, last := ev.Topology.OpenLoopSpan()
	span := last - first
	run.SpanUS = span.Microseconds()
	if span > 0 {
		run.ThroughputRPS = float64(res.Requests) / span.Seconds()
	}
	p50, p99 := a18Percentiles(ev.Topology.Latencies)
	run.P50US = p50.Microseconds()
	run.P99US = p99.Microseconds()

	run.ClientHits = ev.Client.Hits
	run.ClientMisses = ev.Client.Misses
	run.ClientRenewals = ev.Client.Renewals
	run.ClientHitRate = hitRate(ev.Client)
	run.TierHits = int(ev.Tier.Hits)
	run.TierMisses = int(ev.Tier.Misses)
	run.PrefixGrants = int(ev.Prefix.Grants)
	run.TableBytes = ev.Topology.Prefix.TableBytes()
	return run, nil
}

// a18Percentiles flattens the latency matrix and reads p50/p99.
func a18Percentiles(lat [][]time.Duration) (p50, p99 time.Duration) {
	var all []time.Duration
	for _, row := range lat {
		all = append(all, row...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return all[len(all)*50/100], all[len(all)*99/100]
}

// a18TraceScenario is the traced leg: the open-loop workload with the
// hottest name (rank 0, so bound to shard 0) redefined at a quiescent
// cut mid-run.
func a18TraceScenario(pop *popgen.Population) rig.Scenario {
	sc := a18Scenario(len(pop.Names), a18Skew, false)
	sc.Sequential = false
	sc.Trace = true
	sc.Faults = []chaos.Event{
		{At: 100 * time.Millisecond, Action: chaos.Redefine, Name: pop.Names[0], Note: "redefine hottest name"},
	}
	return sc
}

// a18Trace runs the traced leg. The callback barrier reaches every
// holder, so the trace must be clean under the lease staleness invariant
// with zero stale windows.
func a18Trace(tracePop int) (ZipfTrace, error) {
	leg := ZipfTrace{Population: tracePop, LeaseUS: a18Lease.Microseconds()}
	pop := popgen.NewPopulation(tracePop, a18Skew, a18PopSeed)
	sc := a18TraceScenario(pop)
	sc.Pop = pop
	res, ev, err := runChecked(sc)
	if err != nil {
		return leg, err
	}
	leg.Schedule = ev.ChaosLog
	leg.TotalRequests = res.Requests
	leg.Completed = ev.Completed
	leg.Errors = ev.Errors
	leg.Invalidations = ev.Client.Invalidations
	leg.TraceClean = true
	leg.StaleWindows = ev.StaleWindows
	return leg, nil
}

// a18Collect runs every leg at the given scale, producing both the
// JSON document and the experiment rows from the same data.
func a18Collect(scale a18Scale) (*ZipfDoc, []Row, error) {
	doc := &ZipfDoc{
		Tool:        "vbench -zipf",
		Description: "population-scale resolution: radix-vs-flat index cost, open-loop Zipf throughput and latency percentiles over population and skew, and the traced mid-run redefinition leg",
	}
	var rows []Row

	pops := make(map[int]*popgen.Population, len(scale.pops))
	for _, n := range scale.pops {
		pop := popgen.NewPopulation(n, a18Skew, a18PopSeed)
		pops[n] = pop
		pt := a18Index(pop)
		if pt.Population >= 100_000 && pt.Speedup <= 1 {
			return nil, nil, fmt.Errorf("a18 index n=%d: radix not faster than flat search (%.2f vs %.2f steps)",
				n, pt.RadixSteps, pt.FlatCompares)
		}
		if pt.RadixSteps > pt.FlatCompares {
			return nil, nil, fmt.Errorf("a18 index n=%d: radix slower than flat search (%.2f vs %.2f steps)",
				n, pt.RadixSteps, pt.FlatCompares)
		}
		doc.Index = append(doc.Index, pt)
		rows = append(rows, Row{
			Label:    fmt.Sprintf("index cost n=%d", n),
			Paper:    "-",
			Measured: fmt.Sprintf("%.2f vs %.2f steps", pt.RadixSteps, pt.FlatCompares),
			Note: fmt.Sprintf("radix descent vs flat binary search, %.1fx; index %d KB",
				pt.Speedup, pt.IndexBytes/1024),
		})
	}

	for _, tier := range []bool{false, true} {
		for _, n := range scale.pops {
			run, err := a18Run(pops[n], tier)
			if err != nil {
				return nil, nil, fmt.Errorf("a18 n=%d tier=%v: %w", n, tier, err)
			}
			doc.Sweep = append(doc.Sweep, run)
			equiv := "engine-only"
			if run.EquivalenceChecked {
				equiv = "≡ sequential"
			}
			rows = append(rows, Row{
				Label:    fmt.Sprintf("n=%d tier=%v", n, tier),
				Paper:    "-",
				Measured: fmt.Sprintf("%.0f req/s, p99 %s", run.ThroughputRPS, usms(run.P99US)),
				Note: fmt.Sprintf("p50 %s; %.1f%% client hits; table %d KB; %s",
					usms(run.P50US), 100*run.ClientHitRate, run.TableBytes/1024, equiv),
			})
		}
	}

	skewPop := pops[scale.skewPop]
	for _, skew := range a18SkewSweep {
		pop := skewPop
		if pop == nil || pop.Skew != skew {
			pop = popgen.NewPopulation(scale.skewPop, skew, a18PopSeed)
		}
		run, err := a18Run(pop, false)
		if err != nil {
			return nil, nil, fmt.Errorf("a18 skew=%v: %w", skew, err)
		}
		doc.SkewSweep = append(doc.SkewSweep, run)
		rows = append(rows, Row{
			Label:    fmt.Sprintf("skew=%.2f n=%d", skew, scale.skewPop),
			Paper:    "-",
			Measured: fmt.Sprintf("%.1f%% client hits", 100*run.ClientHitRate),
			Note: fmt.Sprintf("p50 %s, p99 %s; %d upstream grants",
				usms(run.P50US), usms(run.P99US), run.PrefixGrants),
		})
	}

	tr, err := a18Trace(scale.tracePop)
	if err != nil {
		return nil, nil, fmt.Errorf("a18 trace leg: %w", err)
	}
	if tr.StaleWindows != 0 {
		return nil, nil, fmt.Errorf("a18 trace leg: %d stale windows despite reachable holders", tr.StaleWindows)
	}
	if tr.Invalidations == 0 {
		return nil, nil, fmt.Errorf("a18 trace leg: redefinition invalidated no holder")
	}
	doc.Trace = tr
	rows = append(rows, Row{
		Label:    fmt.Sprintf("trace leg: redefine hottest of %d", tr.Population),
		Paper:    "-",
		Measured: "0 stale windows",
		Note: fmt.Sprintf("trace-checked (bound %s); %d holders invalidated",
			ms(a18Lease), tr.Invalidations),
	})
	return doc, rows, nil
}
