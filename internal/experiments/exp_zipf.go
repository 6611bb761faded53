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

// a18Index prices one population's lookups under both index shapes:
// the same fixed Zipf sample resolved through a compressed radix tree
// (counting node visits) and through binary search over the flat
// sorted name table (counting string comparisons) — the structure the
// prefix server used before the radix index replaced it. The leg reads
// the mean of each and the index's key storage (shared prefixes stored
// once) plus one 8-byte rank entry per name.
func a18Index(pop *popgen.Population) Leg {
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
	return Leg{Label: fmt.Sprintf("index cost n=%d", len(pop.Names)), Reads: reads{
		"population":    float64(len(pop.Names)),
		"radix_steps":   float64(radix) / a18IndexSample,
		"flat_compares": float64(flat) / a18IndexSample,
		"index_bytes":   float64(tree.KeyBytes() + tree.Len()*8),
	}}
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
// population. The leg reads the open-loop span, the p50/p99 open-loop
// latencies — virtual completion minus scheduled arrival, queueing
// included — and the authoritative prefix server's table footprint.
func a18Run(label string, pop *popgen.Population, tier bool) (Leg, error) {
	sc := a18Scenario(len(pop.Names), pop.Skew, tier)
	sc.Pop = pop
	return runLeg(label, sc, func(_ *rig.WorkloadResult, ev rig.Evidence) reads {
		first, last := ev.Topology.OpenLoopSpan()
		p50, p99 := a18Percentiles(ev.Topology.Latencies)
		return reads{
			"open_loop_span_ns": float64(last - first),
			"p50_ns":            float64(p50),
			"p99_ns":            float64(p99),
			"table_bytes":       float64(ev.Topology.Prefix.TableBytes()),
		}
	})
}

// openLoopThroughput is an open-loop leg's completed arrivals per
// virtual second of its span.
func (l Leg) openLoopThroughput() float64 {
	if span := l.ns("open_loop_span_ns"); span > 0 {
		return float64(l.requests()) / span.Seconds()
	}
	return 0
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

// a18Collect runs every leg at the given scale, producing the legs and
// the experiment rows from the same data.
func a18Collect(scale a18Scale) (Result, error) {
	var res Result
	pops := make(map[int]*popgen.Population, len(scale.pops))
	for _, n := range scale.pops {
		pop := popgen.NewPopulation(n, a18Skew, a18PopSeed)
		pops[n] = pop
		leg := a18Index(pop)
		radix, flat := leg.Reads["radix_steps"], leg.Reads["flat_compares"]
		if n >= 100_000 && flat/radix <= 1 {
			return Result{}, fmt.Errorf("a18 index n=%d: radix not faster than flat search (%.2f vs %.2f steps)", n, radix, flat)
		}
		if radix > flat {
			return Result{}, fmt.Errorf("a18 index n=%d: radix slower than flat search (%.2f vs %.2f steps)", n, radix, flat)
		}
		res.Legs = append(res.Legs, leg)
		res.Rows = append(res.Rows, Row{
			Label:    leg.Label,
			Paper:    "-",
			Measured: fmt.Sprintf("%.2f vs %.2f steps", radix, flat),
			Note: fmt.Sprintf("radix descent vs flat binary search, %.1fx; index %d KB",
				flat/radix, int(leg.Reads["index_bytes"])/1024),
		})
	}

	for _, tier := range []bool{false, true} {
		for _, n := range scale.pops {
			leg, err := a18Run(fmt.Sprintf("n=%d tier=%v", n, tier), pops[n], tier)
			if err != nil {
				return Result{}, fmt.Errorf("a18 n=%d tier=%v: %w", n, tier, err)
			}
			res.Legs = append(res.Legs, leg)
			equiv := "engine-only"
			if leg.Scenario.Sequential {
				equiv = "≡ sequential"
			}
			res.Rows = append(res.Rows, Row{
				Label:    leg.Label,
				Paper:    "-",
				Measured: fmt.Sprintf("%.0f req/s, p99 %s", leg.openLoopThroughput(), usms(leg.ns("p99_ns").Microseconds())),
				Note: fmt.Sprintf("p50 %s; %.1f%% client hits; table %d KB; %s",
					usms(leg.ns("p50_ns").Microseconds()), 100*hitRate(leg.Evidence.Client), int(leg.Reads["table_bytes"])/1024, equiv),
			})
		}
	}

	skewPop := pops[scale.skewPop]
	for _, skew := range a18SkewSweep {
		pop := skewPop
		if pop == nil || pop.Skew != skew {
			pop = popgen.NewPopulation(scale.skewPop, skew, a18PopSeed)
		}
		label := fmt.Sprintf("skew=%.2f n=%d", skew, scale.skewPop)
		leg, err := a18Run(label, pop, false)
		if err != nil {
			return Result{}, fmt.Errorf("a18 skew=%v: %w", skew, err)
		}
		res.Legs = append(res.Legs, leg)
		res.Rows = append(res.Rows, Row{
			Label:    label,
			Paper:    "-",
			Measured: fmt.Sprintf("%.1f%% client hits", 100*hitRate(leg.Evidence.Client)),
			Note: fmt.Sprintf("p50 %s, p99 %s; %d upstream grants",
				usms(leg.ns("p50_ns").Microseconds()), usms(leg.ns("p99_ns").Microseconds()), leg.Evidence.Prefix.Grants),
		})
	}

	// The traced leg: the callback barrier reaches every holder, so the
	// trace must be clean under the lease staleness invariant with zero
	// stale windows.
	pop := popgen.NewPopulation(scale.tracePop, a18Skew, a18PopSeed)
	sc := a18TraceScenario(pop)
	sc.Pop = pop
	tr, err := runLeg(fmt.Sprintf("trace: redefine hottest of %d", scale.tracePop), sc, nil)
	if err != nil {
		return Result{}, fmt.Errorf("a18 trace leg: %w", err)
	}
	if tr.Evidence.StaleWindows != 0 {
		return Result{}, fmt.Errorf("a18 trace leg: %d stale windows despite reachable holders", tr.Evidence.StaleWindows)
	}
	if tr.Evidence.Client.Invalidations == 0 {
		return Result{}, fmt.Errorf("a18 trace leg: redefinition invalidated no holder")
	}
	res.Legs = append(res.Legs, tr)
	res.Rows = append(res.Rows, Row{
		Label:    fmt.Sprintf("trace leg: redefine hottest of %d", scale.tracePop),
		Paper:    "-",
		Measured: "0 stale windows",
		Note: fmt.Sprintf("trace-checked (bound %s); %d holders invalidated",
			ms(a18Lease), tr.Evidence.Client.Invalidations),
	})
	return res, nil
}
