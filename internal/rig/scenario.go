// One description of a sharded run (ROADMAP item 1a): a Scenario is
// plain data — topology × policy × workload × fault schedule — Run is
// the one way to execute it, and Evidence the one readout. The
// experiments are literals of it; a generated or shrunk schedule is one
// too, and a failing one is a JSON document.
package rig

import (
	"errors"
	"fmt"
	"reflect"
	"time"

	"repro/internal/chaos"
	"repro/internal/client"
	"repro/internal/flight"
	"repro/internal/ncache"
	"repro/internal/popgen"
	"repro/internal/prefix"
	"repro/internal/trace"
)

// Kind selects how a scenario's clients reach their shard's file server
// (shards.go describes the shape they share).
type Kind string

const (
	// Direct clients query ShardHotPath relative to their co-resident
	// server's root: no prefix server, every request lane-local.
	Direct Kind = "direct"
	// SharedPrefix clients query [shard<own>]ShardHotPath through one
	// central prefix server and their own cache, in a closed loop.
	SharedPrefix Kind = "shared-prefix"
	// Zipf clients resolve Zipf-drawn names of a Population bound on the
	// central prefix server, on an open-loop arrival schedule (zipf.go).
	Zipf Kind = "zipf"
)

// Scenario describes one sharded run. It holds no funcs and survives a
// JSON round trip unchanged (Pop aside, which is a cache of three other
// fields).
type Scenario struct {
	Kind Kind
	// Shards is the number of file-server shards (= engine lanes).
	Shards int
	// ClientsPerShard is the number of co-resident clients per shard.
	ClientsPerShard int
	// Requests is each client's quota: closed-loop Query iterations, or
	// open-loop arrivals for Zipf.
	Requests int
	// Team is each shard file server's team size (0/1 = single process).
	Team int
	// Seed drives the network's deterministic RNG.
	Seed int64

	// FlushEvery, when positive, flushes each client's name cache every
	// FlushEvery iterations (fresh program instances start cold, §2.3),
	// forcing periodic Shared re-resolutions through the prefix server.
	// Zero means only iteration 0 misses. It is the pre-lease compat
	// knob: with Lease set, flushes are skipped — lease coherence makes
	// the blind flush redundant (PROTOCOL.md §13).
	FlushEvery int
	// Lease, when positive, replaces the invalidate-and-retry name cache
	// with the lease-coherent hierarchy: the prefix server grants leases
	// of this length, clients run the lease cache with callback
	// invalidation, and expired entries revalidate instead of flushing.
	// Zipf requires it.
	Lease time.Duration
	// CacheTier, when true (requires Lease), interposes a shared ncache
	// tier co-resident with the prefix host: clients address the tier,
	// which holds upstream leases and re-grants bounded sub-leases.
	CacheTier bool
	// AutoTuneMax, when positive (requires Lease, which becomes the
	// floor), replaces the fixed lease length with the per-name
	// auto-tuner (PROTOCOL.md §15): grants grow from Lease toward this
	// cap while a name's redefinition rate stays low, and reset to the
	// floor when it churns.
	AutoTuneMax time.Duration

	// Trace installs a domain tracer on the kernel and network. Tracing
	// charges zero virtual time, so traced runs measure identically.
	Trace bool
	// TraceSample, when non-nil, installs the tracer in sampled mode
	// (PROTOCOL.md §15): O(k) retained spans at any population. Implies
	// Trace.
	TraceSample *trace.SampleConfig

	// Population is the number of names a Zipf scenario binds on the
	// prefix server, Skew their Zipf popularity exponent (0 = uniform;
	// may be < 1) and PopSeed their name-shape stream.
	Population int
	Skew       float64
	PopSeed    uint64
	// Interarrival is a Zipf client's mean virtual inter-arrival gap.
	Interarrival time.Duration
	// Pop, when non-nil, is popgen.NewPopulation(Population, Skew,
	// PopSeed) already generated, so legs over one population share one
	// generation pass. Never serialized: it adds nothing to the three.
	Pop *popgen.Population `json:"-"`

	// Faults is the chaos schedule, fired at the engine's fences.
	Faults []chaos.Event
	// Sequential also runs the scenario on a second, identical topology
	// through the ungated sequential driver and records whether the
	// engine's result is deeply equal to it. The sequential driver has no
	// fences, so it cannot be combined with Faults.
	Sequential bool
}

// Evidence is what one Run leaves behind, beyond the WorkloadResult.
type Evidence struct {
	// Topology is the topology the engine ran, for one-off reads
	// (Prefix.TunedLease, Prefix.TopNames, Tracer.JSON, Latencies).
	Topology *Topology
	// Completed and Errors sum the per-client outcomes; every request is
	// one or the other.
	Completed, Errors int
	// ChaosLog is the fired-event log, verbatim (nil without Faults).
	ChaosLog []string
	// Client sums the lease-cache counters of every client session; Tier
	// and Prefix are the cache tier's and the prefix server's own (zero
	// without one).
	Client client.LeaseStats
	Tier   ncache.Stats
	Prefix prefix.LeaseStats

	// Spans is the number of spans the tracer retained, and TraceErr
	// trace.Check's verdict on them with the lease staleness invariant
	// (#7) held to Bound: the widest lease the server can have granted —
	// AutoTuneMax when tuning, else Lease — and zero (the invariant off)
	// under sampling, which retains too few grants to judge it.
	// StaleWindows counts the names a read served after their
	// redefinition committed, WidestStale the widest such window. All
	// zero on an untraced run.
	Spans        int
	TraceErr     error
	Bound        time.Duration
	StaleWindows int
	WidestStale  time.Duration

	// Journal is the flight recorder's sealed journal (Run seals at every
	// fence).
	Journal []flight.Event

	// EqualToSequential is the Sequential verdict: WorkloadResult, per-op
	// latency matrix and summed client cache counters all equal — the two
	// drivers saw the same cache behaviour, not just the same latencies.
	EqualToSequential bool
}

// Run boots the scenario and drives it through the conservative engine
// with the standard fence wiring (PROTOCOL.md §12): fence times are the
// fault schedule's event times, each firing pumps the chaos engine —
// which executes Redefine events through an admin session on the prefix
// host — and then seals the flight recorder at the quiescent cut.
func Run(sc Scenario) (*WorkloadResult, Evidence, error) {
	var ev Evidence
	var seq *WorkloadResult
	var ref *Topology
	if sc.Sequential {
		if len(sc.Faults) > 0 {
			return nil, ev, errors.New("rig: the sequential reference has no fences to fire Faults at")
		}
		var err error
		if ref, err = sc.Boot(); err != nil {
			return nil, ev, err
		}
		seq = RunWorkload(ref.Clients)
	}

	t, err := sc.Boot()
	if err != nil {
		return nil, ev, err
	}
	var eng *chaos.Engine
	if len(sc.Faults) > 0 {
		eng = chaos.New(t.Kernel, sc.Faults)
		eng.RedefineHook = t.redefine
	}
	fences := SealFlightAtFences(ChaosFences(eng), t.Flight)
	res := RunWorkloadEngine(t.Clients, EngineOptions{Fences: fences})

	ev.Topology = t
	for _, st := range res.Clients {
		ev.Completed += st.Completed
		ev.Errors += st.Errors
	}
	if eng != nil {
		ev.ChaosLog = eng.Log()
	}
	ev.Client = t.leaseTotals()
	if t.Tier != nil {
		ev.Tier = t.Tier.Stats()
	}
	if t.Prefix != nil {
		ev.Prefix = t.Prefix.LeaseStats()
	}
	if t.Tracer != nil {
		if sc.TraceSample == nil {
			ev.Bound = max(sc.Lease, sc.AutoTuneMax)
		}
		spans := t.Tracer.Snapshot()
		ev.Spans = len(spans)
		ev.TraceErr = trace.Check(spans, trace.CheckOptions{LeaseBound: ev.Bound})
		for _, w := range trace.StaleWindows(spans) {
			ev.StaleWindows++
			ev.WidestStale = max(ev.WidestStale, time.Duration(w.Window))
		}
	}
	ev.Journal = t.Flight.Journal()
	ev.EqualToSequential = seq != nil && reflect.DeepEqual(seq, res) &&
		reflect.DeepEqual(ref.Latencies, t.Latencies) && ref.leaseTotals() == ev.Client
	return res, ev, nil
}

// leaseTotals sums the lease-cache counters of every client session.
func (t *Topology) leaseTotals() (sum client.LeaseStats) {
	for _, c := range t.Clients {
		st := c.Session.LeaseCacheStats()
		sum.Hits += st.Hits
		sum.Misses += st.Misses
		sum.NegativeHits += st.NegativeHits
		sum.Renewals += st.Renewals
		sum.Invalidations += st.Invalidations
		sum.Stale += st.Stale
	}
	return sum
}

// redefine executes a chaos.Redefine event: a fresh admin session on the
// prefix host deletes ev.Name and re-adds it bound to shard ev.Shard's
// root. Fired at a quiescent cut, it is deterministic under the
// concurrent engine. The session is co-resident with the server, so the
// mutation commits even while the host is partitioned away — and then
// its callback barrier reaches no holder.
func (t *Topology) redefine(ev chaos.Event) error {
	if t.Prefix == nil {
		return errors.New("topology has no prefix server")
	}
	if ev.Shard < 0 || ev.Shard >= len(t.Shards) {
		return fmt.Errorf("shard %d out of range", ev.Shard)
	}
	proc, err := t.PrefixHost.NewProcess("admin")
	if err != nil {
		return err
	}
	// A fresh process starts at virtual zero and a partitioned server's
	// clock stalls; see chaos.Event.AtEventTime for who wants which.
	if wait := ev.At - proc.Now(); ev.AtEventTime && wait > 0 {
		proc.ChargeCompute(wait)
	}
	root := t.Shards[ev.Shard].RootPair()
	adm := client.New(proc, t.Prefix.PID(), root, "admin")
	if err := adm.DeleteName(ev.Name); err != nil {
		return err
	}
	return adm.AddName(ev.Name, root)
}
