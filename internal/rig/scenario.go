// One description of a run: a Scenario is plain data — topology ×
// policy × workload × fault schedule — Boot the one way to build it, and
// Topology the one booted type. The paper's §6 testbed is Kind Paper
// (rig.go, where Config, Rig and New name Scenario, Topology and Boot for
// it); the sharded, engine-driven kinds are SharedPrefix and Zipf
// (shards.go, zipf.go).
// Run executes a scenario of any kind; Evidence is its one readout. The
// experiments are literals of it, a generated or shrunk schedule is one
// too, and a failing one is a JSON document.
package rig

import (
	"cmp"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/fileserver"
	"repro/internal/flight"
	"repro/internal/inetserver"
	"repro/internal/kernel"
	"repro/internal/mailserver"
	"repro/internal/metrics"
	"repro/internal/nameserver"
	"repro/internal/ncache"
	"repro/internal/netsim"
	"repro/internal/pipeserver"
	"repro/internal/popgen"
	"repro/internal/prefix"
	"repro/internal/printserver"
	"repro/internal/timeserver"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// Kind selects the topology a scenario boots.
type Kind string

const (
	// Paper is the §6 testbed: file servers fs1 and fs2, a services
	// machine and one diskless workstation per user (rig.go).
	Paper Kind = "paper"
	// SharedPrefix clients query [shard<own>]ShardHotPath through one
	// central prefix server and their own cache, in a closed loop.
	SharedPrefix Kind = "shared-prefix"
	// Zipf clients resolve Zipf-drawn names of a Population bound on the
	// central prefix server, on an open-loop arrival schedule (zipf.go).
	Zipf Kind = "zipf"
)

// Scenario describes one run. It holds no funcs and survives a JSON
// round trip unchanged (Pop aside, which is a cache of three other
// fields).
type Scenario struct {
	Kind Kind
	// Seed drives the network's deterministic RNG.
	Seed int64
	// Model overrides the cost model (default: the calibrated 3 Mbit
	// model; vtime.Model10Mbit() selects the faster wire).
	Model *vtime.CostModel
	// Requests is the run's length: each sharded client's closed-loop
	// Query iterations or Zipf open-loop arrivals, or the paced
	// operations of a Paper topology's one client.
	Requests int
	// FileServerTeam sets how many serving processes each file server
	// runs (§3.1 server teams). 0 or 1 keeps the single-process server.
	FileServerTeam int
	// FlushEvery, when positive, flushes a client's name cache before
	// every FlushEvery-th operation (fresh program instances start cold,
	// §2.3). On the sharded kinds it forces periodic Shared
	// re-resolutions through the prefix server and is the pre-lease
	// compat knob: with Lease set, lease coherence makes the blind flush
	// redundant and it is skipped (PROTOCOL.md §13). On Paper it makes
	// each outage catch a cached resolution stale.
	FlushEvery int
	// Lease, when positive, makes the prefix servers grant leases of this
	// length (PROTOCOL.md §13). Sharded clients run the lease cache with
	// callback invalidation; Paper sessions opt in individually with
	// EnableLeaseCache. Zipf requires it.
	Lease time.Duration
	// AutoTuneMax, when positive (requires Lease, which becomes the
	// floor), replaces the fixed lease length with the per-name
	// auto-tuner (PROTOCOL.md §15): grants grow from Lease toward this
	// cap while a name's redefinition rate stays low, and reset to the
	// floor when it churns.
	AutoTuneMax time.Duration
	// Trace installs a domain tracer recording every IPC primitive and
	// network frame as spans. Tracing charges zero virtual time, so traced
	// runs measure identically.
	Trace bool
	// TraceSample, when non-nil, installs the tracer in sampled mode
	// (PROTOCOL.md §15): O(k) retained spans at any population. Implies
	// Trace.
	TraceSample *trace.SampleConfig
	// Faults is the chaos schedule: fired at the engine's fences on the
	// sharded kinds, pumped from the paced session's clock on Paper.
	Faults []chaos.Event

	// Paper only. Users names the workstation users, one workstation
	// each (default: {"mann", "cheriton"}); ReadAhead controls the file
	// servers' buffer-cache read-ahead; Baseline also starts the
	// centralized name server of the §2.2 comparisons; Retry, when
	// non-nil, enables the client recovery policy on every session.
	Users     []string
	ReadAhead bool
	Baseline  bool
	Retry     *client.RetryPolicy
	// Replicas replicates the fs1 file service across this many
	// identically seeded read-only members (PROTOCOL.md §11,
	// replicated.go). 0 or 1 keeps the single-server topology.
	Replicas int

	// Sharded kinds only. Shards is the number of file-server shards (=
	// engine lanes), ClientsPerShard the co-resident clients on each.
	Shards          int
	ClientsPerShard int
	// CacheTier, when true (requires Lease), interposes a shared ncache
	// tier co-resident with the prefix host: clients address the tier,
	// which holds upstream leases and re-grants bounded sub-leases.
	CacheTier bool
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
	// Sequential also runs the scenario on a second, identical topology
	// through the ungated sequential driver — or, with Faults, with every
	// client in one engine lane, whose fences fire them at the same
	// quiescent cuts — and records whether the engine's result is deeply
	// equal to it.
	Sequential bool
}

// Topology is a booted Scenario: the substrate, its servers and the
// clients ready to drive. Rig is its name for the paper testbed.
type Topology struct {
	Kernel *kernel.Kernel
	Net    *netsim.Network
	Model  *vtime.CostModel
	// Tracer is the installed tracer (nil unless Trace or TraceSample).
	Tracer *trace.Tracer
	// Flight is the flight recorder (PROTOCOL.md §15), nil where nothing
	// reads it (Boot): a bounded ring journal of naming events, zero
	// virtual cost and zero hot-path allocations, sealed at engine fences
	// and dumped on chaos-test failure.
	Flight *flight.Recorder

	// Metrics is the paper testbed's metrics registry; instruments charge
	// zero virtual time (metrics package doc), so a metered run measures
	// identically. Sampler snapshots it on a fixed virtual-time tick,
	// pumped after the chaos engine by the paced drive (pace).
	// The sharded kinds install neither — a registry would cost their
	// host time on every resolution.
	Metrics *metrics.Registry
	Sampler *metrics.Sampler

	// The paper testbed (Kind Paper). FS1Members are the fs1 service's
	// servers, on hosts fs1, fs1b, fs1c, …: Replicas of them when
	// Replicas > 1, else one; FS1Host/FS1 alias the first. NSHost/NS exist
	// with Baseline. BinCtx is the standard program directory context on FS1.
	FS1Host      *kernel.Host
	FS1          *fileserver.FileServer
	FS2Host      *kernel.Host
	FS2          *fileserver.FileServer
	FS1Members   []*fileserver.FileServer
	ServicesHost *kernel.Host
	Print        *printserver.Server
	Inet         *inetserver.Server
	Mail         *mailserver.Server
	Time         *timeserver.Server
	Pipe         *pipeserver.Server
	NSHost       *kernel.Host
	NS           *nameserver.Server
	WS           []*Workstation
	BinCtx       core.ContextPair

	// The sharded kinds. PrefixHost and Prefix are the central "nexus"
	// prefix server, Tier the shared intermediate cache (nil unless
	// CacheTier); Hosts[s] runs shard s's file server Shards[s] and its
	// clients, and Clients are what Run drives (Paper: WS[0]'s session).
	PrefixHost *kernel.Host
	Prefix     *prefix.Server
	Tier       *ncache.Tier
	Hosts      []*kernel.Host
	Shards     []*fileserver.FileServer
	Clients    []*WorkloadClient
	// Zipf only: Schedule[c][i] is client c's i-th scheduled virtual
	// arrival and Latencies[c][i] that operation's open-loop latency
	// (virtual completion minus scheduled arrival), filled in as the
	// workload runs.
	Schedule  [][]time.Duration
	Latencies [][]time.Duration

	sc Scenario
	// fs1Seed is a replicated fs1's seed image (CheckFS1).
	fs1Seed []byte
	// owner names the sharded servers' owner, the sessions' user and the
	// client processes ("bench0-1").
	owner string
	// resolver is the process sharded clients address prefixed names to:
	// the prefix server or the tier in front of it.
	resolver kernel.PID

	sessMu   sync.Mutex
	sessions []*client.Session
}

// kinds gives each Kind the owner its sharded servers, sessions and
// client processes are named for, the check that validates and
// normalizes its scenario, and the step that boots its servers and
// clients on the substrate.
var kinds = map[Kind]struct {
	owner string
	check func(*Scenario) error
	boot  func(*Topology) error
}{
	Paper:        {"", (*Scenario).checkPaper, (*Topology).bootPaper},
	SharedPrefix: {"bench", (*Scenario).checkSharded, sharded((*Topology).addSharedPrefixClients)},
	Zipf:         {"pop", (*Scenario).checkZipf, sharded((*Topology).addZipfClients)},
}

// ErrIgnoredField is Boot's refusal of a scenario that sets a field its
// Kind ignores: a shape that would otherwise pass vacuously.
var ErrIgnoredField = errors.New("rig: scenario sets a field its kind ignores")

// ignores refuses sc if it sets one of the fields names lists, in order,
// which its Kind ignores.
func (sc *Scenario) ignores(names string, set ...bool) error {
	for i, name := range strings.Fields(names) {
		if set[i] {
			return fmt.Errorf("%w: %s sets %s", ErrIgnoredField, sc.Kind, name)
		}
	}
	return nil
}

// Boot boots the scenario's topology without running it: the substrate
// once for every kind — network, kernel, flight recorder and the full or
// sampled tracer — then the Kind's own step. Faults and Sequential are
// Run's business and are ignored here.
func (sc Scenario) Boot() (*Topology, error) {
	kind, ok := kinds[sc.Kind]
	if !ok {
		return nil, fmt.Errorf("rig: unknown scenario kind %q", sc.Kind)
	}
	if err := kind.check(&sc); err != nil {
		return nil, err
	}
	model := sc.Model
	if model == nil {
		model = vtime.DefaultModel()
	}
	net := netsim.New(model, sc.Seed)
	k := kernel.New(net)
	t := &Topology{Kernel: k, Net: net, Model: model, sc: sc, owner: kind.owner}
	// The flight ring, and with it the prefix servers' sketch (prefixOpts),
	// only beside a reader: Paper, a tracer, faults, the lease auto-tuner.
	if sc.Kind == Paper || sc.Trace || sc.TraceSample != nil || len(sc.Faults) > 0 || sc.AutoTuneMax > 0 {
		t.Flight = flight.New(1 << 14)
		k.SetFlight(t.Flight)
	}
	if sc.TraceSample != nil {
		t.Tracer = trace.NewSampled(*sc.TraceSample)
	} else if sc.Trace {
		t.Tracer = trace.New()
	}
	if t.Tracer != nil {
		k.SetTracer(t.Tracer)
		net.SetRecorder(t.Tracer)
	}
	if err := kind.boot(t); err != nil {
		return nil, err
	}
	return t, nil
}

// prefixOpts is the option list every prefix server the topology boots
// runs with: its lease policy, and the hot-name sketch beside the flight ring.
func (t *Topology) prefixOpts() []prefix.Option {
	opts := []prefix.Option{prefix.WithLease(t.sc.Lease)}
	if t.sc.Lease > 0 && t.sc.AutoTuneMax > 0 {
		opts[0] = prefix.WithLeaseAutoTune(t.sc.Lease, t.sc.AutoTuneMax)
	}
	if t.Flight != nil {
		opts = append(opts, prefix.WithNameStats())
	}
	return opts
}

// session starts a naming session on proc addressing resolver, with the
// recovery policy when the scenario has one, and records it: every
// session a topology creates is in the one list Sessions returns.
func (t *Topology) session(proc *kernel.Process, resolver kernel.PID, cur core.ContextPair, user string) *client.Session {
	s := client.New(proc, resolver, cur, user)
	if t.sc.Retry != nil {
		s.EnableResilience(*t.sc.Retry)
	}
	t.sessMu.Lock()
	t.sessions = append(t.sessions, s)
	t.sessMu.Unlock()
	return s
}

// Sessions returns every session the topology created, in creation
// order: the sharded kinds' clients in client order, the paper
// workstations' sessions and those NewSession added.
func (t *Topology) Sessions() []*client.Session {
	t.sessMu.Lock()
	defer t.sessMu.Unlock()
	return append([]*client.Session(nil), t.sessions...)
}

// Evidence is what one Run leaves behind, beyond the WorkloadResult.
type Evidence struct {
	// Topology is the topology the run drove, for one-off reads
	// (Prefix.TunedLease, Prefix.TopNames, Tracer.JSON, Latencies). It,
	// TraceErr and Journal are never serialized: the rest of Evidence is
	// plain data a document records.
	Topology *Topology `json:"-"`
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
	// when sampling drops roots, which retains too few grants to judge it.
	// StaleWindows counts the names a read served after their
	// redefinition committed, WidestStale the widest such window. All
	// zero on an untraced run.
	Spans        int
	TraceErr     error `json:"-"`
	Bound        time.Duration
	StaleWindows int
	WidestStale  time.Duration

	// Journal is the flight recorder's journal (sealed at every fence on
	// the sharded kinds; nil without a flight ring).
	Journal []flight.Event `json:"-"`

	// EqualToSequential is the Sequential verdict: WorkloadResult, per-op
	// latency matrix and summed client cache counters all equal, and on a
	// faulted run the chaos log and sealed journal too — the two runs saw
	// the same cache behaviour and the same faults, not just the same
	// latencies.
	EqualToSequential bool
}

// Run boots a scenario and drives it (Topology.Run): a sharded kind
// through the conservative engine, whose fences (PROTOCOL.md §12) fire
// the Faults through the chaos engine NewChaos built and then seal the
// flight recorder at the quiescent cut, a Paper one paced (pace). With
// Sequential it first drives the reference — the ungated sequential
// driver RunWorkload, or, with Faults or on Paper, the same drive with
// every client in lane 0 — and adds the oracle that needs two
// topologies: equal to it. Its error is Topology.Run's verdict, else that.
func Run(sc Scenario) (*WorkloadResult, Evidence, error) {
	var seq *WorkloadResult
	var ref *Topology
	var refLog []string
	if sc.Sequential {
		var err error
		if ref, err = sc.Boot(); err != nil {
			return nil, Evidence{}, err
		}
		if len(sc.Faults) == 0 && sc.Kind != Paper {
			seq = RunWorkload(ref.Clients)
		} else {
			for _, c := range ref.Clients {
				c.Lane = 0
			}
			seq, refLog = ref.drive()
		}
	}

	t, err := sc.Boot()
	if err != nil {
		return nil, Evidence{}, err
	}
	res, ev, err := t.Run()
	ev.EqualToSequential = seq != nil && reflect.DeepEqual(seq, res) &&
		reflect.DeepEqual(ref.Latencies, t.Latencies) && ref.leaseTotals() == ev.Client &&
		reflect.DeepEqual(refLog, ev.ChaosLog) &&
		(len(sc.Faults) == 0 || reflect.DeepEqual(ref.Flight.Journal(), ev.Journal))
	if err == nil && sc.Sequential && !ev.EqualToSequential {
		err = errors.New("rig: engine result differs from the sequential reference")
	}
	return res, ev, err
}

// check holds a run's evidence to every oracle one topology can answer
// and names the first it violates: no operation lost, none failed
// without Faults, the trace's invariants, CheckFS1, chaos.CheckLog.
func (t *Topology) check(ev Evidence) error {
	requests := 0
	for _, c := range t.Clients {
		requests += c.Requests
	}
	switch {
	case ev.Completed+ev.Errors != requests:
		return fmt.Errorf("rig: %d operations completed and %d failed of %d: the rest were lost", ev.Completed, ev.Errors, requests)
	case len(t.sc.Faults) == 0 && ev.Errors != 0:
		return fmt.Errorf("rig: %d operations failed without faults", ev.Errors)
	case ev.TraceErr != nil:
		return fmt.Errorf("rig: trace violates the span or lease staleness invariants: %w", ev.TraceErr)
	}
	return cmp.Or(t.CheckFS1(), chaos.CheckLog(ev.ChaosLog))
}

// Run drives a booted topology's clients, firing its scenario's Faults,
// reads out the evidence and returns the first oracle the run violates
// (check). A caller needing setup the package Run cannot express — a
// mirror, a static binding, a cache mode, another Op for a Paper client
// — boots, sets up, then calls it: the verdict less Sequential's.
func (t *Topology) Run() (*WorkloadResult, Evidence, error) {
	res, chaosLog := t.drive()
	ev := Evidence{Topology: t, ChaosLog: chaosLog, Client: t.leaseTotals()}
	for _, st := range res.Clients {
		ev.Completed += st.Completed
		ev.Errors += st.Errors
	}
	if t.Tier != nil {
		ev.Tier = t.Tier.Stats()
	}
	if t.Prefix != nil {
		ev.Prefix = t.Prefix.LeaseStats()
	}
	if t.Tracer != nil {
		ev.Bound = t.sc.leaseBound()
		spans := t.Tracer.Snapshot()
		ev.Spans = len(spans)
		ev.TraceErr = t.checkTrace(spans)
		for _, w := range trace.StaleWindows(spans) {
			ev.StaleWindows++
			ev.WidestStale = max(ev.WidestStale, time.Duration(w.Window))
		}
	}
	ev.Journal = t.Flight.Journal()
	return res, ev, t.check(ev)
}

// leaseBound is the widest lease the scenario's prefix servers can
// grant — AutoTuneMax when tuning, else Lease — and zero when sampling
// drops roots, which retains too few grants to judge lease staleness. A
// head-1/1 sampler keeps every root, and with them every grant.
func (sc *Scenario) leaseBound() time.Duration {
	if sc.TraceSample != nil && sc.TraceSample.HeadEvery > 1 {
		return 0
	}
	return max(sc.Lease, sc.AutoTuneMax)
}

// checkTrace runs trace.Check over spans with every invariant the
// scenario can be held to: wire packets against its cost model (#6) and
// lease staleness within its leaseBound (#7).
func (t *Topology) checkTrace(spans []trace.Span) error {
	return trace.Check(spans, trace.CheckOptions{Model: t.Model, LeaseBound: t.sc.leaseBound()})
}

// CheckTrace runs checkTrace, the check Run makes, over the recorded
// trace. A topology built without Trace passes trivially.
func (t *Topology) CheckTrace() error {
	if t.Tracer == nil {
		return nil
	}
	return t.checkTrace(t.Tracer.Snapshot())
}

// drive runs the topology's clients — a sharded kind's through the
// conservative engine with the scenario's Faults fired at fences, each
// firing sealing the flight recorder, a Paper topology's paced — and
// returns the result and the fired-event log (nil without Faults).
func (t *Topology) drive() (*WorkloadResult, []string) {
	var eng *chaos.Engine
	if len(t.sc.Faults) > 0 || t.sc.Kind == Paper {
		eng = t.NewChaos(t.sc.Faults)
	}
	var res *WorkloadResult
	if t.sc.Kind == Paper {
		res = t.pace(eng)
	} else {
		res = RunWorkloadEngine(t.Clients, EngineOptions{Fences: SealFlightAtFences(ChaosFences(eng), t.Flight)})
	}
	if len(t.sc.Faults) == 0 {
		return res, nil
	}
	return res, eng.Log()
}

// leaseTotals sums the lease-cache counters of every session.
func (t *Topology) leaseTotals() (sum client.LeaseStats) {
	for _, s := range t.Sessions() {
		st := s.LeaseCacheStats()
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
