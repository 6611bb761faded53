package main

import (
	"fmt"
	"time"

	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/popgen"
	"repro/internal/prefix"
	"repro/internal/rig"
	"repro/internal/trace"
)

// Every population workload uses the same 4 shards x 2 clients topology
// (rig.NewZipfWorkload); only population, skew, lease and offered load vary.
const (
	zipfShards          = 4
	zipfClientsPerShard = 2
	zipfClients         = zipfShards * zipfClientsPerShard
)

// zipfShape is one open-loop resolution workload over rig.NewZipfWorkload.
type zipfShape struct {
	population   int
	skew         float64
	lease        time.Duration
	interarrival time.Duration // mean, per client
	arrivals     int           // per client
	// observed turns on every observer through its public install.
	observed bool
	// tier interposes the shared ncache tier (traced re-run only).
	tier bool
	// redefines, when positive, adds the define_churn admin session doing
	// this many DeleteName+AddName redefinitions, one every adminGap.
	redefines int
	adminGap  time.Duration
}

var (
	missShape = zipfShape{population: 100_000, skew: 0.5, lease: 20 * time.Millisecond,
		interarrival: 56 * time.Millisecond, arrivals: 15_000}
	hitShape = zipfShape{population: 100_000, skew: 1.3, lease: 10 * time.Second,
		interarrival: 20 * time.Millisecond, arrivals: 60_000}
	churnShape = zipfShape{population: 300_000, skew: 0.99, lease: 2 * time.Second,
		interarrival: 64 * time.Millisecond, arrivals: 11_250,
		redefines: 10_000, adminGap: 64 * time.Millisecond}
)

func observedShape() zipfShape {
	z := missShape
	z.arrivals = 6_000
	z.observed = true
	return z
}

// zipfInputs are the seed-derived inputs of one process: generated once,
// shared by every repetition, and excluded from every end-to-end metric.
type zipfInputs struct {
	pop *popgen.Population
	// draws[c][i] is client c's i-th drawn name, bracketed.
	draws    [][]string
	distinct int // different names among the draws
	sched    [][]time.Duration
	// redefine[i] is the rank the admin session redefines at iteration i.
	redefine   []int
	adminSched []time.Duration
}

func (z zipfShape) scaled(div int) zipfShape {
	if div > 1 {
		z.population = max(z.population/div, zipfShards*8)
		z.arrivals = max(z.arrivals/div, 8)
		if z.redefines > 0 {
			z.redefines = max(z.redefines/div, 4)
		}
	}
	return z
}

func (z zipfShape) inputs(seed uint64) *zipfInputs {
	in := &zipfInputs{pop: popgen.NewPopulation(z.population, z.skew, mix(seed, 1))}
	quoted := make([]string, len(in.pop.Names))
	for r, n := range in.pop.Names {
		quoted[r] = prefix.Quote(n)
	}
	drawn := make([]bool, z.population)
	for ci := 0; ci < zipfClients; ci++ {
		shard := ci / zipfClientsPerShard
		sampler := in.pop.Sampler(mix(seed, 100+uint64(ci)))
		draws := make([]string, z.arrivals)
		for i := range draws {
			// Snap the rank to the client's own shard, as the rig's own
			// draws do: the resolved route then stays co-resident, which is
			// what lets the engine prove lease hits lane-confined.
			r := sampler.NextRank()
			idx := r - r%zipfShards + shard
			if idx >= z.population {
				idx -= zipfShards
			}
			draws[i] = quoted[idx]
			if !drawn[idx] {
				drawn[idx] = true
				in.distinct++
			}
		}
		in.draws = append(in.draws, draws)
		in.sched = append(in.sched, popgen.Arrivals(z.arrivals, 0, z.interarrival, mix(seed, 200+uint64(ci))))
	}
	if z.redefines > 0 {
		sampler := in.pop.Sampler(mix(seed, 300))
		in.redefine = make([]int, z.redefines)
		for i := range in.redefine {
			in.redefine[i] = sampler.NextRank()
		}
		in.adminSched = popgen.Arrivals(z.redefines, 0, z.adminGap, mix(seed, 301))
	}
	return in
}

func (z zipfShape) workload(name string) *workload {
	return &workload{name: name, openLoop: true, engine: z.redefines == 0,
		prepare: func(seed uint64, div int) func() (*instance, error) {
			zs := z.scaled(div)
			in := zs.inputs(seed)
			return func() (*instance, error) { return zs.build(in, seed) }
		}}
}

// build boots one fresh topology and installs the benchmark's client
// programs on it: the rig supplies the servers, sessions and the bound
// population; the benchmark supplies draws, arrivals, the answer check
// and the engine classifier.
func (z zipfShape) build(in *zipfInputs, seed uint64) (*instance, error) {
	cfg := rig.ZipfConfig{
		Population: z.population, Skew: z.skew, Pop: in.pop,
		Shards: zipfShards, ClientsPerShard: zipfClientsPerShard,
		// The rig's own draw streams ignore the run seed; the benchmark
		// replaces them below, so ask for the minimum.
		Arrivals: 1, Interarrival: z.interarrival,
		Lease: z.lease, CacheTier: z.tier, Seed: int64(mix(seed, 2) >> 1),
	}
	if z.observed {
		cfg.TraceSample = &trace.SampleConfig{HeadEvery: 32, SlowOver: 50 * time.Millisecond}
	}
	zw, err := rig.NewZipfWorkload(cfg)
	if err != nil {
		return nil, err
	}
	inst := &instance{
		clients: zw.Clients,
		drive: func(cs []*rig.WorkloadClient) *rig.WorkloadResult {
			return rig.RunWorkloadEngine(cs, rig.EngineOptions{})
		},
		hosts:         append(append([]*kernel.Host{}, zw.Hosts...), zw.PrefixHost),
		distinctNames: in.distinct,
	}
	inst.layers = layers{kernel: zw.Kernel, net: zw.Net, sessions: zw.Sessions(),
		prefixes: []*prefix.Server{zw.Prefix}, tier: zw.Tier}
	if z.observed {
		z.observe(inst, zw)
	}
	k := zw.Kernel
	for ci, c := range zw.Clients {
		shard := ci / zipfClientsPerShard
		want := zw.Shards[shard].RootPair()
		host := zw.Hosts[shard]
		draws, sched := in.draws[ci], in.sched[ci]
		lat := make([]time.Duration, len(draws))
		inst.lat = append(inst.lat, lat)
		if last := sched[len(sched)-1]; last > inst.lastArrival {
			inst.lastArrival = last
		}
		c.Requests = len(draws)
		c.Arrive = func(i int) time.Duration { return sched[i] }
		c.Op = func(s *client.Session, i int) error {
			pair, err := s.MapContext(draws[i])
			lat[i] = s.Proc().Now() - sched[i]
			if err == nil && pair != want {
				err = errWrongAnswer
			}
			return err
		}
		// Confined exactly when the client holds a valid lease whose route
		// stays on its own shard (the rig's own classifier rule).
		c.Classify = func(s *client.Session, i int) engine.Class {
			pair, ok := s.LeasedRoute(draws[i], s.Proc().Now())
			if !ok {
				return engine.Shared
			}
			if h := k.HostOf(pair.Server); h == nil || h.Shard() < 0 || h.Shard() != host.Shard() {
				return engine.Shared
			}
			return engine.Confined
		}
	}
	if z.redefines > 0 {
		if err := z.addAdmin(inst, zw, in); err != nil {
			return nil, err
		}
	}
	return inst, nil
}

// observe turns on every observer through its public install: a metrics
// registry on kernel and network, the sampled tracer (installed by the rig
// from ZipfConfig.TraceSample), the always-on flight recorder sealed at
// one engine fence per virtual second, and the prefix server's hot-name
// sketch published into the registry when the run ends.
func (z zipfShape) observe(inst *instance, zw *rig.ZipfWorkload) {
	reg := metrics.New()
	zw.Kernel.SetMetrics(reg)
	zw.Net.SetMetrics(reg)
	inst.layers.registry = reg
	fired := new(int)
	inst.layers.fences = fired
	fences := rig.SealFlightAtFences(engine.Fences{
		Next: func(after time.Duration) (time.Duration, bool) {
			return (after/time.Second + 1) * time.Second, true
		},
		Fire: func(time.Duration) { *fired++ },
	}, zw.Flight)
	inst.drive = func(cs []*rig.WorkloadClient) *rig.WorkloadResult {
		res := rig.RunWorkloadEngine(cs, rig.EngineOptions{Fences: fences})
		zw.Prefix.PublishNamestat(reg)
		return res
	}
}

// addAdmin adds define_churn's writer: one session on its own host that
// deletes and re-adds Zipf-drawn names (rebinding each to the pair it had),
// so redefinitions of hot names find lease holders and run the
// callback-invalidation barrier. A redefinition revokes leases held in
// other lanes, so the workload runs on the single-lane driver.
func (z zipfShape) addAdmin(inst *instance, zw *rig.ZipfWorkload, in *zipfInputs) error {
	host := zw.Kernel.NewHost("admin")
	proc, err := host.NewProcess("admin")
	if err != nil {
		return fmt.Errorf("admin: %w", err)
	}
	sess := client.New(proc, zw.Prefix.PID(), zw.Shards[0].RootPair(), "admin")
	sched := in.adminSched
	lat := make([]time.Duration, len(sched))
	inst.lat = append(inst.lat, lat)
	if last := sched[len(sched)-1]; last > inst.lastArrival {
		inst.lastArrival = last
	}
	inst.hosts = append(inst.hosts, host)
	inst.clients = append(inst.clients, &rig.WorkloadClient{
		Session:  sess,
		Requests: len(sched),
		Lane:     zipfShards,
		Arrive:   func(i int) time.Duration { return sched[i] },
		Op: func(s *client.Session, i int) error {
			r := in.redefine[i]
			name := in.pop.Names[r]
			err := s.DeleteName(name)
			if err == nil {
				err = s.AddName(name, zw.Shards[r%zipfShards].RootPair())
			}
			lat[i] = s.Proc().Now() - sched[i]
			return err
		},
	})
	inst.drive = rig.RunWorkload
	return nil
}
