package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fileserver"
	"repro/internal/flight"
	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/namestat"
	"repro/internal/nametree"
	"repro/internal/ncache"
	"repro/internal/netsim"
	"repro/internal/popgen"
	"repro/internal/prefix"
	"repro/internal/proto"
	"repro/internal/rig"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// Probes call one layer's public function in batches and report the median
// batch: host ns per call in reference-host time (calibrate.go) and, where
// named, allocations per call. Batch sizes are per probe: about 10^5 calls
// for the nanosecond-scale functions and fewer for the microsecond-scale
// ones, so that all probes together take about seven seconds of a traced
// run's budget.
const probeBatches = 5

// probeSize scales every probe's batch size down (the smoke test uses 100).
type probeSize struct{ div int }

func (z probeSize) n(calls int) int { return max(calls/z.div, 16) }

// timed runs fn and returns the CPU time it took in reference-host ns,
// from one calibration sample on each side of it (a probe reports the
// median of probeBatches such times).
func timed(fn func()) float64 {
	before := calibrationSample()
	c0 := cpuTime()
	fn()
	d := cpuTime() - c0
	return float64(d.Nanoseconds()) / slowdown([]time.Duration{before, calibrationSample()})
}

// batches runs fn(batch index, calls) probeBatches times and returns the
// median ns per call and the median allocations per call.
func batches(calls int, fn func(b, n int)) (ns, allocs float64) {
	var nsv, av []float64
	var m0, m1 runtime.MemStats
	for b := 0; b < probeBatches; b++ {
		runtime.ReadMemStats(&m0)
		var mallocs uint64
		t := timed(func() {
			fn(b, calls)
			runtime.ReadMemStats(&m1)
			mallocs = m1.Mallocs - m0.Mallocs
		})
		nsv = append(nsv, t/float64(calls))
		av = append(av, float64(mallocs)/float64(calls))
	}
	return median(nsv), median(av)
}

// traffic is what one call of a probe that crosses layers puts on the
// kernel and the wire. The reconciliation charges those transactions and
// frames to kernel and netsim, and only the rest of the probe's time to
// the layer the probe is named after.
type traffic struct{ sends, frames float64 }

// probeOut is what the probes produce: the per-layer metrics, and for the
// probes that cross layers, their traffic per call.
type probeOut struct {
	metrics map[string]metric
	traffic map[string]traffic
}

func (o probeOut) ns(name string, v float64)    { o.metrics[name] = metric{v, "ns"} }
func (o probeOut) count(name string, v float64) { o.metrics[name] = metric{v, "1"} }
func (o probeOut) value(name string) float64    { return o.metrics[name].Value }

// meter reads the kernel transactions and wire frames a probe's topology
// has made so far.
type meter struct {
	reg *metrics.Registry
	net *netsim.Network
}

func newMeter(k *kernel.Kernel) meter {
	m := meter{reg: k.Metrics(), net: k.Network()}
	if m.reg == nil {
		m.reg = metrics.New()
		k.SetMetrics(m.reg)
	}
	return m
}

func (m meter) read() traffic {
	t := traffic{frames: float64(m.net.Stats().Packets)}
	for _, p := range m.reg.Snapshot().Counters {
		if p.Name == "kernel_sends_total" {
			t.sends += float64(p.Value)
		}
	}
	return t
}

// crossing runs a batched probe of a call that crosses layers and records
// the traffic one call makes beside its time.
func (o probeOut) crossing(name string, m meter, calls int, fn func(b, n int)) (allocs float64) {
	t0 := m.read()
	ns, allocs := batches(calls, fn)
	t1 := m.read()
	o.ns(name, ns)
	n := float64(probeBatches * calls)
	o.traffic[name] = traffic{(t1.sends - t0.sends) / n, (t1.frames - t0.frames) / n}
	return allocs
}

// runProbes runs every probe and returns the per-layer metrics they
// produce. Each probe boots what it needs and crashes it afterwards.
func runProbes(seed uint64, z probeSize) (probeOut, error) {
	out := probeOut{metrics: map[string]metric{}, traffic: map[string]traffic{}}
	for _, p := range []func(uint64, probeSize, probeOut) error{
		probePopgenAndNametree, probeKernelAndNetsim, probePrefixAndClient,
		probeRedefine, probeFileServing, probeEngineGate, probeObservers,
	} {
		if err := p(seed, z, out); err != nil {
			return probeOut{}, err
		}
	}
	return out, nil
}

func mustSend(p *kernel.Process, msg *proto.Message, dst kernel.PID) *proto.Message {
	reply, err := p.Send(msg, dst)
	if err != nil {
		panic(fmt.Sprintf("bench probe: send to %v: %v", dst, err))
	}
	return reply
}

// probePopgenAndNametree: popgen.draw_ns, popgen.name_gen_ns, and the radix
// index on its own: Get/GetSteps over 10^5 keys with Zipf draws,
// Insert/Delete against a 3x10^5-key tree.
func probePopgenAndNametree(seed uint64, z probeSize, out probeOut) error {
	n := z.n(100_000)
	var pop *popgen.Population
	t := timed(func() { pop = popgen.NewPopulation(n, 0.99, mix(seed, 1)) })
	out.ns("popgen.name_gen_ns", t/float64(n))

	draws := make([]string, n)
	sampler := pop.Sampler(mix(seed, 100))
	ns, _ := batches(n, func(_, calls int) {
		for i := 0; i < calls; i++ {
			draws[i] = pop.Names[sampler.NextRank()]
		}
	})
	out.ns("popgen.draw_ns", ns)

	small := nametree.New[int]()
	for i, name := range pop.Names {
		small.Insert(name, i)
	}
	found := 0
	ns, _ = batches(n, func(_, calls int) {
		for _, key := range draws[:calls] {
			if _, ok := small.Get(key); ok {
				found++
			}
		}
	})
	if found != probeBatches*n {
		return fmt.Errorf("nametree probe: %d of %d draws found", found, probeBatches*n)
	}
	out.ns("nametree.get_ns", ns)
	steps := 0
	for _, key := range draws {
		_, _, s := small.GetSteps(key)
		steps += s
	}
	out.count("nametree.get_steps", float64(steps)/float64(n))

	big := nametree.New[int]()
	bigPop := popgen.NewPopulation(z.n(300_000), 0.99, mix(seed, 3))
	for i, name := range bigPop.Names {
		big.Insert(name, i)
	}
	// Fresh keys share the population's prefix structure: each is an
	// existing name with a batch-specific suffix.
	batch := z.n(15_000)
	fresh := make([][]string, probeBatches)
	for b := range fresh {
		fresh[b] = make([]string, batch)
		for i := range fresh[b] {
			fresh[b][i] = fmt.Sprintf("%s.x%d", bigPop.Names[(i*7)%len(bigPop.Names)], b)
		}
	}
	ns, allocs := batches(batch, func(b, _ int) {
		for i, key := range fresh[b] {
			big.Insert(key, i)
		}
	})
	out.ns("nametree.insert_ns", ns)
	out.count("nametree.insert_allocs", allocs)
	ns, _ = batches(batch, func(b, _ int) {
		for _, key := range fresh[b] {
			big.Delete(key)
		}
	})
	out.ns("nametree.delete_ns", ns)
	if big.Len() != len(bigPop.Names) {
		return fmt.Errorf("nametree probe: %d keys left, want %d", big.Len(), len(bigPop.Names))
	}
	return nil
}

func startEcho(h *kernel.Host) (*kernel.Process, error) {
	return h.Spawn("echo", func(p *kernel.Process) {
		for {
			msg, from, err := p.Receive()
			if err != nil {
				return
			}
			reply := *msg
			reply.Op = proto.ReplyOK
			if p.Reply(&reply, from) != nil {
				return
			}
		}
	})
}

// probeKernelAndNetsim: a Send-Receive-Reply transaction to an echo
// process, co-resident and across the simulated wire, and the wire model
// alone.
func probeKernelAndNetsim(seed uint64, z probeSize, out probeOut) error {
	net := netsim.New(vtime.DefaultModel(), int64(mix(seed, 2)>>1))
	k := kernel.New(net)
	a, b := k.NewHost("a"), k.NewHost("b")
	defer a.Crash()
	defer b.Crash()
	sender, err := a.NewProcess("sender")
	if err != nil {
		return err
	}
	for _, leg := range []struct {
		name string
		host *kernel.Host
	}{{"kernel.send_local_ns", a}, {"kernel.send_remote_ns", b}} {
		echo, err := startEcho(leg.host)
		if err != nil {
			return err
		}
		ns, allocs := batches(z.n(24_000), func(_, calls int) {
			for i := 0; i < calls; i++ {
				mustSend(sender, &proto.Message{Op: proto.OpEcho}, echo.PID())
			}
		})
		out.ns(leg.name, ns)
		if leg.host == a {
			out.count("kernel.send_allocs", allocs)
		}
	}
	at := sender.Now()
	ns, _ := batches(z.n(120_000), func(_, calls int) {
		for i := 0; i < calls; i++ {
			d, err := net.Unicast(a.ID(), b.ID(), 64, at)
			if err != nil {
				panic(err)
			}
			at += d
		}
	})
	out.ns("netsim.unicast_ns", ns)
	return nil
}

// probePrefixAndClient boots one host carrying a lease-granting prefix
// server, a file server, the ncache tier and a client, so every hop is
// local and the probes time the layers' own work: Server.Define, a raw
// lease-requesting MapContext at the prefix server and at the tier, and
// Session.MapContext on held and unheld names.
func probePrefixAndClient(seed uint64, z probeSize, out probeOut) error {
	const lease = time.Hour // virtual: nothing expires inside a probe
	k := kernel.New(netsim.New(vtime.DefaultModel(), int64(mix(seed, 2)>>1)))
	meter := newMeter(k)
	host := k.NewHost("probe")
	defer host.Crash()
	fs, err := fileserver.Start(host, "fs")
	if err != nil {
		return err
	}
	n := z.n(30_000)
	pop := popgen.NewPopulation(n, 0.99, mix(seed, 1))

	var ps *prefix.Server
	ns, allocs := batches(n, func(b, _ int) {
		// Each batch binds the whole population on a fresh server (the
		// last one serves the probes below).
		s, err := prefix.Start(host, fmt.Sprintf("probe%d", b), prefix.WithLease(lease))
		if err != nil {
			panic(err)
		}
		for _, name := range pop.Names {
			if err := s.Define(name, fs.RootPair()); err != nil {
				panic(err)
			}
		}
		ps = s
	})
	out.ns("prefix.define_ns", ns)
	out.count("prefix.define_allocs", allocs)

	sink, err := startEcho(host) // stands in for a lease callback process
	if err != nil {
		return err
	}
	raw, err := host.NewProcess("raw")
	if err != nil {
		return err
	}
	quoted := make([]string, n)
	for i, name := range pop.Names {
		quoted[i] = prefix.Quote(name)
	}
	leaseRequest := func(i int) *proto.Message {
		m := &proto.Message{Op: proto.OpMapContext}
		proto.SetCSName(m, uint32(core.CtxDefault), quoted[i])
		proto.SetLeaseRequest(m, uint32(sink.PID()))
		return m
	}
	want := fs.RootPair()
	// The raw-Send probes report what a server adds to a bare transaction:
	// above runs fn in batches, each right after an equal batch of echo
	// transactions on the same host, and returns the median difference per
	// call. (kernel.send_local_ns, from another topology seconds earlier,
	// is too far away to subtract: the differences are a few hundred ns.)
	echo, err := startEcho(host)
	if err != nil {
		return err
	}
	above := func(calls int, fn func(b int)) float64 {
		var v []float64
		for b := 0; b < probeBatches; b++ {
			bare := timed(func() {
				for i := 0; i < calls; i++ {
					mustSend(raw, &proto.Message{Op: proto.OpEcho}, echo.PID())
				}
			})
			v = append(v, (timed(func() { fn(b) })-bare)/float64(calls))
		}
		return median(v)
	}
	// resolve sends lease requests to dst: batches that each lease a fresh
	// stretch of names for the first time (the server creates the name's
	// holder group), then steady-state batches over the first stretch.
	calls := min(z.n(6_000), n/probeBatches)
	resolve := func(dst kernel.PID) (first, steady float64) {
		pass := func(from int) {
			for i := from; i < from+calls; i++ {
				reply := mustSend(raw, leaseRequest(i), dst)
				pid, ctx := proto.GetMapContextReply(reply)
				if reply.Op != proto.ReplyOK || kernel.PID(pid) != want.Server || core.ContextID(ctx) != want.Ctx {
					panic(fmt.Sprintf("bench probe: lease request answered %v (%v,%v)", reply.Op, pid, ctx))
				}
			}
		}
		first = above(calls, func(b int) { pass(b * calls) })
		steady = above(calls, func(int) { pass(0) })
		return first, steady
	}
	first, steady := resolve(ps.PID())
	out.ns("prefix.first_grant_ns", first)
	out.ns("prefix.resolve_ns", steady)

	tier, err := ncache.Start(host, "ncache", ps.PID(), lease)
	if err != nil {
		return err
	}
	_, steady = resolve(tier.PID()) // the first batches fill the tier
	out.ns("ncache.resolve_hit_ns", steady)

	// What a leased request asks of the server it is routed to: MapContext
	// of the empty remainder in the leased context, served by the file
	// server's skeleton (core) and its handler.
	serveCalls := z.n(12_000)
	out.ns("core.map_context_ns", above(serveCalls, func(int) {
		for i := 0; i < serveCalls; i++ {
			m := &proto.Message{Op: proto.OpMapContext}
			proto.SetCSName(m, uint32(want.Ctx), "")
			if reply := mustSend(raw, m, want.Server); reply.Op != proto.ReplyOK {
				panic(fmt.Sprintf("bench probe: file server answered MapContext %v", reply.Op))
			}
		}
	}))

	proc, err := host.NewProcess("client")
	if err != nil {
		return err
	}
	sess := client.New(proc, ps.PID(), fs.RootPair(), "probe")
	if err := sess.EnableLeaseCache(); err != nil {
		return err
	}
	mapContext := func(name string) {
		if pair, err := sess.MapContext(name); err != nil || pair != want {
			panic(fmt.Sprintf("bench probe: MapContext(%s) = %v, %v", name, pair, err))
		}
	}
	// Unheld names: every batch walks names the session has never asked for.
	miss := min(z.n(5_000), n/probeBatches)
	out.crossing("client.lease_miss_ns", meter, miss, func(b, calls int) {
		for i := 0; i < calls; i++ {
			mapContext(quoted[b*calls+i])
		}
	})
	// Held names: the ones the miss batches just leased.
	held := miss * probeBatches
	allocs = out.crossing("client.lease_hit_ns", meter, z.n(12_000), func(_, calls int) {
		for i := 0; i < calls; i++ {
			mapContext(quoted[i%held])
		}
	})
	out.count("client.lease_hit_allocs", allocs)
	// The engine classifier's question, asked of held names.
	ns, _ = batches(z.n(60_000), func(_, calls int) {
		now := proc.Now()
		for i := 0; i < calls; i++ {
			if pair, ok := sess.LeasedRoute(quoted[i%held], now); !ok || pair != want {
				panic(fmt.Sprintf("bench probe: LeasedRoute(%s) = %v, %v", quoted[i%held], pair, ok))
			}
		}
	})
	out.ns("client.leased_route_ns", ns)
	// Lapsed names: before each batch the client's clock jumps past every
	// lease it holds, so each lookup drops the entry and revalidates.
	out.crossing("client.lease_renew_ns", meter, miss, func(b, calls int) {
		proc.ChargeCompute(2 * lease)
		for i := 0; i < calls; i++ {
			mapContext(quoted[b*calls+i])
		}
	})
	if st := sess.LeaseCacheStats(); st.Misses != miss*probeBatches || st.Hits != probeBatches*z.n(12_000) || st.Renewals != miss*probeBatches {
		return fmt.Errorf("client probe: lease cache saw %d misses, %d hits, %d renewals", st.Misses, st.Hits, st.Renewals)
	}
	return nil
}

// probeRedefine times DeleteName+AddName of a name eight sessions hold a
// lease on, through the callback-invalidation barrier, and counts the
// holder callbacks one redefinition makes.
func probeRedefine(seed uint64, z probeSize, out probeOut) error {
	const holders = 8
	k := kernel.New(netsim.New(vtime.DefaultModel(), int64(mix(seed, 2)>>1)))
	host := k.NewHost("probe")
	defer host.Crash()
	fs, err := fileserver.Start(host, "fs")
	if err != nil {
		return err
	}
	ps, err := prefix.Start(host, "probe", prefix.WithLease(time.Hour))
	if err != nil {
		return err
	}
	if err := ps.Define("hot", fs.RootPair()); err != nil {
		return err
	}
	var sessions []*client.Session
	for i := 0; i <= holders; i++ { // the last one is the admin
		proc, err := host.NewProcess(fmt.Sprintf("c%d", i))
		if err != nil {
			return err
		}
		sessions = append(sessions, client.New(proc, ps.PID(), fs.RootPair(), "probe"))
	}
	admin := sessions[holders]
	for _, s := range sessions[:holders] {
		if err := s.EnableLeaseCache(); err != nil {
			return err
		}
	}
	// Between redefinitions every holder leases the name again, outside the
	// timed part: only the DeleteName+AddName pair is on the clock, and
	// only its transactions are counted.
	meter := newMeter(k)
	calls := z.n(1_200)
	var nsv []float64
	var pair traffic
	for b := 0; b < probeBatches; b++ {
		var spent time.Duration
		before := calibrationSample()
		for i := 0; i < calls; i++ {
			for _, s := range sessions[:holders] {
				if _, err := s.MapContext("[hot]"); err != nil {
					return err
				}
			}
			t0 := meter.read()
			c0 := cpuTime()
			if err := admin.DeleteName("hot"); err != nil {
				return err
			}
			if err := admin.AddName("hot", fs.RootPair()); err != nil {
				return err
			}
			spent += cpuTime() - c0
			t1 := meter.read()
			pair.sends += t1.sends - t0.sends
			pair.frames += t1.frames - t0.frames
		}
		slow := slowdown([]time.Duration{before, calibrationSample()})
		nsv = append(nsv, float64(spent.Nanoseconds())/slow/float64(calls))
	}
	n := float64(probeBatches * calls)
	out.ns("prefix.redefine_ns", median(nsv))
	out.traffic["prefix.redefine_ns"] = traffic{pair.sends / n, pair.frames / n}
	out.count("prefix.invalidations_per_redefine", float64(ps.LeaseStats().HoldersNotified)/n)
	return nil
}

// probeFileServing boots the paper's rig with file-server teams of one and
// four and times the paper_fileio operations one by one through a session
// (vio, fileserver and disk together), plus Query as the receptionist to
// worker handoff probe.
func probeFileServing(seed uint64, z probeSize, out probeOut) error {
	data4k := make([]byte, fileioReadBytes)
	data1k := make([]byte, fileioWriteBytes)
	for _, team := range []int{1, 4} {
		cfg := rig.DefaultConfig()
		cfg.Seed = int64(mix(seed, 2) >> 1)
		cfg.FileServerTeam = team
		r, err := rig.New(cfg)
		if err != nil {
			return err
		}
		s := r.WS[0].Session
		if err := s.MakeContext("[storage]probe"); err != nil {
			return err
		}
		for f := 0; f < fileioFilesPerDir; f++ {
			if err := s.WriteFile(fmt.Sprintf("[storage]probe/f%02d", f), data4k); err != nil {
				return err
			}
		}
		meter := newMeter(r.Kernel)
		out.crossing(fmt.Sprintf("core.serve_team%d_ns", team), meter, z.n(6_000), func(_, calls int) {
			for i := 0; i < calls; i++ {
				if d, err := s.Query("[storage]probe/f07"); err != nil || d.Size != fileioReadBytes {
					panic(fmt.Sprintf("bench probe: Query = %+v, %v", d, err))
				}
			}
		})
		if team == 1 {
			out.crossing("fileserver.open_read4k_ns", meter, z.n(1_800), func(_, calls int) {
				for i := 0; i < calls; i++ {
					if b, err := s.ReadFile("[storage]probe/f07"); err != nil || len(b) != fileioReadBytes {
						panic(fmt.Sprintf("bench probe: ReadFile = %d bytes, %v", len(b), err))
					}
				}
			})
			out.crossing("fileserver.write1k_ns", meter, z.n(1_800), func(_, calls int) {
				for i := 0; i < calls; i++ {
					if err := s.WriteFile("[storage]probe/w", data1k); err != nil {
						panic(err)
					}
				}
			})
			if err := s.Remove("[storage]probe/w"); err != nil {
				return err
			}
			out.crossing("fileserver.list100_ns", meter, z.n(900), func(_, calls int) {
				for i := 0; i < calls; i++ {
					if e, err := s.List("[storage]probe"); err != nil || len(e) != fileioFilesPerDir {
						panic(fmt.Sprintf("bench probe: List = %d entries, %v", len(e), err))
					}
				}
			})
		}
		for _, h := range []*kernel.Host{r.FS1Host, r.FS2Host, r.ServicesHost, r.WS[0].Host, r.WS[1].Host} {
			h.Crash()
		}
	}
	return nil
}

// probeEngineGate: one lane gating Shared operations with nobody to wait
// for (the floor every engine-driven operation pays), and four lanes
// gating Shared operations whose keys interleave, so every operation waits
// for a peer goroutine to promise past it: what a lease miss pays.
func probeEngineGate(_ uint64, z probeSize, out probeOut) error {
	es := engine.NewSync(1, time.Millisecond, engine.Fences{})
	t := time.Duration(0)
	ns, _ := batches(z.n(120_000), func(_, calls int) {
		for i := 0; i < calls; i++ {
			t++
			es.Gate(0, engine.Key{T: t}, engine.Shared)
		}
	})
	es.Done(0)
	out.ns("engine.gate_uncontended_ns", ns)

	const lanes = zipfShards
	ns, _ = batches(z.n(24_000), func(_, calls int) {
		es := engine.NewSync(lanes, time.Millisecond, engine.Fences{})
		var wg sync.WaitGroup
		for lane := 0; lane < lanes; lane++ {
			wg.Add(1)
			go func(lane int) {
				defer wg.Done()
				for i := 0; i < calls/lanes; i++ {
					es.Gate(lane, engine.Key{T: time.Duration(i), Seq: lane}, engine.Shared)
				}
				es.Done(lane)
			}(lane)
		}
		wg.Wait()
	})
	out.ns("engine.gate_contended_ns", ns)
	return nil
}

// probeObservers times one event into each observer, the way the
// instrumented call sites make it (registry lookups included).
func probeObservers(seed uint64, z probeSize, out probeOut) error {
	n := z.n(60_000)
	pop := popgen.NewPopulation(z.n(10_000), 0.99, mix(seed, 1))
	sampler := pop.Sampler(mix(seed, 100))
	names := make([]string, n)
	for i := range names {
		names[i] = pop.Names[sampler.NextRank()]
	}

	rec := flight.New(1 << 14)
	ns, _ := batches(n, func(_, calls int) {
		for i := 0; i < calls; i++ {
			rec.Record(time.Duration(i), flight.KindResolution, names[i], "probe", "")
		}
	})
	out.ns("flight.record_ns", ns)

	reg := metrics.New()
	lbl := metrics.Labels{Server: "probe", Class: "client"}
	ns, _ = batches(n, func(_, calls int) {
		for i := 0; i < calls; i++ {
			reg.Counter("client_lease_hits_total", lbl).Inc()
		}
	})
	out.ns("metrics.counter_inc_ns", ns)
	ns, _ = batches(n, func(_, calls int) {
		for i := 0; i < calls; i++ {
			reg.Histogram("serve_latency", lbl).Record(time.Duration(i) * time.Microsecond)
		}
	})
	out.ns("metrics.histogram_record_ns", ns)

	tr := trace.NewSampled(trace.SampleConfig{HeadEvery: 32})
	who := trace.ProcID{Name: "probe", PID: 1, Host: "probe"}
	ns, _ = batches(n, func(_, calls int) {
		for i := 0; i < calls; i++ {
			at := time.Duration(i)
			tr.End(tr.Start(0, trace.KindServe, "probe", at, who), at+1)
		}
	})
	out.ns("trace.span_ns", ns)

	topk := namestat.NewTopK(32)
	ns, _ = batches(n, func(_, calls int) {
		for i := 0; i < calls; i++ {
			topk.Observe(names[i])
		}
	})
	out.ns("namestat.topk_observe_ns", ns)
	return nil
}
