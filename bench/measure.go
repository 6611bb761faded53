package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

const (
	// maxReps is how many measured repetitions a run makes when the time
	// budget allows; minReps is the floor below which a median means little.
	maxReps = 7
	minReps = 3
)

// rep is one measured repetition: a fresh topology built, driven and torn
// down.
type rep struct {
	// setup and cpu are the CPU time of the set-up and of the driver call
	// as measured, wall the driver call's wall time. slow is the host's
	// slowdown (calibrate.go), sampled inside the driver call; the set-up
	// just before it is taken to have run at the same speed.
	setup, cpu, wall time.Duration
	slow             float64
	// sampling is the time of the calibration samples taken inside the
	// driver call, already taken off cpu and wall.
	sampling   time.Duration
	ops        int
	failed     int
	mallocs    uint64
	allocBytes uint64
	sim        simResult
	backlog    float64
}

// runResult is everything one untraced run of one workload measured.
type runResult struct {
	reps     []rep
	heapLive uint64 // bytes, after the last driver call and two GCs
	elapsed  time.Duration
}

func (r *runResult) attempted() (n int) {
	for _, p := range r.reps {
		n += p.ops
	}
	return n
}

func (r *runResult) failed() (n int) {
	for _, p := range r.reps {
		n += p.failed
	}
	return n
}

// hooks lets the traced mode observe a repetition; an untraced run leaves
// both nil and pays nothing.
type hooks struct {
	// built runs after set-up, just before the timed driver call.
	built func(in *instance)
	// driven runs after the timed driver call, before teardown.
	driven func(in *instance, p *rep)
}

// repPlan says how many repetitions runReps makes.
type repPlan struct {
	// reps is the number of measured repetitions wanted; the deadline may
	// cut it down, but never below min(reps, minReps).
	reps int
	// warm adds one discarded repetition first: it pages in the heap,
	// fills the pools and settles the GC pacer.
	warm     bool
	deadline time.Time
	hooks    hooks
}

// runReps makes the planned repetitions, each on a fresh topology from
// build. Every measured repetition must reproduce the first one's
// simulated result exactly: a free determinism oracle.
func runReps(w *workload, build func() (*instance, error), plan repPlan) (*runResult, error) {
	start := time.Now()
	out := &runResult{}
	var longest time.Duration
	first := 0
	if plan.warm {
		first = -1
	}
	for i := first; i < plan.reps; i++ {
		if i >= minReps && time.Now().Add(longest).After(plan.deadline) {
			break
		}
		repStart := time.Now()
		p, live, err := oneRep(build, plan.hooks)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		longest = max(longest, time.Since(repStart))
		if i < 0 {
			continue
		}
		if len(out.reps) > 0 && p.sim != out.reps[0].sim {
			return nil, fmt.Errorf("%s: repetition %d simulated a different result (%+v, first %+v): the simulator is not deterministic",
				w.name, i, p.sim, out.reps[0].sim)
		}
		out.reps = append(out.reps, p)
		out.heapLive = live
	}
	out.elapsed = time.Since(start)
	return out, nil
}

func oneRep(build func() (*instance, error), hk hooks) (rep, uint64, error) {
	var p rep
	var m0, m1 runtime.MemStats

	runtime.GC()
	c0 := cpuTime()
	in, err := build()
	if err != nil {
		return p, 0, fmt.Errorf("set-up: %w", err)
	}
	p.setup = cpuTime() - c0
	defer in.teardown()

	runtime.GC()
	if hk.built != nil {
		hk.built(in)
	}
	sampler := sampleDuring(in)
	runtime.ReadMemStats(&m0)
	c1 := cpuTime()
	t1 := time.Now()
	res := in.drive(in.clients)
	p.wall = time.Since(t1)
	p.cpu = cpuTime() - c1
	runtime.ReadMemStats(&m1)
	p.sampling = sampler.cost()
	p.wall -= p.sampling
	p.cpu -= p.sampling
	p.slow = slowdown(sampler.samples)

	p.ops = res.Requests
	p.failed = failedOps(res)
	p.mallocs = m1.Mallocs - m0.Mallocs
	p.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	p.sim = summarizeSim(in, res)
	p.backlog = p.sim.backlogRatio(in)
	if hk.driven != nil {
		hk.driven(in, &p)
	}
	if in.verify != nil {
		p.failed += in.verify()
	}
	// Live heap with the topology still referenced: what a user holding
	// the booted system pays.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m1)
	live := m1.HeapAlloc
	runtime.KeepAlive(in)
	return p, live, nil
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func medianOf(reps []rep, f func(rep) float64) float64 {
	v := make([]float64, len(reps))
	for i, p := range reps {
		v[i] = f(p)
	}
	return median(v)
}

// hostNsPerOp and setupSeconds are a repetition's two host times in
// reference-host time.
func (p rep) hostNsPerOp() float64 {
	return float64(p.cpu.Nanoseconds()) / p.slow / float64(p.ops)
}

func (p rep) setupSeconds() float64 { return p.setup.Seconds() / p.slow }

// metric is one named, unit-carrying number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd computes the nine end-to-end metrics of an untraced run. Host
// times and allocation counts are medians over the repetitions; sim
// metrics are the one value every repetition reproduced. The typical
// simulated latency is reported as the mean: the median of resolve_hit is
// the fixed cost of one lease hit, the same number to the last digit on
// every seed, and the benchmark's contract refuses a time that reads the
// same on every run (it is still printed, and reported per layer as
// rig.sim_p50_us).
func (r *runResult) endToEnd() map[string]metric {
	perOp := func(f func(rep) float64) float64 {
		return medianOf(r.reps, func(p rep) float64 { return f(p) / float64(p.ops) })
	}
	sim := r.reps[0].sim
	return map[string]metric{
		"setup_s":            {medianOf(r.reps, rep.setupSeconds), "s"},
		"host_ns_per_op":     {r.hostNsPerOp(), "ns"},
		"allocs_per_op":      {perOp(func(p rep) float64 { return float64(p.mallocs) }), "1"},
		"alloc_bytes_per_op": {perOp(func(p rep) float64 { return float64(p.allocBytes) }), "B"},
		"heap_live_mb":       {float64(r.heapLive) / 1e6, "MB"},
		"peak_rss_mb":        {peakRSSMB(), "MB"},
		"sim_mean_us":        {sim.Mean / 1e3, "us_sim"},
		"sim_p99_us":         {float64(sim.P99) / 1e3, "us_sim"},
		"sim_ops_per_s":      {sim.OpsPerSec, "1/s_sim"},
	}
}

func (r *runResult) hostNsPerOp() float64 { return medianOf(r.reps, rep.hostNsPerOp) }

// wallNsPerOp is for the one leg that runs on several Ps, where CPU time
// adds up across cores.
func (r *runResult) wallNsPerOp() float64 {
	return medianOf(r.reps, func(p rep) float64 { return float64(p.wall.Nanoseconds()) / float64(p.ops) })
}

// peakRSSMB reads the process's resident-set high-water mark. Where
// /proc is missing it falls back to the Go runtime's OS-memory total.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				f := strings.Fields(rest)
				if len(f) >= 1 {
					if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
						return kb * 1024 / 1e6
					}
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / 1e6
}
