package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"time"

	"repro/internal/client"
	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/ncache"
	"repro/internal/netsim"
	"repro/internal/popgen"
	"repro/internal/prefix"
	"repro/internal/rig"
)

// errWrongAnswer marks an operation that completed but returned something
// other than what the benchmark bound or wrote. The drivers count it in
// ClientStats.Errors like any failed operation.
var errWrongAnswer = errors.New("bench: wrong answer")

// workload is one benchmark workload: its inputs are generated once per
// process from the seed (prepare), and every repetition boots a fresh
// topology from them (the returned build function, timed as set-up).
type workload struct {
	name     string
	openLoop bool
	// engine: driven by rig.RunWorkloadEngine (every operation is classified
	// and gated) rather than the single-lane rig.RunWorkload.
	engine bool
	// prepare generates the seed-derived inputs at the given size divisor
	// (1 = full size; the smoke test uses 100) and returns the builder.
	prepare func(seed uint64, div int) (build func() (*instance, error))
}

// instance is one booted topology plus the client programs that drive it.
type instance struct {
	clients []*rig.WorkloadClient
	drive   func([]*rig.WorkloadClient) *rig.WorkloadResult
	// hosts are crashed at teardown so the rep's goroutines exit.
	hosts []*kernel.Host
	// lat[c][i] is the virtual latency of client c's i-th operation.
	lat [][]time.Duration
	// lastArrival is the latest scheduled open-loop arrival (0: closed loop).
	lastArrival time.Duration
	// distinctNames is how many different names the clients draw (0 where
	// the workload resolves none through a lease).
	distinctNames int
	// verify, when set, runs output checks that need the finished run
	// (read-backs); it returns how many of them failed.
	verify func() int
	// layers are the handles the traced mode reads public counters from.
	layers layers
}

// layers names the pieces of a booted topology whose public statistics the
// traced mode reads. Nothing here is touched by an untraced run.
type layers struct {
	kernel   *kernel.Kernel
	net      *netsim.Network
	sessions []*client.Session
	prefixes []*prefix.Server
	tier     *ncache.Tier
	// registry is the metrics registry already installed on the kernel and
	// network, or nil when the topology boots without one.
	registry *metrics.Registry
	// fences counts engine fences fired (the benchmark's own Fire wrapper).
	fences *int
}

func (in *instance) teardown() {
	for _, h := range in.hosts {
		h.Crash()
	}
}

// simResult is what the modelled V-System did in one repetition. It must
// repeat exactly across repetitions of one process.
type simResult struct {
	Samples    int
	Mean       float64 // ns
	P50, P99   time.Duration
	Makespan   time.Duration
	LastFinish time.Duration
	OpsPerSec  float64
	// Digest covers every per-operation latency and every client's
	// completion counts, in client order.
	Digest uint64
}

func summarizeSim(in *instance, res *rig.WorkloadResult) simResult {
	h := fnv.New64a()
	var all []time.Duration
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	out := simResult{Makespan: res.Makespan}
	for c, lats := range in.lat {
		st := res.Clients[c]
		put(uint64(st.Completed))
		put(uint64(st.Errors))
		put(uint64(st.Finish))
		if st.Finish > out.LastFinish {
			out.LastFinish = st.Finish
		}
		for _, l := range lats {
			put(uint64(l))
		}
		all = append(all, lats...)
	}
	slices.Sort(all)
	var sum time.Duration
	for _, l := range all {
		sum += l
	}
	out.Samples = len(all)
	out.Mean = float64(sum) / float64(len(all))
	out.P50 = all[len(all)/2]
	out.P99 = all[len(all)*99/100]
	out.OpsPerSec = float64(res.Requests) / res.Makespan.Seconds()
	out.Digest = h.Sum64()
	return out
}

// backlogRatio is how far the virtual makespan ran past the last scheduled
// arrival: above 1.05 the offered load exceeded simulated capacity and the
// tail latency is a queue length, not a latency.
func (s simResult) backlogRatio(in *instance) float64 {
	if in.lastArrival <= 0 {
		return 1
	}
	return float64(s.LastFinish) / float64(in.lastArrival)
}

func failedOps(res *rig.WorkloadResult) int {
	n := 0
	for _, c := range res.Clients {
		n += c.Errors
	}
	return n
}

// mix derives an independent stream from the run seed (one splitmix64
// step), so population, network, draw and arrival streams never collide.
func mix(seed, stream uint64) uint64 {
	return popgen.NewRand(seed + stream*0x9e3779b97f4a7c15).Uint64()
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
