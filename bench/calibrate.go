package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/client"
)

// Host times are reported in reference-host time: the CPU time measured,
// divided by how much slower than a fixed reference the host was running
// while it was measured.
//
// The benchmark runs on a shared virtual machine. Another tenant on the
// same physical core slows this process by up to 1.5x for seconds to
// minutes at a time; that shows in CPU time, not only in wall time, and
// no statistic over the repetitions of one 20 s run removes a slow spell
// that outlasts the run. What does remove it is a yardstick measured at
// the same moments: a small fixed piece of work whose cost moves with the
// host's speed and with nothing in this repository. The simulator spends
// its time handing control between goroutines, so the yardstick is a
// goroutine rendezvous over unbuffered channels: it allocates nothing (its
// cost must not depend on the workload's heap) and touches no memory to
// speak of. Over 13 runs per workload spread across quiet and busy spells,
// the interquartile spread of raw CPU ns/op (best repetition) was 19-27%
// of the median on every workload; divided by the yardstick it was 3.5-4.1%
// on four workloads and 7.3% on define_churn (README, noise rules).
const (
	// calibrationRendezvous is the size of one sample: about 2 ms, long
	// enough to time with getrusage, short enough that 32 of them cost a
	// repetition under 5%.
	calibrationRendezvous = 5000
	// referenceRendezvousNs fixes the unit: the CPU ns one rendezvous takes
	// on the reference host, this one when quiet (2.1 GHz Sapphire Rapids
	// vCPU, go1.24, GOMAXPROCS=1). On other hardware every host time scales
	// by one constant, the same for the two sides of any comparison.
	referenceRendezvousNs = 400.0
	// samplesPerRep samples are spread evenly over a repetition's
	// operations, but never closer than minOpsPerSample (every full-size
	// workload has at least 1500 operations per sample; the smoke test's
	// hundredfold smaller ones would otherwise spend their time sampling).
	samplesPerRep   = 32
	minOpsPerSample = 1000
)

// cpuTime is the CPU time (user + system) this process has used. With one
// P and no blocking I/O it agrees with wall time on a quiet machine, but
// the hypervisor steals the CPU for whole scheduling quanta, which wall
// time counts and CPU time does not.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// calibrationSample times calibrationRendezvous round trips between two
// goroutines.
func calibrationSample() time.Duration {
	c0 := cpuTime()
	ping, pong := make(chan int), make(chan int)
	go func() {
		for v := range ping {
			pong <- v + 1
		}
		close(pong)
	}()
	for i := 0; i < calibrationRendezvous; i++ {
		ping <- i
		<-pong
	}
	close(ping)
	<-pong
	return cpuTime() - c0
}

// slowdown is how much slower than the reference host the samples say the
// host was: their median (a sample that overlaps a garbage collection or
// another runnable goroutine reads high) over the reference. 1 with no
// samples.
func slowdown(samples []time.Duration) float64 {
	if len(samples) == 0 {
		return 1
	}
	v := make([]float64, len(samples))
	for i, d := range samples {
		v[i] = float64(d.Nanoseconds())
	}
	return median(v) / (calibrationRendezvous * referenceRendezvousNs)
}

// speedSampler takes calibration samples at even intervals inside a driver
// call, from the benchmark's own Op closures.
type speedSampler struct {
	every   int64
	done    atomic.Int64
	mu      sync.Mutex
	samples []time.Duration
}

// sampleDuring wraps every client's Op so that calibration samples are
// taken as the operations complete (a sample allocates two channels and a
// goroutine: the fourth digit of allocs_per_op). CPU time means nothing
// with several Ps (the engine.speedup_pN leg, which reports wall time), so
// there it takes none.
func sampleDuring(in *instance) *speedSampler {
	s := &speedSampler{}
	if runtime.GOMAXPROCS(0) != 1 {
		return s
	}
	total := 0
	for _, c := range in.clients {
		total += c.Requests
	}
	s.every = int64(max(total/samplesPerRep, minOpsPerSample))
	for _, c := range in.clients {
		op := c.Op
		c.Op = func(sess *client.Session, i int) error {
			err := op(sess, i)
			if s.done.Add(1)%s.every == 0 {
				d := calibrationSample()
				s.mu.Lock()
				s.samples = append(s.samples, d)
				s.mu.Unlock()
			}
			return err
		}
	}
	return s
}

// cost is the time the samples themselves took, to be taken off the
// driver call's. It charges every sample the median: what a sample reads
// above that is a garbage collection or another lane's operations running
// inside its window, which is the workload's time.
func (s *speedSampler) cost() time.Duration {
	if len(s.samples) == 0 {
		return 0
	}
	v := make([]float64, len(s.samples))
	for i, d := range s.samples {
		v[i] = float64(d)
	}
	return time.Duration(median(v)) * time.Duration(len(s.samples))
}
