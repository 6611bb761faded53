// Command vstat is the live exposition surface for the virtual-time
// metrics registry: it boots the standard rig, drives a short canonical
// workload (optionally under the A14 crash/restart chaos schedule), and
// renders what the registry collected. Unlike `vbench -metrics` — whose
// JSON document is deterministic and golden-pinned — vstat is the
// operator's view: it includes volatile series and renders per-tick
// snapshot diffs.
//
// Usage:
//
//	vstat               # registry snapshot after the canonical workload
//	vstat -chaos        # inject the FS1 crash/restart schedule first
//	vstat -health       # also render the health/SLO report
//	vstat -diff         # also render per-tick snapshot diffs
//	vstat -prom         # Prometheus-style text exposition instead of tables
//	vstat -flight       # also dump the flight recorder's event journal
//	vstat -top          # also render the prefix server's hot-name sketch
//	vstat -rates        # also render per-prefix churn estimates + lease counters
//
// The -flight/-top/-rates views run the workload through the lease cache
// (PROTOCOL.md §13); the plain snapshot keeps the seed workload shape. A
// run the rig's oracles refuse prints their verdict and exits 1.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/chaos"
	"repro/internal/client"
	"repro/internal/flight"
	"repro/internal/metrics"
	"repro/internal/rig"
	"repro/internal/vtime"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "vstat:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("vstat", flag.ContinueOnError)
	prom := fs.Bool("prom", false, "render the snapshot as Prometheus-style text exposition")
	health := fs.Bool("health", false, "render the health/SLO report")
	diff := fs.Bool("diff", false, "render per-tick snapshot diffs (the sampler's series)")
	withChaos := fs.Bool("chaos", false, "inject the FS1 crash/restart schedule during the workload")
	showFlight := fs.Bool("flight", false, "dump the flight recorder's sealed event journal")
	showTop := fs.Bool("top", false, "render the prefix server's hot-name sketch")
	showRates := fs.Bool("rates", false, "render per-prefix churn estimates and the client lease-cache counters")
	ops := fs.Int("ops", 150, "workload operations to drive")
	slo := fs.Float64("slo", 0.90, "availability SLO for -health")
	if err := fs.Parse(args); err != nil {
		return err
	}

	policy := client.DefaultRetryPolicy()
	cfg := rig.Config{Users: []string{"mann"}, Seed: 1, ReadAhead: true, Retry: &policy, Requests: *ops}
	observing := *showFlight || *showTop || *showRates
	if observing {
		cfg.Lease = 200 * time.Millisecond
	}
	if *withChaos {
		cfg.FlushEvery, cfg.Faults = 25, chaos.TwoOutages("fs1")
	}
	r, err := rig.New(cfg)
	if err != nil {
		return err
	}
	s := r.WS[0].Session
	if observing {
		if err := s.EnableLeaseCache(); err != nil {
			return err
		}
	}

	if *withChaos {
		// The A14 failover topology: FS2 replicates the standard-programs
		// context; the client caches resolutions so outages are felt.
		if err := r.MirrorBinOnFS2(); err != nil {
			return err
		}
		s.EnableNameCache(true)
	}
	// Under chaos some operations legitimately fail.
	r.Clients[0].Op = func(s *client.Session, i int) error {
		switch i % 3 {
		case 0:
			return rig.OpenClose("[bin]hello")(s, i)
		case 1:
			_, err := s.ReadFile("[home]welcome.txt")
			return err
		default:
			_, err := s.Query("[home]notes/todo.txt")
			return err
		}
	}
	if _, _, err := r.Run(); err != nil {
		return err
	}
	horizon := s.Proc().Now()

	snap := r.Metrics.Snapshot()
	if *prom {
		metrics.WritePrometheus(w, snap)
		return nil
	}

	fmt.Fprintf(w, "vstat: registry snapshot at %s virtual\n\n", vtime.Milliseconds(horizon))
	snap.WriteText(w)
	if *diff {
		fmt.Fprintf(w, "\nper-tick diffs (tick %s):\n", vtime.Milliseconds(r.Sampler.Tick()))
		metrics.WriteDiffs(w, r.Sampler.Samples())
	}
	if *health {
		fmt.Fprintln(w)
		metrics.Health(snap, r.Sampler.Samples(), horizon, *slo).WriteText(w)
	}
	if *showTop {
		fmt.Fprintf(w, "\nhot names (prefix server %s, space-saving top-k):\n", r.WS[0].User)
		items := r.WS[0].Prefix.TopNames()
		if len(items) == 0 {
			fmt.Fprintln(w, "  (no resolutions observed)")
		}
		for _, it := range items {
			fmt.Fprintf(w, "  %-24s %6d resolutions (overestimate ≤ %d)\n", it.Name, it.Count, it.Err)
		}
	}
	if *showRates {
		fmt.Fprintf(w, "\nper-prefix churn estimates (prefix server %s):\n", r.WS[0].User)
		items := r.WS[0].Prefix.NameRates()
		if len(items) == 0 {
			fmt.Fprintln(w, "  (no names observed)")
		}
		for _, it := range items {
			fmt.Fprintf(w, "  %-24s res %d (%d mHz)  redef %d (%d mHz)  renew %d (%d mHz)  fanout %d/1000  max stale %d µs\n",
				it.Name, it.Resolutions, it.ResRateMilliHz, it.Redefinitions, it.RedefRateMilliHz,
				it.Renewals, it.RenewRateMilliHz, it.FanoutMilli, it.MaxStaleUS)
		}
		st := s.LeaseCacheStats()
		fmt.Fprintf(w, "client lease cache: %d hits, %d misses, %d negative hits, %d renewals, %d invalidations, %d stale\n",
			st.Hits, st.Misses, st.NegativeHits, st.Renewals, st.Invalidations, st.Stale)
		for _, it := range s.LeaseNameRates() {
			fmt.Fprintf(w, "  %-24s max stale %d µs\n", it.Name, it.MaxStaleUS)
		}
	}
	if *showFlight {
		r.Flight.Seal(horizon)
		journal := r.Flight.Journal()
		fmt.Fprintf(w, "\nflight journal (%d events, %d dropped):\n", len(journal), r.Flight.Dropped())
		flight.WriteText(w, journal)
	}
	return nil
}
