// Command bench is the repository's benchmark: five naming workloads
// measured from outside the simulator, through public functions only.
//
//	bash bench/run.sh -workload resolve_miss -seed 1            # end-to-end metrics
//	bash bench/run.sh -workload resolve_miss -seed 1 -trace 1   # per-layer metrics
//	bash bench/run.sh -selfcheck                                # do two sets of runs agree?
//
// It reports two kinds of number and always says which: host time and
// memory (what the simulator costs to run) and sim time (what the modelled
// V-System would take, which must repeat exactly). See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// The five workloads; BENCHMARK.json records why each was chosen.
var workloads = []*workload{
	missShape.workload("resolve_miss"),
	hitShape.workload("resolve_hit"),
	observedShape().workload("resolve_observed"),
	churnShape.workload("define_churn"),
	fileioWorkload(),
}

func main() {
	name := flag.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := flag.Uint64("seed", 1, "seed every input stream derives from")
	seconds := flag.Int("seconds", 20, "time budget of the run's repetitions")
	traceMode := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics (probes, spans, counts)")
	selfcheck := flag.Bool("selfcheck", false, "run every workload in two sets of child processes and compare them against the bounds in BENCHMARK.json")
	runs := flag.Int("runs", 1, "with -selfcheck: runs (seeds) per workload per set")
	flag.Parse()

	if *selfcheck {
		os.Exit(runSelfcheck(*seed, *seconds, *runs))
	}

	pinRuntime()
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	deadline := time.Now().Add(time.Duration(*seconds) * time.Second)
	var res result
	if *traceMode == 0 {
		res, err = endToEndRun(w, *seed, deadline)
	} else {
		res, err = perLayerRun(w, *seed, deadline)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	printMetrics(res.Metrics)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// pinRuntime applies the noise rules a process can apply to itself: one P
// (every simulated Send is a goroutine rendezvous; a second P only adds
// cross-P wake-ups, and CPU time stops meaning one thread's time) and
// default GC pacing.
func pinRuntime() {
	runtime.GOMAXPROCS(1)
	debug.SetGCPercent(100)
}

// spanDir is where a traced run writes its span file, relative to the
// checkout root the benchmark runs from.
const spanDir = "bench/out"

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func endToEndRun(w *workload, seed uint64, deadline time.Time) (result, error) {
	r, err := runReps(w, w.prepare(seed, 1), repPlan{reps: maxReps, warm: true, deadline: deadline})
	if err != nil {
		return result{}, err
	}
	fmt.Printf("workload %s seed %d: %d measured repetitions after 1 warm-up, %.1f s\n", w.name, seed, len(r.reps), r.elapsed.Seconds())
	fmt.Println("  host times read 'measured = reference-host': CPU time as measured, and that divided by the host's slowdown during the repetition (x)")
	for i, p := range r.reps {
		fmt.Printf("  rep %d: x%.3f; set-up %.3f cpu-s = %.3f s; %d ops, %d failed, %.0f cpu-ns/op = %.0f ns/op (%.0f wall-ns/op), %.2f allocs/op\n",
			i, p.slow, p.setup.Seconds(), p.setupSeconds(), p.ops, p.failed,
			float64(p.cpu.Nanoseconds())/float64(p.ops), p.hostNsPerOp(),
			float64(p.wall.Nanoseconds())/float64(p.ops), float64(p.mallocs)/float64(p.ops))
	}
	sim := r.reps[0].sim
	fmt.Printf("  sim (identical in every repetition): %d latency samples, p50 %v, p99 %v, makespan %v, digest %016x\n",
		sim.Samples, sim.P50, sim.P99, sim.Makespan, sim.Digest)
	res := result{Attempted: r.attempted(), Failed: r.failed(), Metrics: r.endToEnd()}
	res.Correct = res.Failed == 0
	if w.openLoop {
		b := r.reps[0].backlog
		fmt.Printf("  rig.sim_backlog_ratio %.4f (virtual makespan / last scheduled arrival; must stay <= 1.05)\n", b)
		if b > 1.05 {
			return res, fmt.Errorf("%s: offered load exceeds simulated capacity (backlog ratio %.3f > 1.05): sim_p99_us would be a queue length", w.name, b)
		}
	}
	return res, nil
}

func perLayerRun(w *workload, seed uint64, deadline time.Time) (result, error) {
	start := time.Now()
	probes, err := runProbes(seed, probeSize{1})
	if err != nil {
		return result{}, err
	}
	fmt.Printf("phase %-32s %5.1f s\n", "probes", time.Since(start).Seconds())
	t, err := tracedRun(w, probes, seed, 1, deadline, spanDir)
	if err != nil {
		return result{}, err
	}
	for _, line := range t.report {
		fmt.Println(line)
	}
	return result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: t.metrics}, nil
}

func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%-34s %16.4f %s\n", name, m[name].Value, m[name].Unit)
	}
}
