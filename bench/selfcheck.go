package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the self-check reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runSelfcheck runs every workload in two sets of child processes (one OS
// process per run, the sets interleaved so slow drift of the host hits
// both) and compares the sets, which ran identical code on identical
// seeds, so which one is called A is arbitrary and the comparison is
// symmetric. Per end-to-end metric it fails when
//
//   - the two medians differ, either way, by more than half the bound;
//   - with several runs (seeds) per set, either set's interquartile spread
//     is wider than the bound: the metric is unresolved on this host, and
//     the benchmark would be refused as too noisy;
//   - a sim_* metric differs at all between the two runs of one seed:
//     simulated results must repeat exactly.
//
// It returns the process exit code.
func runSelfcheck(seed uint64, seconds, runs int) int {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: selfcheck runs from the repository root:", err)
		return 2
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		fmt.Fprintln(os.Stderr, "bench: BENCHMARK.json:", err)
		return 2
	}
	exit := 0
	for _, w := range bf.Workloads {
		var sets [2]map[string][]float64
		for s := range sets {
			sets[s] = map[string][]float64{}
		}
		for i := 0; i < runs; i++ {
			for s := range sets {
				res, err := childRun(w.Name, seed+uint64(i), seconds)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s seed %d: %v\n", w.Name, seed+uint64(i), err)
					return 1
				}
				if !res.Correct {
					fmt.Printf("FAIL %s seed %d: %d of %d operations failed\n", w.Name, seed+uint64(i), res.Failed, res.Attempted)
					exit = 1
				}
				for name, m := range res.Metrics {
					sets[s][name] = append(sets[s][name], m.Value)
				}
			}
		}
		fmt.Printf("%s (%d run(s) per set, seeds %d..%d)\n", w.Name, runs, seed, seed+uint64(runs)-1)
		fmt.Printf("  %-20s %16s %16s %9s %8s %8s %6s\n", "metric", "median A", "median B", "differ", "iqr A", "iqr B", "bound")
		for _, m := range bf.EndToEnd {
			va, vb := sets[0][m.Name], sets[1][m.Name]
			a, b := median(va), median(vb)
			differ := max(a/b, b/a) - 1
			sa, sb := spread(va), spread(vb)
			verdict := "ok"
			switch {
			case strings.HasPrefix(m.Name, "sim_") && !slices.Equal(va, vb):
				verdict = "FAIL: a simulated result did not repeat for the same seed"
			case differ > m.Bound/2:
				verdict = "FAIL: sets differ by more than half the bound"
			case sa > m.Bound || sb > m.Bound:
				verdict = "UNRESOLVED: spread wider than the bound"
			}
			if verdict != "ok" {
				exit = 1
			}
			fmt.Printf("  %-20s %16.6g %16.6g %8.2f%% %7.2f%% %7.2f%% %5.1f%%  %s\n",
				m.Name, a, b, 100*differ, 100*sa, 100*sb, 100*m.Bound, verdict)
		}
	}
	if exit == 0 {
		fmt.Println("selfcheck passed")
	} else {
		fmt.Println("selfcheck FAILED")
	}
	return exit
}

// spread is the interquartile range as a share of the median, with the
// quartiles Python's statistics.quantiles(v, n=4) gives (exclusive
// method); 0 with fewer than two values.
func spread(v []float64) float64 {
	n := len(v)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		j = min(max(j, 1), n-1)
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return (q(3) - q(1)) / median(s)
}

// childRun runs one untraced workload run in its own process and parses
// the result line.
func childRun(workload string, seed uint64, seconds int) (result, error) {
	cmd := exec.Command(os.Args[0], "-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	var res result
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if jerr := json.Unmarshal(lines[len(lines)-1], &res); jerr != nil {
		if err != nil {
			return res, err
		}
		return res, fmt.Errorf("no result line: %w", jerr)
	}
	return res, nil
}
