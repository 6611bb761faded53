// Command vbench regenerates every quantitative result in the paper's
// evaluation (§3.1, §6) and the ablations derived from its arguments
// (§2.2, §5.6, §7), printing paper-vs-measured tables.
//
// Usage:
//
//	vbench                       # run every experiment
//	vbench t1 a2                 # run selected experiments
//	vbench chaos                 # fault-injection sweep (alias for a10)
//	vbench -list                 # list experiment ids
//	vbench -json BENCH.json      # also write results as JSON
//	vbench -trace TRACE.json     # export the canonical single-client trace
//	vbench -metrics METRICS.json # export the A14 metrics document (deterministic)
//	vbench -replica REPLICA.json # export the A15 replication document (deterministic)
//	vbench -shard SHARD.json     # export the A16 sharded-engine document (deterministic)
//	vbench -cache CACHE.json     # export the A17 lease-coherence document (deterministic)
//	vbench -zipf ZIPF.json       # export the A18 population-scale document (deterministic)
//	vbench -obs OBS.json         # export the A19 observability document (deterministic)
//	vbench -zipf Z.json -trace T.json  # also export a sampled 10⁶-name population trace
//
// Exports given without experiment ids replace the experiment run.
// Everything here is virtual time; wall-clock measurement is the
// repository benchmark (bench/README.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "vbench:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("vbench", flag.ContinueOnError)
	list := fs.Bool("list", false, "list experiment ids and exit")
	score := fs.Bool("score", false, "print the reproduction scorecard and exit")
	jsonPath := fs.String("json", "", "also write per-experiment results as JSON to this file")
	tracePath := fs.String("trace", "", "export the canonical single-client trace (span tree + wire frames) as JSON to this file; with -zipf, a sampled million-name population trace instead")
	popTrace := fs.Int("population", 1_000_000, "with -zipf and -trace together: population of the sampled trace export")
	// One export flag per experiment that returns a document, each
	// byte-identical across runs and pinned by the committed
	// BENCH_<flag>.json.
	exports := experiments.Exports()
	for _, e := range exports {
		fs.String(e.Flag, "", fmt.Sprintf("run %s (%s) and write its deterministic document (BENCH_%s.json schema) to this file",
			strings.ToUpper(e.ID), e.Title, e.Flag))
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		fmt.Fprintln(w, strings.Join(experiments.IDs(), "\n"))
		return nil
	}
	if *score {
		checks, err := experiments.Scorecard()
		if err != nil {
			return err
		}
		experiments.PrintScorecard(w, checks)
		return nil
	}

	// Exports run first. On their own they replace the experiment run:
	// vbench continues into the experiments only when ids were named.
	ids := fs.Args()
	exported := false
	for _, e := range exports {
		path := fs.Lookup(e.Flag).Value.String()
		if path == "" {
			continue
		}
		data, err := experiments.DocJSON(e.ID)
		if err != nil {
			return fmt.Errorf("%s: %w", e.Flag, err)
		}
		if err := writeExport(w, e.Flag+" document", path, "", data); err != nil {
			return err
		}
		exported = true
	}
	if *tracePath != "" {
		exported = true
		if fs.Lookup("zipf").Value.String() != "" {
			// Combined -zipf -trace: the population-scale acceptance run.
			// The full tracer is O(ops) and cannot hold a million-name
			// workload; the sampled tracer retains O(k) spans, so this
			// export completes at any population.
			data, leg, err := experiments.PopulationTrace(*popTrace)
			if err != nil {
				return fmt.Errorf("population trace: %w", err)
			}
			stats := fmt.Sprintf(" (%d names, %d ops, %d/%d roots retained, %d spans)",
				leg.Scenario.Population, leg.Evidence.Completed, int(leg.Reads["roots_retained"]),
				int(leg.Reads["roots_seen"]), leg.Evidence.Spans)
			if err := writeExport(w, "sampled population trace", *tracePath, stats, data); err != nil {
				return err
			}
		} else {
			data, err := experiments.CanonicalTrace()
			if err != nil {
				return fmt.Errorf("trace: %w", err)
			}
			if err := writeExport(w, "canonical trace", *tracePath, "", data); err != nil {
				return err
			}
		}
	}
	if exported && len(ids) == 0 {
		return nil
	}
	if len(ids) == 0 {
		ids = experiments.IDs()
	}
	fmt.Fprintln(w, "V-System distributed name interpretation — paper reproduction")
	fmt.Fprintln(w, "(virtual-time measurements on the simulated 3 Mbit Ethernet testbed)")
	fmt.Fprintln(w)
	var results []experiments.Result
	for _, id := range ids {
		res, err := experiments.Run(id)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		experiments.Print(w, res)
		results = append(results, res)
	}
	if *jsonPath != "" {
		if err := writeJSON(*jsonPath, results); err != nil {
			return fmt.Errorf("write %s: %w", *jsonPath, err)
		}
	}
	return nil
}

// writeExport writes one exported document and reports it.
func writeExport(w io.Writer, label, path, stats string, data []byte) error {
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	fmt.Fprintf(w, "wrote %s to %s%s\n", label, path, stats)
	return nil
}

// benchDoc is the -json output schema: the experiment results verbatim,
// wrapped with enough metadata to interpret the file on its own.
type benchDoc struct {
	Tool        string               `json:"tool"`
	Description string               `json:"description"`
	Results     []experiments.Result `json:"results"`
}

func writeJSON(path string, results []experiments.Result) error {
	doc := benchDoc{
		Tool:        "vbench",
		Description: "virtual-time measurements on the simulated 3 Mbit Ethernet testbed",
		Results:     results,
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
