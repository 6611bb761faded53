// Package experiments regenerates every quantitative result in the paper
// (§3.1 and §6) plus the ablations DESIGN.md derives from the paper's
// arguments (§2.2, §5.6, §7). Each experiment boots a deterministic rig,
// drives the protocol through the public client library, reads virtual
// time off the process clocks, and reports paper-vs-measured rows.
//
// See EXPERIMENTS.md for the recorded outputs and the discussion of where
// measured values may legitimately deviate from the paper's.
package experiments

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/client"
	"repro/internal/rig"
	"repro/internal/vtime"
)

// Row is one reported measurement.
type Row struct {
	Label    string `json:"label"`
	Paper    string `json:"paper"` // the paper's value, or "-" when the paper gives none
	Measured string `json:"measured"`
	Note     string `json:"note,omitempty"`
}

// Result is one experiment's output.
type Result struct {
	ID     string `json:"id"`
	Title  string `json:"title"`
	Source string `json:"source"` // where in the paper the numbers come from
	Rows   []Row  `json:"rows"`
}

// experiment is one registry entry. E1…A12 render their own Result
// (run). A14…A19 collect a golden-pinned document and their rows in one
// pass (collect), from which Run takes the rows and DocJSON the document;
// their title and source live here.
type experiment struct {
	id            string
	run           func() (Result, error)
	title, source string
	collect       func() (doc any, rows []Row, err error)
}

// collector adapts a typed collect function to the registry's.
func collector[D any](f func() (D, []Row, error)) func() (any, []Row, error) {
	return func() (any, []Row, error) { return f() }
}

// registry lists the experiments in canonical order — E-series,
// T-series, A-series, numerically within each — which is the section
// order vbench_output.txt pins: new experiments append.
var registry = []experiment{
	{id: "e1", run: E1}, {id: "e2", run: E2}, {id: "e3", run: E3}, {id: "e5", run: E5},
	{id: "t1", run: T1},
	{id: "a1", run: A1}, {id: "a2", run: A2}, {id: "a3", run: A3}, {id: "a4", run: A4},
	{id: "a5", run: A5}, {id: "a6", run: A6}, {id: "a7", run: A7}, {id: "a8", run: A8},
	{id: "a9", run: A9}, {id: "a10", run: A10}, {id: "a11", run: A11}, {id: "a12", run: A12},
	{id: "a14", collect: collector(a14Collect),
		title:  "metrics: latency distributions, team scaling, health under faults",
		source: "§3.1 latencies as distributions; §4.2 faults as an SLO report"},
	{id: "a15", collect: collector(a15Collect),
		title:  "replication: consensus-replicated fs1 under the A14 fault schedule",
		source: "§4.2 rebinding generalized: no single host owns a name"},
	{id: "a16", collect: collector(a16Collect),
		title:  "sharded engine: per-lane event engines with conservative lookahead",
		source: "PROTOCOL.md §12; client name caches (§2.3) decide each op's class"},
	{id: "a17", collect: collector(a17Collect),
		title:  "lease-coherent name caches: hit rates and the staleness bound under faults",
		source: "PROTOCOL.md §13; §2.3 caches with leases in place of validate-on-use"},
	{id: "a18", collect: func() (any, []Row, error) { return a18Collect(a18FullScale) },
		title:  "population-scale resolution: radix index and open-loop Zipf load",
		source: "PROTOCOL.md §14; §6's 2.6 KB table grown to a user population"},
	{id: "a19", collect: collector(a19Collect),
		title:  "population-scale observability and the lease auto-tuner",
		source: "PROTOCOL.md §15; §13 staleness bound with the cap in place of the fixed length"},
}

// IDs returns the experiment ids in canonical order.
func IDs() []string {
	ids := make([]string, len(registry))
	for i, e := range registry {
		ids[i] = e.id
	}
	return ids
}

// lookup finds an experiment by id. "chaos" is accepted as an alias for
// the A10 fault-injection sweep (`vbench chaos`).
func lookup(id string) (experiment, error) {
	id = strings.ToLower(id)
	if id == "chaos" {
		id = "a10"
	}
	for _, e := range registry {
		if e.id == id {
			return e, nil
		}
	}
	return experiment{}, fmt.Errorf("experiments: unknown experiment %q (have %s)", id, strings.Join(IDs(), ", "))
}

// Run executes one experiment by id.
func Run(id string) (Result, error) {
	e, err := lookup(id)
	if err != nil {
		return Result{}, err
	}
	if e.collect == nil {
		return e.run()
	}
	_, rows, err := e.collect()
	if err != nil {
		return Result{}, err
	}
	return Result{ID: e.id, Title: e.title, Source: e.source, Rows: rows}, nil
}

// DocJSON renders the deterministic document experiment id collects
// (A14…A19) the way the committed BENCH_<doc>.json goldens store it:
// indented JSON with a trailing newline, byte-identical across runs.
func DocJSON(id string) ([]byte, error) {
	e, err := lookup(id)
	if err != nil {
		return nil, err
	}
	if e.collect == nil {
		return nil, fmt.Errorf("experiments: %s collects no document", e.id)
	}
	doc, _, err := e.collect()
	if err != nil {
		return nil, err
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// Print renders a result as an aligned table.
func Print(w io.Writer, res Result) {
	fmt.Fprintf(w, "%s — %s (%s)\n", strings.ToUpper(res.ID), res.Title, res.Source)
	labelW, paperW, measW := len("measurement"), len("paper"), len("measured")
	for _, r := range res.Rows {
		labelW = max(labelW, len(r.Label))
		paperW = max(paperW, len(r.Paper))
		measW = max(measW, len(r.Measured))
	}
	line := func(a, b, c, d string) {
		fmt.Fprintf(w, "  %-*s  %*s  %*s  %s\n", labelW, a, paperW, b, measW, c, d)
	}
	line("measurement", "paper", "measured", "note")
	line(strings.Repeat("-", labelW), strings.Repeat("-", paperW), strings.Repeat("-", measW), "----")
	for _, r := range res.Rows {
		line(r.Label, r.Paper, r.Measured, r.Note)
	}
	fmt.Fprintln(w)
}

// ms renders a virtual duration in the paper's unit.
func ms(d time.Duration) string { return vtime.Milliseconds(d) }

// runChecked runs a scenario and holds it to every oracle that applies:
// without faults no operation may fail; where the scenario asks for the
// sequential reference the engine must equal it; a recorded trace must
// satisfy the span invariants and every stale window the lease bound.
func runChecked(sc rig.Scenario) (*rig.WorkloadResult, rig.Evidence, error) {
	res, ev, err := rig.Run(sc)
	switch {
	case err != nil:
	case len(sc.Faults) == 0 && ev.Errors != 0:
		err = fmt.Errorf("%d requests failed", ev.Errors)
	case sc.Sequential && !ev.EqualToSequential:
		err = errors.New("engine result differs from sequential")
	case ev.TraceErr != nil:
		err = fmt.Errorf("trace violates the span or lease staleness invariants: %w", ev.TraceErr)
	case ev.WidestStale > ev.Bound && ev.Bound > 0:
		err = fmt.Errorf("stale window %v exceeds the bound %v", ev.WidestStale, ev.Bound)
	}
	return res, ev, err
}

// hitRate is the share of client cache lookups answered locally.
func hitRate(st client.LeaseStats) float64 {
	if lookups := st.Hits + st.Misses + st.Renewals; lookups > 0 {
		return float64(st.Hits) / float64(lookups)
	}
	return 0
}
