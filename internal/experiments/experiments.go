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
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/client"
	"repro/internal/metrics"
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

// Result is one experiment's output. An experiment with a document
// also fills Legs, and DocJSON writes the whole Result as that document:
// the envelope {tool, schema, id, title, source, legs, rows}, whose rows
// are the ones vbench prints. Run leaves Tool, Schema and Legs empty.
type Result struct {
	Tool   string `json:"tool,omitempty"`
	Schema int    `json:"schema,omitempty"`
	ID     string `json:"id"`
	Title  string `json:"title"`
	Source string `json:"source"` // where in the paper the numbers come from
	Legs   []Leg  `json:"legs,omitempty"`
	Rows   []Row  `json:"rows"`
}

// docSchema versions the document envelope; the typed per-experiment
// documents before it were version 1.
const docSchema = 2

// Leg is one measurement a document records: the scenario the run was
// given and what the run recorded — the rig's evidence, the registry
// series a paper-testbed leg reads, and reads, the few numbers neither
// holds. Durations are nanoseconds throughout (keys ending _ns).
type Leg struct {
	Label    string             `json:"label"`
	Scenario *rig.Scenario      `json:"scenario,omitempty"`
	Evidence *rig.Evidence      `json:"evidence,omitempty"`
	Series   *Series            `json:"series,omitempty"`
	Reads    map[string]float64 `json:"reads,omitempty"`
}

// Series is the metrics-registry state a paper-testbed leg read.
type Series struct {
	Histograms []metrics.HistPoint    `json:"histograms,omitempty"`
	Counters   []metrics.CounterPoint `json:"counters,omitempty"`
	// RequestsPerTick and FailuresPerTick are sampler-derived counter
	// deltas per tick, present when the leg pumped the sampler.
	RequestsPerTick []metrics.SeriesPoint `json:"requests_per_tick,omitempty"`
	FailuresPerTick []metrics.SeriesPoint `json:"failures_per_tick,omitempty"`
	Health          *metrics.HealthReport `json:"health,omitempty"`
}

// reads is a leg's name → number readings.
type reads = map[string]float64

// runLeg runs sc, held to every oracle (rig.Run), and records it as a
// leg: the scenario as given, the evidence as recorded and what read
// takes from the result and the booted topology, which no document holds.
func runLeg(label string, sc rig.Scenario, read func(*rig.WorkloadResult, rig.Evidence) reads) (Leg, error) {
	res, ev, err := rig.Run(sc)
	if err != nil {
		return Leg{}, err
	}
	var rd reads
	if read != nil {
		rd = read(res, ev)
	}
	return newLeg(label, sc, ev, rd), nil
}

// makespan reads a closed-loop run's makespan.
func makespan(res *rig.WorkloadResult, _ rig.Evidence) reads {
	return reads{"makespan_ns": float64(res.Makespan)}
}

// requests is every request the leg's clients issued: each completed or
// failed.
func (l Leg) requests() int { return l.Evidence.Completed + l.Evidence.Errors }

// throughput is a closed-loop leg's requests per virtual second.
func (l Leg) throughput() float64 {
	return float64(l.requests()) / time.Duration(l.Reads["makespan_ns"]).Seconds()
}

// ns reads a duration back out of a leg's reads.
func (l Leg) ns(name string) time.Duration { return time.Duration(l.Reads[name]) }

// newLeg records a run; the population and the topology stay behind.
func newLeg(label string, sc rig.Scenario, ev rig.Evidence, rd reads) Leg {
	sc.Pop = nil
	ev.Topology, ev.Journal = nil, nil
	return Leg{Label: label, Scenario: &sc, Evidence: &ev, Reads: rd}
}

// experiment is one registry row: what vbench prints above the table,
// and the script that produces the rows. A script with an export also
// returns the legs of the deterministic document `vbench -<export> FILE`
// writes, pinned byte-for-byte by the committed BENCH_<export>.json.
type experiment struct {
	id, title, source, export string
	run                       func() (Result, error)
}

// result runs the script and stamps the registry row on its output.
func (e experiment) result() (Result, error) {
	res, err := e.run()
	res.ID, res.Title, res.Source = e.id, e.title, e.source
	return res, err
}

// rowsOnly adapts a script that records no legs.
func rowsOnly(f func() ([]Row, error)) func() (Result, error) {
	return func() (Result, error) {
		rows, err := f()
		return Result{Rows: rows}, err
	}
}

// registry lists the experiments in canonical order — E-series,
// T-series, A-series, numerically within each — which is the section
// order vbench_output.txt pins: new experiments append.
var registry = []experiment{
	{"e1", "Send-Receive-Reply message transaction, 32-byte messages", "§3.1, Figure 1", "", rowsOnly(e1)},
	{"e2", "64 KB program load via MoveTo (program text in server memory)", "§3.1", "", rowsOnly(e2)},
	{"e3", "sequential file read, 512-byte pages, 15 ms/page disk", "§3.1", "", rowsOnly(e3)},
	{"e5", "context prefix server space cost", "§6", "", rowsOnly(e5)},
	{"t1", "Open latency: current context vs. context prefix, local vs. remote server", "§6", "", rowsOnly(t1)},
	{"a1", "context directory vs. per-object query enumeration", "§5.6 (the paper argues this qualitatively)", "", rowsOnly(a1)},
	{"a2", "open latency: distributed interpretation vs. centralized name server", "§2.2 (efficiency)", "", rowsOnly(a2)},
	{"a3", "dangling names after client crashes during delete", "§2.2 (consistency)", "", rowsOnly(a3)},
	{"a4", "objects reachable while the name service is down", "§2.2 (reliability)", "", rowsOnly(a4)},
	{"a5", "service rebinding after server crash and re-creation (new pid)", "§4.2, §6", "", rowsOnly(a5)},
	{"a6", "multicast group context vs. prefix-server indirection", "§7 (future work: multicast Send for name mapping)", "", rowsOnly(a6)},
	{"a7", "pattern-matched context directories (10 of 200 objects wanted)", "§5.6 (extension the paper proposes)", "", rowsOnly(a7)},
	{"a8", "client-side name caching: benefit on reuse vs. inconsistency", "§2.2 (the paper's argument against client caches)", "", rowsOnly(a8)},
	{"a9", "shared-Ethernet saturation under concurrent program loads", "§3.1 (the wire-rate ceiling behind the 338 ms / 13% figures)", "", rowsOnly(a9)},
	{"a10", "chaos sweep: fault rate vs. operation success", "§4.2 (late binding + rebinding) under injected faults", "", rowsOnly(a10)},
	{"a11", "server teams: file-server throughput vs. team size", "§3.1 (multi-process server teams)", "", rowsOnly(a11)},
	{"a12", "trace decomposition of the remote message transaction", "§3.1, Figure 1 (components read off the span tree)", "", rowsOnly(a12)},
	{"a14", "metrics: latency distributions, team scaling, health under faults", "§3.1 latencies as distributions; §4.2 faults as an SLO report", "metrics", a14Collect},
	{"a15", "replication: read-only replicated fs1 under the A14 fault schedule", "§4.2 rebinding generalized: no single host owns a name", "replica", a15Collect},
	{"a16", "sharded engine: per-lane event engines with conservative lookahead", "PROTOCOL.md §12; client name caches (§2.3) decide each op's class", "shard", a16Collect},
	{"a17", "lease-coherent name caches: hit rates and the staleness bound under faults", "PROTOCOL.md §13; §2.3 caches with leases in place of validate-on-use", "cache", a17Collect},
	{"a18", "population-scale resolution: radix index and open-loop Zipf load", "PROTOCOL.md §14; §6's 2.6 KB table grown to a user population", "zipf", func() (Result, error) { return a18Collect(a18FullScale) }},
	{"a19", "population-scale observability and the lease auto-tuner", "PROTOCOL.md §15; §13 staleness bound with the cap in place of the fixed length", "obs", a19Collect},
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

// Run executes one experiment by id and returns what vbench prints.
func Run(id string) (Result, error) {
	e, err := lookup(id)
	if err != nil {
		return Result{}, err
	}
	res, err := e.result()
	if err != nil {
		return Result{}, err
	}
	res.Legs = nil
	return res, nil
}

// Export names one deterministic document: `vbench -<Flag> FILE` writes
// DocJSON(ID), and the committed BENCH_<Flag>.json pins it.
type Export struct {
	Flag, ID, Title string
}

// Exports lists the registry rows that return a document, in canonical
// order.
func Exports() []Export {
	var out []Export
	for _, e := range registry {
		if e.export != "" {
			out = append(out, Export{Flag: e.export, ID: e.id, Title: e.title})
		}
	}
	return out
}

// DocJSON runs experiment id and renders its document the way the
// committed BENCH_<export>.json goldens store it: the Result with its
// legs, as indented JSON with a trailing newline, byte-identical across
// runs. An experiment that records no document is refused without being
// run.
func DocJSON(id string) ([]byte, error) {
	e, err := lookup(id)
	if err != nil {
		return nil, err
	}
	if e.export == "" {
		return nil, fmt.Errorf("experiments: %s returns no document", e.id)
	}
	res, err := e.result()
	if err != nil {
		return nil, err
	}
	res.Tool, res.Schema = "vbench -"+e.export, docSchema
	data, err := json.MarshalIndent(res, "", "  ")
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

// hitRate is the share of client cache lookups answered locally.
func hitRate(st client.LeaseStats) float64 {
	if lookups := st.Hits + st.Misses + st.Renewals; lookups > 0 {
		return float64(st.Hits) / float64(lookups)
	}
	return 0
}
