package metrics

import (
	"fmt"
	"io"

	"repro/internal/vtime"
)

// WriteText renders a snapshot for terminal surfaces (vstat, the vsh
// stats builtin): counters and gauges as aligned name{labels}=value
// lines, histograms with their quantiles in the paper's milliseconds
// unit. Both surfaces call this one renderer so they print the same
// numbers. Volatile instruments are included — live surfaces want
// freshness, not reproducibility — and tagged so a reader knows not to
// compare them across runs.
func (s Snapshot) WriteText(w io.Writer) {
	nameW := 0
	measure := func(name string, l Labels) string {
		id := name + promLabels(l, "")
		if len(id) > nameW {
			nameW = len(id)
		}
		return id
	}
	counterIDs := make([]string, len(s.Counters))
	for i, c := range s.Counters {
		counterIDs[i] = measure(c.Name, c.Labels)
	}
	gaugeIDs := make([]string, len(s.Gauges))
	for i, g := range s.Gauges {
		gaugeIDs[i] = measure(g.Name, g.Labels)
	}
	histIDs := make([]string, len(s.Histograms))
	for i, h := range s.Histograms {
		histIDs[i] = measure(h.Name, h.Labels)
	}
	tlIDs := make([]string, len(s.Timelines))
	for i, t := range s.Timelines {
		tlIDs[i] = measure(t.Name, t.Labels)
	}

	vol := func(v bool) string {
		if v {
			return "  (volatile)"
		}
		return ""
	}
	if len(s.Counters) > 0 {
		fmt.Fprintln(w, "counters:")
		for i, c := range s.Counters {
			fmt.Fprintf(w, "  %-*s %12d\n", nameW, counterIDs[i], c.Value)
		}
	}
	if len(s.Gauges) > 0 {
		fmt.Fprintln(w, "gauges:")
		for i, g := range s.Gauges {
			fmt.Fprintf(w, "  %-*s %12d%s\n", nameW, gaugeIDs[i], g.Value, vol(g.Volatile))
		}
	}
	if len(s.Histograms) > 0 {
		fmt.Fprintln(w, "histograms:")
		fmt.Fprintf(w, "  %-*s %8s  %10s  %10s  %10s  %10s\n",
			nameW, "", "count", "p50", "p90", "p99", "max")
		for i, h := range s.Histograms {
			fmt.Fprintf(w, "  %-*s %8d  %10s  %10s  %10s  %10s\n",
				nameW, histIDs[i], h.Count, usText(h.P50US), usText(h.P90US), usText(h.P99US), usText(h.MaxUS))
		}
	}
	if len(s.Timelines) > 0 {
		fmt.Fprintln(w, "timelines:")
		for i, t := range s.Timelines {
			fmt.Fprintf(w, "  %-*s", nameW, tlIDs[i])
			for _, p := range t.Points {
				fmt.Fprintf(w, "  %s=%d", vtime.Milliseconds(p.At), p.Value)
			}
			fmt.Fprintln(w)
		}
	}
}

// WriteDiffs renders the sampler's per-tick snapshot diffs: for each
// tick, every counter that advanced since the previous one, as
// "name{labels} +delta" entries — the terminal view of the time-series
// the sampler collects.
func WriteDiffs(w io.Writer, samples []Sample) {
	prev := map[string]uint64{}
	for _, s := range samples {
		var line []string
		for _, c := range s.Counters {
			id := c.Name + promLabels(c.Labels, "")
			if d := c.Value - prev[id]; d > 0 {
				line = append(line, fmt.Sprintf("%s +%d", id, d))
			}
			prev[id] = c.Value
		}
		fmt.Fprintf(w, "t=%-12s", vtime.Milliseconds(s.At))
		if len(line) == 0 {
			fmt.Fprint(w, "  (idle)")
		}
		for _, e := range line {
			fmt.Fprintf(w, "  %s", e)
		}
		fmt.Fprintln(w)
	}
}

// usText renders a microsecond quantity as milliseconds.
func usText(u int64) string { return vtime.Milliseconds(vtime.Time(u) * 1000) }
