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
	width := func(name string, l Labels) { nameW = max(nameW, len(name+promLabels(l, ""))) }
	for _, c := range s.Counters {
		width(c.Name, c.Labels)
	}
	for _, g := range s.Gauges {
		width(g.Name, g.Labels)
	}
	for _, h := range s.Histograms {
		width(h.Name, h.Labels)
	}
	for _, t := range s.Timelines {
		width(t.Name, t.Labels)
	}

	vol := func(v bool) string {
		if v {
			return "  (volatile)"
		}
		return ""
	}
	if len(s.Counters) > 0 {
		fmt.Fprintln(w, "counters:")
		for _, c := range s.Counters {
			fmt.Fprintf(w, "  %-*s %12d\n", nameW, c.Name+promLabels(c.Labels, ""), c.Value)
		}
	}
	if len(s.Gauges) > 0 {
		fmt.Fprintln(w, "gauges:")
		for _, g := range s.Gauges {
			fmt.Fprintf(w, "  %-*s %12d%s\n", nameW, g.Name+promLabels(g.Labels, ""), g.Value, vol(g.Volatile))
		}
	}
	if len(s.Histograms) > 0 {
		fmt.Fprintln(w, "histograms:")
		fmt.Fprintf(w, "  %-*s %8s  %10s  %10s  %10s  %10s\n",
			nameW, "", "count", "p50", "p90", "p99", "max")
		for _, h := range s.Histograms {
			fmt.Fprintf(w, "  %-*s %8d  %10s  %10s  %10s  %10s\n",
				nameW, h.Name+promLabels(h.Labels, ""), h.Count, usText(h.P50US), usText(h.P90US), usText(h.P99US), usText(h.MaxUS))
		}
	}
	if len(s.Timelines) > 0 {
		fmt.Fprintln(w, "timelines:")
		for _, t := range s.Timelines {
			fmt.Fprintf(w, "  %-*s", nameW, t.Name+promLabels(t.Labels, ""))
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
