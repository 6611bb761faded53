package metrics

import (
	"fmt"
	"io"
	"strings"
)

// WritePrometheus renders a snapshot in the Prometheus text exposition
// format (version 0.0.4): counters and gauges as-is, histograms as
// summaries (quantile series plus _count and _sum). Values are virtual
// nanoseconds for latency series. Output order is the snapshot's
// deterministic instrument order. Volatile instruments are included —
// this is a live surface, not a golden one.
func WritePrometheus(w io.Writer, s Snapshot) {
	lastType := ""
	header := func(name, kind string) {
		if lastType != kind+"/"+name {
			fmt.Fprintf(w, "# TYPE %s %s\n", name, kind)
			lastType = kind + "/" + name
		}
	}
	for _, c := range s.Counters {
		header(c.Name, "counter")
		fmt.Fprintf(w, "%s%s %d\n", c.Name, promLabels(c.Labels, ""), c.Value)
	}
	for _, g := range s.Gauges {
		header(g.Name, "gauge")
		fmt.Fprintf(w, "%s%s %d\n", g.Name, promLabels(g.Labels, ""), g.Value)
	}
	for _, h := range s.Histograms {
		header(h.Name, "summary")
		fmt.Fprintf(w, "%s%s %d\n", h.Name, promLabels(h.Labels, `quantile="0.5"`), h.P50US*1000)
		fmt.Fprintf(w, "%s%s %d\n", h.Name, promLabels(h.Labels, `quantile="0.9"`), h.P90US*1000)
		fmt.Fprintf(w, "%s%s %d\n", h.Name, promLabels(h.Labels, `quantile="0.99"`), h.P99US*1000)
		fmt.Fprintf(w, "%s_sum%s %d\n", h.Name, promLabels(h.Labels, ""), h.SumUS*1000)
		fmt.Fprintf(w, "%s_count%s %d\n", h.Name, promLabels(h.Labels, ""), h.Count)
	}
	for _, tl := range s.Timelines {
		header(tl.Name, "gauge")
		value := int64(1) // implicit initial state: up
		if n := len(tl.Points); n > 0 {
			value = tl.Points[n-1].Value
		}
		fmt.Fprintf(w, "%s%s %d\n", tl.Name, promLabels(tl.Labels, ""), value)
	}
}

// promLabels renders a label set (plus an optional pre-rendered extra
// pair) in exposition syntax, empty when there are no labels.
func promLabels(l Labels, extra string) string {
	var parts []string
	add := func(k, v string) {
		if v != "" {
			parts = append(parts, fmt.Sprintf("%s=%q", k, v))
		}
	}
	add("server", l.Server)
	add("op", l.Op)
	add("host", l.Host)
	add("class", l.Class)
	if extra != "" {
		parts = append(parts, extra)
	}
	if len(parts) == 0 {
		return ""
	}
	return "{" + strings.Join(parts, ",") + "}"
}
