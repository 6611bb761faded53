package metrics

import (
	"fmt"
	"io"

	"repro/internal/vtime"
)

// The health report turns the raw registry state into the operator's
// view: per-server availability windows (from the exact-timestamp
// server_up timelines the chaos engine and kernel maintain), error
// budgets against an SLO target, and degradation intervals (sampler
// ticks in which clients saw failures or burned retries). Everything is
// derived from virtual time, so the report is deterministic and can be
// cross-checked against the trace invariant checker's view of the same
// run (a server-exit span must fall inside an outage window).

// TimelineServerUp is the timeline name carrying host up/down state
// (value 1 = up, 0 = down), labeled by Host.
const TimelineServerUp = "server_up"

// Window is a half-open virtual-time interval [From, To).
type Window struct {
	From vtime.Time `json:"from_us"`
	To   vtime.Time `json:"to_us"`
}

// Duration returns the window length.
func (w Window) Duration() vtime.Time { return w.To - w.From }

// ServerHealth is one host's availability accounting over the horizon.
type ServerHealth struct {
	Host         string   `json:"host"`
	Up           bool     `json:"up"` // state at the horizon
	Outages      []Window `json:"outages,omitempty"`
	DowntimeUS   int64    `json:"downtime_us"`
	Availability float64  `json:"availability"`
	SLOMet       bool     `json:"slo_met"`
	// ErrorBudgetLeft is the fraction of the SLO's allowed downtime not
	// yet consumed (negative when the budget is blown).
	ErrorBudgetLeft float64 `json:"error_budget_left"`
}

// HealthReport is the derived health/SLO document for one run.
type HealthReport struct {
	HorizonUS int64          `json:"horizon_us"`
	SLO       float64        `json:"slo"`
	Servers   []ServerHealth `json:"servers,omitempty"`
	// Degraded are the merged sampler windows in which clients observed
	// failures or retries (empty without a pumped sampler).
	Degraded []Window `json:"degraded,omitempty"`
}

// degradationSeries are the counter names whose per-tick deltas mark a
// tick as degraded from the client's point of view.
var degradationSeries = []string{
	"client_op_failures_total",
	"client_retries_total",
	"kernel_send_failures_total",
}

// Health builds the report from a registry snapshot and (optionally) a
// sampler's series, judged against an availability SLO over [0,
// horizon].
func Health(snap Snapshot, samples []Sample, horizon vtime.Time, slo float64) *HealthReport {
	rep := &HealthReport{HorizonUS: us(horizon), SLO: slo}
	for _, tl := range snap.Timelines {
		if tl.Name == TimelineServerUp {
			rep.Servers = append(rep.Servers, serverHealth(tl, horizon, slo))
		}
	}
	rep.Degraded = degradedWindows(samples)
	return rep
}

func serverHealth(tl TimelineSeries, horizon vtime.Time, slo float64) ServerHealth {
	h := ServerHealth{Host: tl.Labels.Host, Up: true}
	var downSince vtime.Time
	down := false
	for _, p := range tl.Points {
		switch {
		case p.Value == 0 && !down:
			down, downSince = true, p.At
		case p.Value != 0 && down:
			down = false
			h.Outages = append(h.Outages, Window{From: downSince, To: p.At})
		}
	}
	if down {
		h.Outages = append(h.Outages, Window{From: downSince, To: horizon})
		h.Up = false
	}
	var downtime vtime.Time
	for _, o := range h.Outages {
		downtime += o.Duration()
	}
	h.DowntimeUS = us(downtime)
	if horizon > 0 {
		h.Availability = 1 - float64(downtime)/float64(horizon)
		budget := (1 - slo) * float64(horizon)
		if budget > 0 {
			h.ErrorBudgetLeft = 1 - float64(downtime)/budget
		} else if downtime == 0 {
			h.ErrorBudgetLeft = 1
		} else {
			h.ErrorBudgetLeft = -1
		}
		h.SLOMet = h.Availability >= slo
	} else {
		h.Availability = 1
		h.SLOMet = true
		h.ErrorBudgetLeft = 1
	}
	return h
}

// degradedWindows merges consecutive degraded ticks. A tick covering
// (prev.At, s.At] is degraded when any degradation series advanced in
// it.
func degradedWindows(samples []Sample) []Window {
	var out []Window
	prevTotals := map[string]uint64{}
	var prevAt vtime.Time
	for _, s := range samples {
		degraded := false
		for _, name := range degradationSeries {
			cur := s.Total(name)
			if cur > prevTotals[name] {
				degraded = true
			}
			prevTotals[name] = cur
		}
		if degraded {
			if n := len(out); n > 0 && out[n-1].To == prevAt {
				out[n-1].To = s.At
			} else {
				out = append(out, Window{From: prevAt, To: s.At})
			}
		}
		prevAt = s.At
	}
	return out
}

// WriteText renders the report for terminal surfaces (vstat, vsh).
func (r *HealthReport) WriteText(w io.Writer) {
	fmt.Fprintf(w, "health over %s (SLO %.2f%%)\n", vtime.Milliseconds(vtime.Time(r.HorizonUS)*1000), r.SLO*100)
	if len(r.Servers) == 0 {
		fmt.Fprintf(w, "  no server state transitions recorded (no faults)\n")
	}
	for _, s := range r.Servers {
		status := "met"
		if !s.SLOMet {
			status = "VIOLATED"
		}
		fmt.Fprintf(w, "  host %-8s availability %.4f  downtime %s  slo %s  budget left %+.2f\n",
			s.Host, s.Availability, vtime.Milliseconds(vtime.Time(s.DowntimeUS)*1000), status, s.ErrorBudgetLeft)
		for _, o := range s.Outages {
			fmt.Fprintf(w, "    outage %s -> %s (%s)\n",
				vtime.Milliseconds(o.From), vtime.Milliseconds(o.To), vtime.Milliseconds(o.Duration()))
		}
	}
	for _, d := range r.Degraded {
		fmt.Fprintf(w, "  degraded %s -> %s (client-visible failures/retries)\n",
			vtime.Milliseconds(d.From), vtime.Milliseconds(d.To))
	}
}
