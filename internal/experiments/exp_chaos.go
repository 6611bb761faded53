package experiments

import (
	"fmt"
	"time"

	"repro/internal/chaos"
	"repro/internal/client"
	"repro/internal/metrics"
	"repro/internal/rig"
)

// a10 sweeps injected fault rate against operation success fraction for
// the six combinations of {static, dynamic} prefix binding × {no cache,
// naive cache, invalidate-and-retry cache}, with the client recovery
// policy enabled throughout. The schedule crashes and re-creates FS1
// (new pid each restart) and pulses packet loss; FS2 carries a replica
// of the standard-programs context, so a dynamic binding can fail over
// via GetPid while a static binding keeps naming the dead pid — the
// §4.2 argument for late binding, measured as availability.
func a10() ([]Row, error) {
	variants := []struct {
		label  string
		static bool
		cache  string
	}{
		{"static binding, no cache", true, "none"},
		{"static binding, naive cache", true, "naive"},
		{"static binding, invalidate-and-retry", true, "retry"},
		{"dynamic binding, no cache", false, "none"},
		{"dynamic binding, naive cache", false, "naive"},
		{"dynamic binding, invalidate-and-retry", false, "retry"},
	}

	run := func(static bool, cache string, outageEvery time.Duration) (rig.Evidence, error) {
		r, err := rig.New(a10Scenario(outageEvery))
		if err == nil {
			// FS2 replicates the standard-programs context so a rebinding
			// client has somewhere to go during an FS1 outage.
			err = r.MirrorBinOnFS2()
		}
		if err == nil && static {
			// A static binding captures FS1's (pid, ctx) at define time.
			err = r.WS[0].Prefix.Define("sbin", r.BinCtx)
			r.Clients[0].Op = rig.OpenClose("[sbin]hello")
		}
		if err != nil {
			return rig.Evidence{}, err
		}
		if cache != "none" {
			r.WS[0].Session.EnableNameCache(cache == "retry")
		}
		_, ev, err := r.Run()
		return ev, err
	}

	var rows []Row
	var key metrics.Snapshot // dynamic + retry cache at the default rate
	for _, v := range variants {
		fracs := make([]string, len(a10OutageRates))
		for i, rate := range a10OutageRates {
			ev, err := run(v.static, v.cache, rate)
			if err != nil {
				return nil, fmt.Errorf("%s @ %v: %w", v.label, rate, err)
			}
			fracs[i] = fmt.Sprintf("%.2f", float64(ev.Completed)/a10Ops)
			if !v.static && v.cache == "retry" && i == 1 {
				key = ev.Topology.Metrics.Snapshot()
			}
		}
		note := ""
		if v == variants[0] {
			note = "success fraction; mean outage every 1.6s / 0.8s / 0.4s"
		}
		rows = append(rows, Row{
			Label:    v.label,
			Paper:    "-",
			Measured: fmt.Sprintf("%s / %s / %s ok", fracs[0], fracs[1], fracs[2]),
			Note:     note,
		})
	}

	rows = append(rows,
		Row{Label: "recovery work (dynamic, retry cache)", Paper: "-",
			Measured: fmt.Sprintf("%d retries, %d rebinds, %d failovers", total(key, "client_retries_total"),
				total(key, "client_rebinds_total")+total(key, "prefix_rebinds_total"), total(key, "client_failovers_total")),
			Note: "at the default fault rate"},
		Row{Label: "virtual downtime absorbed", Paper: "-",
			Measured: ms(time.Duration(total(key, "client_backoff_ns_total"))),
			Note:     "backoff charged to the client's virtual clock"},
	)
	return rows, nil
}

// A10 runs a10Ops operations at each of its light / default / heavy fault
// rates, the mean time between FS1 outages.
const a10Ops = 150

var a10OutageRates = []time.Duration{1600 * time.Millisecond, 800 * time.Millisecond, 400 * time.Millisecond}

// a10Scenario is A10's rig at one fault rate: the recovery policy on, the
// file servers without read-ahead, and fs1 outages every outageEvery on
// average plus near-total loss pulses over three virtual seconds.
func a10Scenario(outageEvery time.Duration) rig.Scenario {
	policy := client.DefaultRetryPolicy()
	return rig.Scenario{
		Kind: rig.Paper, Users: []string{"mann"}, Seed: 1, Retry: &policy, Requests: a10Ops,
		Faults: chaos.Generate(2026, chaos.Profile{
			Duration:           3 * time.Second,
			Hosts:              []string{"fs1"},
			MeanOutageEvery:    outageEvery,
			OutageLength:       200 * time.Millisecond,
			MeanLossPulseEvery: 900 * time.Millisecond,
			LossPulseLength:    120 * time.Millisecond,
			LossRate:           0.9,
		}),
	}
}
