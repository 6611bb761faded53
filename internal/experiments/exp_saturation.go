package experiments

import (
	"fmt"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/fileserver"
	"repro/internal/kernel"
	"repro/internal/netsim"
	"repro/internal/prefix"
	"repro/internal/rig"
	"repro/internal/vtime"
)

// a9 measures shared-Ethernet saturation: N diskless workstations load
// 64 KB programs concurrently, each from its own file server, so only
// the 3 Mbit wire couples them. §3.1's single-load figure (338 ms,
// within 13% of the maximum packet write rate) already implies the
// medium is the ceiling; this experiment shows per-load latency growing
// with N while aggregate goodput plateaus.
//
// Approximation note: netsim's wire ledger serializes whole transfers in
// request order rather than interleaving packets, so contention is
// modelled conservatively — the plateau lands at the single-stream
// pipeline rate (~1.5 Mbit/s goodput) rather than the ~2.7 Mbit/s a
// packet-interleaved medium would reach. The qualitative result
// (saturation; ~linear per-load slowdown) is the point. The loaders run
// as one-request clients of the sequential workload driver, so wire
// reservations happen in client-index order and every run is
// byte-identical.
func a9() ([]Row, error) {
	const imageBytes = 64 * 1024

	run := func(n int) (worst time.Duration, aggregateMbit, utilization float64, err error) {
		net := netsim.New(vtime.DefaultModel(), 1)
		k := kernel.New(net)
		var fail error

		loaders := make([]*rig.WorkloadClient, 0, n)
		for i := 0; i < n; i++ {
			fsHost := k.NewHost(fmt.Sprintf("fs%d", i))
			fs, err := fileserver.Start(fsHost, fmt.Sprintf("fs%d", i))
			if err != nil {
				return 0, 0, 0, err
			}
			if err := fs.WriteFile("/bin/editor", "system", make([]byte, imageBytes)); err != nil {
				return 0, 0, 0, err
			}
			wsHost := k.NewHost(fmt.Sprintf("ws%d", i))
			ps, err := prefix.Start(wsHost, fmt.Sprintf("user%d", i))
			if err != nil {
				return 0, 0, 0, err
			}
			binCtx, err := fs.MkdirAll("/bin", "system")
			if err != nil {
				return 0, 0, 0, err
			}
			if err := ps.Define("bin", core.ContextPair{Server: fs.PID(), Ctx: binCtx}); err != nil {
				return 0, 0, 0, err
			}
			proc, err := wsHost.NewProcess("loader")
			if err != nil {
				return 0, 0, 0, err
			}
			loaders = append(loaders, &rig.WorkloadClient{
				Session:  client.New(proc, ps.PID(), fs.RootPair(), ""),
				Requests: 1,
				Op: func(s *client.Session, _ int) error {
					_, err := s.LoadProgram("[bin]editor", make([]byte, imageBytes))
					if err != nil && fail == nil {
						fail = err
					}
					return err
				},
			})
		}
		for _, st := range rig.RunWorkload(loaders).Clients {
			if st.TotalLatency > worst {
				worst = st.TotalLatency
			}
		}
		if fail != nil {
			return 0, 0, 0, fail
		}
		totalBits := float64(n) * imageBytes * 8
		aggregateMbit = totalBits / (float64(worst) / float64(time.Second)) / 1e6
		utilization = float64(net.Stats().WireBusyFor) / float64(worst)
		return worst, aggregateMbit, utilization, nil
	}

	var rows []Row
	for _, n := range []int{1, 2, 4, 8} {
		worst, mbit, util, err := run(n)
		if err != nil {
			return nil, err
		}
		paper := "-"
		if n == 1 {
			paper = "338 ms"
		}
		rows = append(rows, Row{
			Label:    fmt.Sprintf("%d concurrent 64 KB loads", n),
			Paper:    paper,
			Measured: ms(worst),
			Note:     fmt.Sprintf("aggregate goodput %.2f Mbit/s, wire %.0f%% busy", mbit, util*100),
		})
	}
	return rows, nil
}
