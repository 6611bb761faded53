package experiments

import (
	"fmt"
	"time"

	"repro/internal/client"
	"repro/internal/rig"
)

// a11TeamSizes is the file-server team-size sweep A11 measures.
var a11TeamSizes = []int{1, 2, 4, 8}

// A11 workload shape. Two phases per team size:
//
//   - A cache-hit phase: eight clients repeatedly query an object at the
//     end of a deep path. Interpreting the name costs the file server
//     real per-request compute (name parse + one context lookup per
//     component + descriptor fabrication) and touches no shared device,
//     so it is the work a team genuinely parallelizes: with one serving
//     process the lookups serialize on its clock; with a team they
//     overlap on the workers' clocks.
//   - A cold-stream phase: four clients each stream previously-untouched
//     files, every page a disk fetch. The single disk arm serializes
//     these at 15 ms/page no matter how many workers wait on it — the
//     honest floor the cold rows document.
//
// The clients run co-resident with the file server and use names
// relative to its root context. That keeps the measurement about the
// serving structure itself: routing the requests through the shared
// Ethernet would couple every client through netsim's conservative
// in-order wire ledger (see the A9 note), and routing them through the
// prefix server would bottleneck on its 3.5 ms rewrite cost instead of
// the file server under test.
const (
	a11HotClients  = 8
	a11HotRequests = 25
	a11HotPath     = "deep/a/b/c/d/e/f/hot.dat"

	a11ColdClients  = 4
	a11ColdRequests = 6
	a11ColdBytes    = 2 * 1024 // 4 disk pages per cold file
)

// a11Stats is one phase's aggregate outcome.
type a11Stats struct {
	throughput  float64
	meanLatency float64 // milliseconds
}

func a11Phase(res *rig.WorkloadResult) a11Stats {
	var total rig.ClientStats
	for _, st := range res.Clients {
		total.Completed += st.Completed
		total.TotalLatency += st.TotalLatency
	}
	return a11Stats{
		throughput:  res.Throughput(),
		meanLatency: float64(total.MeanLatency().Microseconds()) / 1000,
	}
}

// a11Driver runs one A11 phase's workload. It defaults to the sequential
// reference driver; the sharded golden-guard test swaps in the
// conservative engine to prove team=1 output stays byte-identical to the
// seed when every client rides its own engine lane.
var a11Driver = rig.RunWorkload

// a11Session creates a client session on the file server's own host with
// the server's root as current context.
func a11Session(r *rig.Rig, name string) (*client.Session, error) {
	proc, err := r.FS1Host.NewProcess(name)
	if err != nil {
		return nil, err
	}
	return client.New(proc, r.WS[0].Prefix.PID(), r.FS1.RootPair(), "bench"), nil
}

// a11HotPhase seeds the deep path and builds the cache-hit phase's
// clients; tick, when non-nil, pumps a virtual-time observer at the end
// of every query. Only a phase the sequential driver runs may pass one:
// engine lanes would pump it out of virtual-time order.
func a11HotPhase(r *rig.Rig, tick func(now time.Duration)) ([]*rig.WorkloadClient, error) {
	if _, err := r.FS1.MkdirAll("/deep/a/b/c/d/e/f", "system"); err != nil {
		return nil, err
	}
	if err := r.FS1.WriteFile("/"+a11HotPath, "system", make([]byte, 512)); err != nil {
		return nil, err
	}
	clients := make([]*rig.WorkloadClient, 0, a11HotClients)
	for i := 0; i < a11HotClients; i++ {
		sess, err := a11Session(r, fmt.Sprintf("hot%d", i))
		if err != nil {
			return nil, err
		}
		clients = append(clients, &rig.WorkloadClient{
			Session:  sess,
			Requests: a11HotRequests,
			Op: func(s *client.Session, iter int) error {
				_, err := s.Query(a11HotPath)
				if tick != nil {
					tick(s.Proc().Now())
				}
				return err
			},
		})
	}
	return clients, nil
}

// a11Run boots a fresh rig with the given file-server team size, drives
// both phases, and returns their stats.
func a11Run(team int) (hot, cold a11Stats, err error) {
	// Tracing is free in virtual time, so running every sweep point
	// through the invariant checker costs the measurement nothing.
	r, err := rig.New(rig.Config{Users: []string{"mann"}, Seed: 1, ReadAhead: true, FileServerTeam: team, Trace: true})
	if err != nil {
		return hot, cold, err
	}
	hotClients, err := a11HotPhase(r, nil)
	if err != nil {
		return hot, cold, err
	}
	// Boot-time writes do not populate the buffer cache, so each cold
	// file's first (and only) read hits the disk.
	for i := 0; i < a11ColdClients; i++ {
		for j := 0; j < a11ColdRequests; j++ {
			path := fmt.Sprintf("/bench/cold%d/r%d.dat", i, j)
			if err := r.FS1.WriteFile(path, "system", make([]byte, a11ColdBytes)); err != nil {
				return hot, cold, err
			}
		}
	}

	// phase drives one phase's clients through the driver and holds the
	// run to its oracles: no failed request, a clean trace.
	phase := func(clients []*rig.WorkloadClient, what string) (a11Stats, error) {
		res := a11Driver(clients)
		if err := noErrors(res, "a11 "+what+" phase"); err != nil {
			return a11Stats{}, err
		}
		if err := r.CheckTrace(); err != nil {
			return a11Stats{}, fmt.Errorf("%s phase trace: %w", what, err)
		}
		return a11Phase(res), nil
	}
	if hot, err = phase(hotClients, "cache-hit"); err != nil {
		return hot, cold, err
	}

	coldClients := make([]*rig.WorkloadClient, 0, a11ColdClients)
	for i := 0; i < a11ColdClients; i++ {
		sess, err := a11Session(r, fmt.Sprintf("cold%d", i))
		if err != nil {
			return hot, cold, err
		}
		idx := i
		coldClients = append(coldClients, &rig.WorkloadClient{
			Session:  sess,
			Requests: a11ColdRequests,
			Op: func(s *client.Session, iter int) error {
				_, err := s.ReadFile(fmt.Sprintf("bench/cold%d/r%d.dat", idx, iter))
				return err
			},
		})
	}
	cold, err = phase(coldClients, "cold-stream")
	return hot, cold, err
}

// noErrors holds a fault-free workload to its word: no request may fail.
func noErrors(res *rig.WorkloadResult, what string) error {
	for i, st := range res.Clients {
		if st.Errors > 0 {
			return fmt.Errorf("%s: client %d: %d requests failed", what, i, st.Errors)
		}
	}
	return nil
}

// a11 measures the server-team refactor: file-server throughput and
// latency under concurrent clients as the team size grows. §3.1
// describes V servers as "implemented as a team of processes" so a
// receptionist can hand a request to a helper and keep receiving; the
// serving runtime reproduces that structure (core.Team, kernel Forward
// handoff at local-hop cost). The paper gives no team-size scaling
// figures, so the paper column carries the qualitative claims: lookup
// compute no longer serializes behind one process, while the single disk
// arm stays the floor for disk-bound streams.
func a11() ([]Row, error) {
	var rows []Row
	var baseHot, baseCold a11Stats
	for _, team := range a11TeamSizes {
		hot, cold, err := a11Run(team)
		if err != nil {
			return nil, err
		}
		if team == 1 {
			baseHot, baseCold = hot, cold
		}
		rows = append(rows,
			Row{
				Label:    fmt.Sprintf("team=%d cache-hit queries", team),
				Paper:    a11Paper(team, "serializes", "overlaps"),
				Measured: fmt.Sprintf("%.0f req/s, %.2f ms mean", hot.throughput, hot.meanLatency),
				Note:     fmt.Sprintf("%d clients, %.1fx vs team=1", a11HotClients, hot.throughput/baseHot.throughput),
			},
			Row{
				Label:    fmt.Sprintf("team=%d cold streams", team),
				Paper:    a11Paper(team, "disk-bound", "disk arm floor"),
				Measured: fmt.Sprintf("%.0f req/s, %.2f ms mean", cold.throughput, cold.meanLatency),
				Note:     fmt.Sprintf("%d clients, %.1fx vs team=1", a11ColdClients, cold.throughput/baseCold.throughput),
			},
		)
	}
	return rows, nil
}

// a11Paper is the paper column of a team-size row: the paper gives the
// qualitative claim only, one for the single process and one for a team.
func a11Paper(team int, single, teamed string) string {
	if team == 1 {
		return single
	}
	return teamed
}
