package experiments

// A16 measures the conservative sharded engine (PROTOCOL.md §12) on the
// shared-prefix topology — the shape PR 4's lane driver could not
// parallelize at all, because every client's cache misses cross one
// wire to one prefix server. The engine's whole claim is that going
// wide changes nothing observable: each sweep point runs the workload
// both ways and reports the virtual throughput only after checking the
// two results are deeply equal. Wall-clock scaling lives in the
// repository benchmark (bench/README.md, engine.speedup_pN); everything
// here is virtual time and therefore byte-deterministic.

import (
	"fmt"

	"repro/internal/rig"
	"repro/internal/vtime"
)

// a16Shape fixes the per-shard load; the sweep varies only the number
// of shards (= engine lanes).
const (
	a16ClientsPerShard = 4
	a16Requests        = 40
	a16FlushEvery      = 6
	a16Seed            = 7
)

// a16ShardCounts is the lane sweep.
var a16ShardCounts = []int{1, 2, 4, 8}

// ShardRun is one sweep point in BENCH_shard.json.
type ShardRun struct {
	Shards          int   `json:"shards"`
	ClientsPerShard int   `json:"clients_per_shard"`
	Requests        int   `json:"requests_per_client"`
	Team            int   `json:"team"`
	FlushEvery      int   `json:"flush_every"`
	Seed            int64 `json:"seed"`

	TotalRequests int     `json:"total_requests"`
	Errors        int     `json:"errors"`
	MakespanUS    int64   `json:"makespan_us"`
	ThroughputRPS float64 `json:"throughput_rps"`

	// ConfinedOps counts cache-hit queries (lane-local hops the engine
	// runs ahead on); SharedOps counts cache misses through the central
	// prefix server (committed in global key order).
	ConfinedOps int `json:"confined_ops"`
	SharedOps   int `json:"shared_ops"`

	// PerLaneOps is the completed-operation count of each engine lane.
	PerLaneOps []int `json:"per_lane_ops"`

	// EqualToSequential records the result of re-running the identical
	// workload through the sequential reference driver and deep-comparing
	// the two WorkloadResults.
	EqualToSequential bool `json:"equal_to_sequential"`
}

// ShardDoc is the BENCH_shard.json schema.
type ShardDoc struct {
	Tool        string `json:"tool"`
	Description string `json:"description"`

	// Engine names the synchronization protocol (PROTOCOL.md §12).
	Engine string `json:"engine"`
	// LookaheadNS is the conservative lookahead bound: the cost model's
	// minimum remote delay (driver floor + protocol extra + minimum
	// frame's wire time).
	LookaheadNS int64 `json:"lookahead_ns"`

	Runs []ShardRun `json:"runs"`
}

// a16Scenario is one sweep point: the shared-prefix topology with the
// periodic blind flush, double-run against the sequential reference.
func a16Scenario(shards int) rig.Scenario {
	return rig.Scenario{
		Kind:            rig.SharedPrefix,
		Shards:          shards,
		ClientsPerShard: a16ClientsPerShard,
		Requests:        a16Requests,
		Seed:            a16Seed,
		FlushEvery:      a16FlushEvery,
		Sequential:      true,
	}
}

// a16Run executes one sweep point.
func a16Run(shards int) (ShardRun, error) {
	run := ShardRun{
		Shards:          shards,
		ClientsPerShard: a16ClientsPerShard,
		Requests:        a16Requests,
		Team:            1,
		FlushEvery:      a16FlushEvery,
		Seed:            a16Seed,
	}
	res, ev, err := runChecked(a16Scenario(shards))
	if err != nil {
		return run, err
	}
	run.EqualToSequential = ev.EqualToSequential
	run.TotalRequests = res.Requests
	run.MakespanUS = res.Makespan.Microseconds()
	run.ThroughputRPS = res.Throughput()
	run.PerLaneOps = make([]int, shards)
	for i, st := range res.Clients {
		run.PerLaneOps[ev.Topology.Clients[i].Lane] += st.Completed
	}
	run.ConfinedOps = ev.Client.Hits
	run.SharedOps = ev.Client.Misses
	return run, nil
}

// a16Collect runs the sweep once, producing both the JSON document and
// the experiment rows from the same data.
func a16Collect() (*ShardDoc, []Row, error) {
	doc := &ShardDoc{
		Tool:        "vbench -shard",
		Description: "conservative sharded engine on the shared-prefix topology: per-lane engines with lookahead synchronization, verified deeply equal to the sequential driver",
		Engine:      "conservative (exact next-op promises, PROTOCOL.md §12)",
		LookaheadNS: vtime.DefaultModel().MinRemoteDelay().Nanoseconds(),
	}
	rows := []Row{{
		Label:    "conservative lookahead bound",
		Paper:    "-",
		Measured: ms(vtime.DefaultModel().MinRemoteDelay()),
		Note:     "min remote delay: driver floor + protocol extra + 64-byte frame",
	}}
	for _, shards := range a16ShardCounts {
		run, err := a16Run(shards)
		if err != nil {
			return nil, nil, fmt.Errorf("a16 shards=%d: %w", shards, err)
		}
		doc.Runs = append(doc.Runs, run)
		rows = append(rows, Row{
			Label:    fmt.Sprintf("shards=%d (%d lanes, %d clients)", shards, shards, shards*a16ClientsPerShard),
			Paper:    "-",
			Measured: fmt.Sprintf("%.0f req/s", run.ThroughputRPS),
			Note: fmt.Sprintf("≡ sequential; %d confined + %d shared ops; PR 4 lane driver: inapplicable",
				run.ConfinedOps, run.SharedOps),
		})
	}
	return doc, rows, nil
}
