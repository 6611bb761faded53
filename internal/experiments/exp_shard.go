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

// a16Collect runs the sweep once. Each sweep leg reads its makespan and
// each lane's completed operations (lane<i>_ops); the lookahead leg reads
// the bound every lane's promises are made against.
func a16Collect() (Result, error) {
	lookahead := vtime.DefaultModel().MinRemoteDelay()
	res := Result{
		Legs: []Leg{{
			Label: "conservative lookahead bound: the cost model's minimum remote delay",
			Reads: reads{"lookahead_ns": float64(lookahead)},
		}},
		Rows: []Row{{
			Label:    "conservative lookahead bound",
			Paper:    "-",
			Measured: ms(lookahead),
			Note:     "min remote delay: driver floor + protocol extra + 64-byte frame",
		}},
	}
	for _, shards := range a16ShardCounts {
		leg, err := runLeg(fmt.Sprintf("shards=%d", shards), a16Scenario(shards), func(wr *rig.WorkloadResult, ev rig.Evidence) reads {
			rd := makespan(wr, ev)
			for i, st := range wr.Clients {
				rd[fmt.Sprintf("lane%d_ops", ev.Topology.Clients[i].Lane)] += float64(st.Completed)
			}
			return rd
		})
		if err != nil {
			return Result{}, fmt.Errorf("a16 shards=%d: %w", shards, err)
		}
		res.Legs = append(res.Legs, leg)
		res.Rows = append(res.Rows, Row{
			Label:    fmt.Sprintf("shards=%d (%d lanes, %d clients)", shards, shards, shards*a16ClientsPerShard),
			Paper:    "-",
			Measured: fmt.Sprintf("%.0f req/s", leg.throughput()),
			Note: fmt.Sprintf("≡ sequential; %d confined + %d shared ops; PR 4 lane driver: inapplicable",
				leg.Evidence.Client.Hits, leg.Evidence.Client.Misses),
		})
	}
	return res, nil
}
