package experiments

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestA16Shape(t *testing.T) {
	res := runExp(t, "a16")
	if len(res.Rows) != 1+len(a16ShardCounts) {
		t.Fatalf("rows = %d, want %d", len(res.Rows), 1+len(a16ShardCounts))
	}
	if !strings.Contains(res.Rows[0].Label, "lookahead") {
		t.Fatalf("first row = %+v", res.Rows[0])
	}
	for _, r := range res.Rows[1:] {
		if !strings.Contains(r.Note, "≡ sequential") {
			t.Fatalf("sweep row lost its equivalence check: %+v", r)
		}
	}
}

func TestShardJSONDeterministic(t *testing.T) {
	b1, err := DocJSON("a16")
	if err != nil {
		t.Fatal(err)
	}
	b2, err := DocJSON("a16")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("BENCH_shard.json not byte-deterministic across runs")
	}
	var doc ShardDoc
	if err := json.Unmarshal(b1, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.LookaheadNS <= 0 {
		t.Fatalf("lookahead_ns = %d", doc.LookaheadNS)
	}
	if len(doc.Runs) != len(a16ShardCounts) {
		t.Fatalf("runs = %d, want %d", len(doc.Runs), len(a16ShardCounts))
	}
	for _, run := range doc.Runs {
		if !run.EqualToSequential {
			t.Fatalf("shards=%d: not equal to sequential", run.Shards)
		}
		if run.ConfinedOps == 0 || run.SharedOps == 0 {
			t.Fatalf("shards=%d: degenerate class mix (confined=%d shared=%d)",
				run.Shards, run.ConfinedOps, run.SharedOps)
		}
		if run.Errors != 0 {
			t.Fatalf("shards=%d: %d errors", run.Shards, run.Errors)
		}
		want := run.Shards * run.ClientsPerShard * run.Requests
		if run.TotalRequests != want {
			t.Fatalf("shards=%d: total_requests = %d, want %d", run.Shards, run.TotalRequests, want)
		}
		lanes := 0
		for _, n := range run.PerLaneOps {
			lanes += n
		}
		if lanes != want {
			t.Fatalf("shards=%d: per-lane ops sum %d, want %d", run.Shards, lanes, want)
		}
	}
}
