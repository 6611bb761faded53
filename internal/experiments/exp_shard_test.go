package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
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
	var doc Result
	if err := json.Unmarshal(b1, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Legs[0].Reads["lookahead_ns"] <= 0 {
		t.Fatalf("lookahead leg = %+v", doc.Legs[0])
	}
	runs := doc.Legs[1:]
	if len(runs) != len(a16ShardCounts) {
		t.Fatalf("runs = %d, want %d", len(runs), len(a16ShardCounts))
	}
	for _, run := range runs {
		sc, ev := run.Scenario, run.Evidence
		if !sc.Sequential {
			t.Fatalf("shards=%d: not held to the sequential reference", sc.Shards)
		}
		if ev.Client.Hits == 0 || ev.Client.Misses == 0 {
			t.Fatalf("shards=%d: degenerate class mix (confined=%d shared=%d)",
				sc.Shards, ev.Client.Hits, ev.Client.Misses)
		}
		want := sc.Shards * sc.ClientsPerShard * sc.Requests
		if run.requests() != want {
			t.Fatalf("shards=%d: requests = %d, want %d", sc.Shards, run.requests(), want)
		}
		lanes := 0
		for lane := 0; lane < sc.Shards; lane++ {
			lanes += int(run.Reads[fmt.Sprintf("lane%d_ops", lane)])
		}
		if lanes != want {
			t.Fatalf("shards=%d: per-lane ops sum %d, want %d", sc.Shards, lanes, want)
		}
	}
}
