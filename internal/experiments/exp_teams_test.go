package experiments

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"repro/internal/rig"
)

func TestA11TeamScaling(t *testing.T) {
	hot1, cold1, err := a11Run(1)
	if err != nil {
		t.Fatal(err)
	}
	hot4, cold4, err := a11Run(4)
	if err != nil {
		t.Fatal(err)
	}
	// The cache-hit phase is pure per-request serving compute; a team of
	// four must overlap it well past 2x one serving process.
	if hot4.throughput < 2*hot1.throughput {
		t.Fatalf("team=4 hot throughput %.0f not > 2x team=1 %.0f",
			hot4.throughput, hot1.throughput)
	}
	if hot4.meanLatency >= hot1.meanLatency {
		t.Fatalf("team=4 hot latency %.2f ms not below team=1 %.2f ms",
			hot4.meanLatency, hot1.meanLatency)
	}
	// Cold streams are bound by the single disk arm: teams must not
	// pretend to scale them.
	ratio := cold4.throughput / cold1.throughput
	if ratio > 1.3 || ratio < 0.7 {
		t.Fatalf("cold streams scaled %.2fx with team size; the disk arm should pin them", ratio)
	}
}

func TestA11Deterministic(t *testing.T) {
	h1, c1, err := a11Run(2)
	if err != nil {
		t.Fatal(err)
	}
	h2, c2, err := a11Run(2)
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 || c1 != c2 {
		t.Fatalf("a11 not deterministic:\nhot  %+v vs %+v\ncold %+v vs %+v", h1, h2, c1, c2)
	}
}

func TestA11Shape(t *testing.T) {
	res := runExp(t, "a11")
	if len(res.Rows) != 2*len(a11TeamSizes) {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if !strings.Contains(res.Rows[0].Label, "team=1") {
		t.Fatalf("first row = %+v", res.Rows[0])
	}
}

// TestTeamOneByteIdenticalToSeed pins the refactor's central promise:
// with the default team size of 1 the serving path reproduces the seed
// benchmark output byte for byte. Each checked experiment's rendered
// section must appear verbatim in the committed vbench_output.txt.
func TestTeamOneByteIdenticalToSeed(t *testing.T) {
	seed, err := os.ReadFile("../../vbench_output.txt")
	if err != nil {
		t.Skipf("no seed output: %v", err)
	}
	for _, id := range []string{"e1", "e3", "t1", "a2"} {
		res := runExp(t, id)
		var buf bytes.Buffer
		Print(&buf, res)
		if !bytes.Contains(seed, buf.Bytes()) {
			t.Errorf("experiment %s no longer renders its seed section byte-identically:\n%s", id, buf.String())
		}
	}
}

// TestShardedByteIdenticalToSeed is the conservative engine's
// golden-guard: A11's workloads rerun with every client on its own
// engine lane — all operations Shared, since the clients contend on one
// file server — must render the committed seed section byte for byte.
// Shared operations commit in global (virtual-time, slot) key order,
// which is exactly the sequential driver's pick-min order, so handing
// the engine a maximally sharded lane layout may not move a single
// byte of output.
func TestShardedByteIdenticalToSeed(t *testing.T) {
	seed, err := os.ReadFile("../../vbench_output.txt")
	if err != nil {
		t.Skipf("no seed output: %v", err)
	}
	prev := a11Driver
	defer func() { a11Driver = prev }()
	a11Driver = func(clients []*rig.WorkloadClient) *rig.WorkloadResult {
		for i, c := range clients {
			c.Lane = i
		}
		return rig.RunWorkloadEngine(clients, rig.EngineOptions{})
	}
	res := runExp(t, "a11")
	var buf bytes.Buffer
	Print(&buf, res)
	if !bytes.Contains(seed, buf.Bytes()) {
		t.Fatalf("sharded A11 no longer renders its seed section byte-identically:\n%s", buf.String())
	}
}
