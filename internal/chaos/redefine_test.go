package chaos_test

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/kernel"
	"repro/internal/netsim"
	"repro/internal/rig"
	"repro/internal/vtime"
)

// TestRedefineFailuresAreLogged: a Redefine that cannot be carried out —
// an unknown name, a shard that does not exist, a prefix host that is
// down, or no rig to execute it at all — logs error=… on the pinned
// "redefine" line and the run goes on; none of them panics.
func TestRedefineFailuresAreLogged(t *testing.T) {
	_, ev, err := rig.Run(rig.Scenario{
		Kind: rig.SharedPrefix, Shards: 2, ClientsPerShard: 2, Requests: 60, Seed: 7,
		Lease: 80 * time.Millisecond,
		Faults: []chaos.Event{
			{At: 20 * time.Millisecond, Action: chaos.Redefine, Name: "shard1", Shard: 1, Note: "fine"},
			{At: 40 * time.Millisecond, Action: chaos.Redefine, Name: "no-such-prefix"},
			{At: 60 * time.Millisecond, Action: chaos.Redefine, Name: "shard0", Shard: 9},
			{At: 80 * time.Millisecond, Action: chaos.Crash, Host: "nexus"},
			{At: 100 * time.Millisecond, Action: chaos.Redefine, Name: "shard0"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ev.ChaosLog) != 5 {
		t.Fatalf("fired %d events, want 5:\n%s", len(ev.ChaosLog), strings.Join(ev.ChaosLog, "\n"))
	}
	if want := "t=00020000us redefine  ok (fine)"; ev.ChaosLog[0] != want {
		t.Fatalf("successful redefine logged %q, want %q", ev.ChaosLog[0], want)
	}
	for _, i := range []int{1, 2, 4} {
		if !strings.Contains(ev.ChaosLog[i], "redefine  error=") {
			t.Fatalf("event %d did not log its failure: %q", i, ev.ChaosLog[i])
		}
	}

	// Outside rig.Run nothing knows where the prefix server lives.
	bare := chaos.New(kernel.New(netsim.New(vtime.DefaultModel(), 1)),
		[]chaos.Event{{Action: chaos.Redefine, Name: "shard0"}})
	bare.AdvanceTo(math.MaxInt64) // every remaining event, whatever its time
	if log := bare.Log(); len(log) != 1 || !strings.Contains(log[0], "error=no redefine hook") {
		t.Fatalf("hookless redefine logged %q", log)
	}
}
