package experiments

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/popgen"
	"repro/internal/rig"
	"repro/internal/vtime"
)

// TestScenarioIsPlainData: every scenario A16–A19 run, and the paper
// scenarios A10, A14 and A15 pace their faults through, is a value a
// generator could have produced and a file could hold — it survives
// json.Marshal → Unmarshal unchanged, Retry and Model pointers included,
// with each fault's action written as its name.
func TestScenarioIsPlainData(t *testing.T) {
	pop := popgen.NewPopulation(a18TestScale.tracePop, a18Skew, a18PopSeed)
	e1 := rig.DefaultConfig()
	e1.Model = vtime.Model10Mbit()
	all := []rig.Scenario{
		a17ChaosScenario("crash"), a17ChaosScenario("partition"),
		a18TraceScenario(pop), a19SampledScenario(pop),
		a14ChaosScenario(0), a14ChaosScenario(3), e1,
	}
	for _, rate := range a10OutageRates {
		all = append(all, a10Scenario(rate))
	}
	for _, shards := range a16ShardCounts {
		all = append(all, a16Scenario(shards))
	}
	for _, lease := range a17LeaseSweep {
		all = append(all, a17SweepScenario(lease, false), a17SweepScenario(lease, true), a19TuneScenario(lease, 0))
	}
	for _, n := range a18FullScale.pops {
		all = append(all, a18Scenario(n, a18Skew, false), a18Scenario(n, a18Skew, true))
	}
	for _, skew := range a18SkewSweep {
		all = append(all, a18Scenario(a18FullScale.skewPop, skew, false))
	}
	for _, floor := range a19TuneFloors {
		all = append(all, a19TuneScenario(floor, a19TuneCap))
	}
	for i, sc := range all {
		data, err := json.Marshal(sc)
		if err != nil {
			t.Fatalf("scenario %d (%s): %v", i, sc.Kind, err)
		}
		var back rig.Scenario
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("scenario %d (%s): %v\n%s", i, sc.Kind, err, data)
		}
		if !reflect.DeepEqual(sc, back) {
			t.Fatalf("scenario %d changed across a JSON round trip:\n%+v\n%+v\n%s", i, sc, back, data)
		}
		if len(sc.Faults) > 0 && !bytes.Contains(data, []byte(`"Action":"`+sc.Faults[0].Action.String()+`"`)) {
			t.Fatalf("scenario %d: action not marshalled by name:\n%s", i, data)
		}
	}
}
