package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
)

func TestVbenchList(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-list"}, &sb); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"e1", "e2", "e3", "e5", "t1", "a1", "a2", "a3", "a4", "a5", "a6", "a7", "a8", "a9", "a10"} {
		if !strings.Contains(sb.String(), id) {
			t.Errorf("missing experiment id %q", id)
		}
	}
}

func TestVbenchChaosAlias(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"chaos"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"A10", "chaos sweep", "dynamic binding, invalidate-and-retry"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestVbenchSingleExperiment(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"e1"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"E1", "2.56 ms", "paper", "measured"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestVbenchUnknownExperiment(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"zz"}, &sb); err == nil {
		t.Fatal("unknown experiment must fail")
	}
}

// TestVbenchScorecard pins the scorecard: ten claims, each graded from
// its experiment's rows, every one reproduced — virtual time makes the
// measured column exact.
func TestVbenchScorecard(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-score"}, &sb); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		"reproduction scorecard",
		"  32-byte remote message transaction                  paper 2.56 ms                     measured 2.56 ms                                                 REPRODUCED",
		"  64 KB program load via MoveTo                       paper 338 ms                      measured 345.15 ms                                               REPRODUCED",
		"  sequential read near the 15 ms/page disk rate       paper 17.13 ms/page               measured 15.06-20.29 ms/page envelope                            REPRODUCED",
		"  Open ordering: current<prefix, local<remote         paper 1.21 < 3.70 < 5.14* < 7.69  measured 1.05 / 2.92 / 4.99 / 6.88                               REPRODUCED",
		"  prefix overhead identical in both columns           paper 3.94 ≈ 3.99 ms              measured 3.94 ≈ 3.95 ms                                          REPRODUCED",
		"  centralized name server costs an extra interaction  paper argued in §2.2              measured 2.49x the distributed cost                              REPRODUCED",
		"  crash-consistency: names die with objects           paper 0 dangling (§2.2)           measured 0 dangling names (V) vs 7 dangling names (centralized)  REPRODUCED",
		"  no central naming failure point                     paper all reachable (§2.2)        measured 10/10 (V) vs 0/10 (centralized)                         REPRODUCED",
		"  dynamic service bindings rebind after crash         paper GetPid per use (§6)         measured recovers                                                REPRODUCED",
		"  server team overlaps name interpretation            paper team of processes (§3.1)    measured team=4 serves 3.9x team=1 throughput                    REPRODUCED",
	}, "\n") + "\n"
	if got := sb.String(); got != want {
		t.Fatalf("scorecard output:\n%s\nwant:\n%s", got, want)
	}
}

// TestVbenchGoldens is the byte-identity safety net inside plain
// `go test`: the full harness output against vbench_output.txt and, from
// the same run, its -json results against BENCH_vbench.json; the -trace
// export against the golden canonical trace; then, driven by the
// registry's exports, each fast deterministic document through
// the CLI path against its committed copy. BENCH_zipf.json (≈20 s to
// regenerate; its legs also print in a18's section of the full output)
// is left to `make golden-guard`.
func TestVbenchGoldens(t *testing.T) {
	golden := func(t *testing.T, got []byte, name, regen string) {
		t.Helper()
		want, err := os.ReadFile(filepath.Join("..", "..", name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("regenerated output differs from committed %s; run `%s` if the change is intended", name, regen)
		}
	}
	t.Run("vbench_output.txt", func(t *testing.T) {
		if testing.Short() {
			t.Skip("full experiment sweep in -short mode")
		}
		tmp := filepath.Join(t.TempDir(), "BENCH_vbench.json")
		var buf bytes.Buffer
		if err := run([]string{"-json", tmp}, &buf); err != nil {
			t.Fatal(err)
		}
		golden(t, buf.Bytes(), "vbench_output.txt", "make bench-json")
		got, err := os.ReadFile(tmp)
		if err != nil {
			t.Fatal(err)
		}
		golden(t, got, "BENCH_vbench.json", "make bench-json")
	})
	t.Run("-trace", func(t *testing.T) {
		tmp := filepath.Join(t.TempDir(), "trace.json")
		var sb strings.Builder
		if err := run([]string{"-trace", tmp}, &sb); err != nil {
			t.Fatal(err)
		}
		if want := "wrote canonical trace to " + tmp + "\n"; sb.String() != want {
			t.Fatalf("output %q, want %q", sb.String(), want)
		}
		got, err := os.ReadFile(tmp)
		if err != nil {
			t.Fatal(err)
		}
		golden(t, got, filepath.Join("internal", "experiments", "testdata", "golden_trace.json"), "UPDATE_GOLDEN=1 go test ./internal/experiments -run TestCanonicalTraceGolden")
	})
	for _, e := range experiments.Exports() {
		if e.Flag == "zipf" {
			continue
		}
		name := "BENCH_" + e.Flag + ".json"
		t.Run(name, func(t *testing.T) {
			tmp := filepath.Join(t.TempDir(), name)
			var sb strings.Builder
			if err := run([]string{"-" + e.Flag, tmp}, &sb); err != nil {
				t.Fatal(err)
			}
			if want := "wrote " + e.Flag + " document to " + tmp + "\n"; sb.String() != want {
				t.Fatalf("output %q, want %q", sb.String(), want)
			}
			got, err := os.ReadFile(tmp)
			if err != nil {
				t.Fatal(err)
			}
			golden(t, got, name, "make bench-"+e.Flag)
		})
	}
}
