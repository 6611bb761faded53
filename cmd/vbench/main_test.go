package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
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

func TestVbenchScorecard(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-score"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "scorecard") || strings.Contains(out, "DEVIATES") {
		t.Fatalf("scorecard output:\n%s", out)
	}
}

// TestVbenchGoldens is the byte-identity safety net inside plain
// `go test`: the full harness output against vbench_output.txt and, from
// the same run, its -json results against BENCH_vbench.json; then,
// driven by the exporter table, each fast deterministic document through
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
			t.Fatalf("regenerated output differs from committed %s; run `make %s` if the change is intended", name, regen)
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
		golden(t, buf.Bytes(), "vbench_output.txt", "bench-json")
		got, err := os.ReadFile(tmp)
		if err != nil {
			t.Fatal(err)
		}
		golden(t, got, "BENCH_vbench.json", "bench-json")
	})
	for _, e := range exports {
		if e.flag == "zipf" {
			continue
		}
		t.Run(e.golden, func(t *testing.T) {
			tmp := filepath.Join(t.TempDir(), e.golden)
			var sb strings.Builder
			if err := run([]string{"-" + e.flag, tmp}, &sb); err != nil {
				t.Fatal(err)
			}
			if want := "wrote " + e.label + " to " + tmp + "\n"; sb.String() != want {
				t.Fatalf("output %q, want %q", sb.String(), want)
			}
			got, err := os.ReadFile(tmp)
			if err != nil {
				t.Fatal(err)
			}
			golden(t, got, e.golden, "bench-"+e.flag)
		})
	}
}
