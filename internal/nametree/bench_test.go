package nametree

import (
	"testing"

	"repro/internal/popgen"
	"repro/internal/raceflag"
)

// zipfSample returns a popgen population of n names at the given skew
// and probes names drawn from it by Zipf rank. The benchmarks draw 2²⁰
// probes, far more than fit in cache, so a descent pays for the lines
// the benchmark workload of that size misses rather than walking a few
// thousand hot ones.
func zipfSample(n int, skew float64, probes int) (names, draws []string) {
	pop := popgen.NewPopulation(n, skew, 1)
	s := pop.Sampler(2)
	draws = make([]string, probes)
	for i := range draws {
		draws[i] = pop.Names[s.NextRank()]
	}
	return pop.Names, draws
}

// loaded returns a tree binding names[i] to i.
func loaded(names []string) *Tree[int] {
	tr := New[int]()
	if err := tr.Load(names, func(i int) int { return i }); err != nil {
		panic(err)
	}
	return tr
}

// TestResolve10e5ZeroAlloc is the allocs-per-op gate: a hit-path Get
// against a 10⁵-name index performs zero heap allocations. Skipped
// under -race (the detector's instrumentation allocates).
func TestResolve10e5ZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("AllocsPerRun counts the race detector's own allocations")
	}
	names, probes := zipfSample(100_000, 0.5, 1024)
	tr := loaded(names)
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		q := probes[i%len(probes)]
		if _, ok := tr.Get(q); !ok {
			t.Fatalf("miss on %q", q)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("radix hit path allocates %v allocs/op, want 0", allocs)
	}
}

// BenchmarkResolve10e5 measures the radix hit path on the resolve_miss
// shape — 10⁵ names, skew 0.5 — the wall-clock side of the A18
// virtual-cost comparison.
func BenchmarkResolve10e5(b *testing.B) {
	names, probes := zipfSample(100_000, 0.5, 1<<20)
	tr := loaded(names)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := tr.Get(probes[i%len(probes)]); !ok {
			b.Fatal("miss")
		}
	}
}

// BenchmarkResolveFlatMap10e5 is the wall-clock baseline: the flat
// map[string]V hit path the servers used before the radix index, on the
// same draws. It answers exact-match only — no ordered walk — and every
// snapshot (Bindings, sortedNames) was a full O(n) copy on top.
func BenchmarkResolveFlatMap10e5(b *testing.B) {
	names, probes := zipfSample(100_000, 0.5, 1<<20)
	m := make(map[string]int, len(names))
	for i, n := range names {
		m[n] = i
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := m[probes[i%len(probes)]]; !ok {
			b.Fatal("miss")
		}
	}
}

// BenchmarkRedefine3e5 prices what define_churn pays the index for a
// redefinition on its shape — 3×10⁵ names, skew 0.99: the Get that finds
// the binding, the Delete and the Insert that replace it, path copies,
// publications and compactions included.
func BenchmarkRedefine3e5(b *testing.B) {
	names, probes := zipfSample(300_000, 0.99, 1<<20)
	tr := loaded(names)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		name := probes[i%len(probes)]
		v, ok := tr.Get(name)
		if !ok || !tr.Delete(name) || tr.Insert(name, v) {
			b.Fatal("redefinition missed")
		}
	}
}

// BenchmarkLoad3e5 prices the index's share of define_churn's set-up:
// one Load of its 3×10⁵ names.
func BenchmarkLoad3e5(b *testing.B) {
	names, _ := zipfSample(300_000, 0.99, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loaded(names)
	}
}

// BenchmarkInsert10e5 measures COW insert cost at population scale
// (path copy and publication per key).
func BenchmarkInsert10e5(b *testing.B) {
	names := popgen.NewPopulation(100_000, 0.5, 1).Names
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := New[int]()
		for j, n := range names {
			tr.Insert(n, j)
		}
	}
}
