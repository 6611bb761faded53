package nametree

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/raceflag"
)

// population builds n hierarchical names of the shape the popgen
// workloads use, plus a lookup schedule of hits drawn from them.
func population(n int) (names []string, probes []string) {
	vocab := []string{"storage", "home", "pub", "mail", "shared", "archive", "proj", "user"}
	names = make([]string, n)
	for i := 0; i < n; i++ {
		names[i] = fmt.Sprintf("%s.%s.n%d", vocab[i%len(vocab)], vocab[(i/8)%len(vocab)], i)
	}
	r := rand.New(rand.NewSource(42))
	probes = make([]string, 4096)
	for i := range probes {
		probes[i] = names[r.Intn(n)]
	}
	return names, probes
}

// TestResolve10e5ZeroAlloc is the allocs-per-op gate from the issue: a
// hit-path Get against a 10⁵-name index performs zero heap allocations.
// Skipped under -race (the detector's instrumentation allocates).
func TestResolve10e5ZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("AllocsPerRun counts the race detector's own allocations")
	}
	names, probes := population(100_000)
	tr := New[int]()
	for i, n := range names {
		tr.Insert(n, i)
	}
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

// BenchmarkResolve10e5 measures the radix hit path against a 10⁵-name
// index — the wall-clock side of the A18 virtual-cost comparison.
func BenchmarkResolve10e5(b *testing.B) {
	names, probes := population(100_000)
	tr := New[int]()
	for i, n := range names {
		tr.Insert(n, i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := tr.Get(probes[i%len(probes)]); !ok {
			b.Fatal("miss")
		}
	}
}

// BenchmarkResolveFlatMap10e5 is the wall-clock baseline: the flat
// map[string]V hit path the servers used before the radix index. It
// answers exact-match only — no ordered walk — and
// every snapshot (Bindings, sortedNames) was a full O(n) copy on top.
func BenchmarkResolveFlatMap10e5(b *testing.B) {
	names, probes := population(100_000)
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

// BenchmarkInsert10e5 measures COW insert cost at population scale
// (path copy + root swap per key).
func BenchmarkInsert10e5(b *testing.B) {
	names, _ := population(100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := New[int]()
		for j, n := range names {
			tr.Insert(n, j)
		}
	}
}
