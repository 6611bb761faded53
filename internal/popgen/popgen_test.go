package popgen

import (
	"strings"
	"testing"
	"time"
)

// TestZipfDeterministic pins the workload generator's determinism
// contract: the same (n, skew, seed) triple yields the identical
// population, rank draws and arrival schedule on every run — including
// under -race, where the make check gate runs it.
func TestZipfDeterministic(t *testing.T) {
	a := NewPopulation(5000, 0.99, 7)
	b := NewPopulation(5000, 0.99, 7)
	for i := range a.Names {
		if a.Names[i] != b.Names[i] {
			t.Fatalf("name %d differs: %q vs %q", i, a.Names[i], b.Names[i])
		}
	}
	sa, sb := a.Sampler(3), b.Sampler(3)
	for i := 0; i < 10000; i++ {
		ra, rb := sa.NextRank(), sb.NextRank()
		if ra != rb {
			t.Fatalf("draw %d differs: %d vs %d", i, ra, rb)
		}
		if ra < 0 || ra >= len(a.Names) {
			t.Fatalf("draw %d out of range: %d", i, ra)
		}
	}
	aa := Arrivals(1000, time.Millisecond, 2*time.Millisecond, 9)
	ab := Arrivals(1000, time.Millisecond, 2*time.Millisecond, 9)
	for i := range aa {
		if aa[i] != ab[i] {
			t.Fatalf("arrival %d differs: %v vs %v", i, aa[i], ab[i])
		}
	}
}

// TestPopulationShape checks the structural invariants every consumer
// relies on: unique legal names, plausible depth spread, prefix
// sharing.
func TestPopulationShape(t *testing.T) {
	p := NewPopulation(20000, 0.99, 1)
	seen := make(map[string]bool, len(p.Names))
	depths := make(map[int]int)
	for _, n := range p.Names {
		if n == "" || strings.ContainsAny(n, "[]/") {
			t.Fatalf("illegal prefix name %q", n)
		}
		if seen[n] {
			t.Fatalf("duplicate name %q", n)
		}
		seen[n] = true
		depths[strings.Count(n, ".")+1]++
	}
	// The depth distribution must cover the configured 1..6 range.
	for d := 1; d <= len(depthWeights); d++ {
		if depths[d] == 0 {
			t.Fatalf("no names at depth %d: %v", d, depths)
		}
	}
}

// TestZipfSkewConcentrates checks the sampler actually follows the
// skew: with s=1.2 the head ranks take far more draws than under
// uniform popularity, and with s=0 draws are roughly uniform.
func TestZipfSkewConcentrates(t *testing.T) {
	const n, draws = 10000, 200000
	headShare := func(skew float64) float64 {
		p := NewPopulation(n, skew, 2)
		s := p.Sampler(1)
		head := 0
		for i := 0; i < draws; i++ {
			if s.NextRank() < n/100 { // top 1% of ranks
				head++
			}
		}
		return float64(head) / draws
	}
	skewed := headShare(1.2)
	uniform := headShare(0)
	if skewed < 0.5 {
		t.Fatalf("skew 1.2: top-1%% share %.3f, want > 0.5", skewed)
	}
	if uniform < 0.005 || uniform > 0.02 {
		t.Fatalf("skew 0: top-1%% share %.3f, want ~0.01", uniform)
	}
}

// TestArrivalsOpenLoop checks schedule invariants: strictly increasing,
// starting after the origin, with the mean gap near the configured one.
func TestArrivalsOpenLoop(t *testing.T) {
	const count = 50000
	mean := 2 * time.Millisecond
	start := 10 * time.Millisecond
	arr := Arrivals(count, start, mean, 4)
	prev := start
	for i, a := range arr {
		if a <= prev {
			t.Fatalf("arrival %d not increasing: %v after %v", i, a, prev)
		}
		prev = a
	}
	got := (arr[count-1] - start) / count
	if got < mean*9/10 || got > mean*11/10 {
		t.Fatalf("mean inter-arrival %v, want ~%v", got, mean)
	}
}

// TestSamplerStreamsIndependent checks distinct client streams draw
// different sequences (so a sharded run is not N copies of one client).
func TestSamplerStreamsIndependent(t *testing.T) {
	p := NewPopulation(1000, 0.99, 5)
	s1, s2 := p.Sampler(1), p.Sampler(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if s1.NextRank() == s2.NextRank() {
			same++
		}
	}
	// Zipf concentrates draws, so collisions happen — but identical
	// streams would collide 1000 times.
	if same > 900 {
		t.Fatalf("streams 1 and 2 nearly identical: %d/1000 collisions", same)
	}
}

// TestSamplerNext checks every drawn rank names a member of the
// population.
func TestSamplerNext(t *testing.T) {
	p := NewPopulation(100, 0.99, 3)
	s := p.Sampler(1)
	for i := 0; i < 100; i++ {
		if r := s.NextRank(); r < 0 || r >= len(p.Names) {
			t.Fatalf("drew rank %d outside a population of %d", r, len(p.Names))
		}
	}
}

// TestPanics pins the constructor contracts.
func TestPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("NewPopulation(0)", func() { NewPopulation(0, 1, 1) })
	mustPanic("Arrivals mean<=0", func() { Arrivals(1, 0, 0, 1) })
}
