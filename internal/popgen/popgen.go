// Package popgen generates deterministic population-scale name
// workloads (PROTOCOL.md §14): Zipf(s, N)-distributed popularity over
// 10³–10⁶ context-prefix names with a realistic prefix-depth
// distribution, and open-loop arrival schedules in virtual time.
//
// The paper's evaluation drove a handful of workstation clients in a
// closed loop against a 2.6 KB prefix table (§6); ROADMAP items 2–3 ask
// what resolution looks like when the table holds a user population —
// where popularity is heavy-tailed (a few names take most of the
// traffic, the tail is enormous) and load is *offered*, not throttled
// by the clients' own completions. Everything here is deterministic
// from explicit seeds and pure integer/IEEE-exact arithmetic, so two
// builds of the same workload — sequential and sharded-engine, today's
// run and the golden — draw byte-identical populations and schedules.
package popgen

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Rand is a tiny deterministic PRNG (splitmix64): self-contained so the
// workload's draw sequence can never shift under a Go release's
// math/rand changes, and cheap enough to give every client its own
// stream (draws are independent of lane interleaving).
type Rand struct{ state uint64 }

// NewRand returns a PRNG stream for the given seed.
func NewRand(seed uint64) *Rand { return &Rand{state: seed} }

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform int in [0, n).
func (r *Rand) Intn(n int) int {
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1) with 53 random bits. The
// conversion and the comparisons it feeds are exact IEEE operations, so
// draws are platform-independent.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// segments is the vocabulary populations draw path segments from:
// shared segments are what give the population real prefix structure
// (and the radix index something to compress).
var segments = [...]string{
	"storage", "home", "pub", "mail", "shared", "archive",
	"proj", "user", "src", "doc", "media", "scratch",
	"eng", "ops", "lab", "www",
}

// depthWeights is the prefix-depth distribution: most names sit 2–4
// segments deep, a few are flat, a thin tail goes to 6 — the directory
// depths file-system traces report rather than a uniform draw.
var depthWeights = [...]int{10, 25, 30, 20, 10, 5} // depth 1..6, percent

// Population is a deterministic Zipf-ranked name population:
// Names[0] is the most popular name, and rank k is drawn with
// probability proportional to 1/(k+1)^Skew.
type Population struct {
	Names []string
	Skew  float64
	// cum[k] is the cumulative unnormalized Zipf weight through rank k;
	// sampling is one uniform draw and a binary search.
	cum []float64
}

// NewPopulation generates n names with the given Zipf skew. seed
// selects the name-shape stream; the same (n, skew, seed) triple always
// yields the identical population. Skew 0 is uniform popularity; skew
// may be below 1 (unlike math/rand's Zipf). Names contain only
// [a-z0-9.] — always legal prefix names.
func NewPopulation(n int, skew float64, seed uint64) *Population {
	if n <= 0 {
		panic(fmt.Sprintf("popgen: population size %d", n))
	}
	r := NewRand(seed)
	// Every name is a slice of one backing string: a population is
	// generated, bound and dropped together, and the index's leaf labels
	// point into its keys, so a string apiece is 3×10⁵ live objects for
	// nothing.
	var b []byte
	ends := make([]int, n)
	for i := range ends {
		depth := pickDepth(r)
		// Shared vocabulary segments plus a unique final segment: names
		// collide on prefixes (radix compression is real) but never on
		// the full key.
		for d := 0; d < depth-1; d++ {
			b = append(b, segments[r.Intn(len(segments))]...)
			b = append(b, '.')
		}
		b = append(b, 'n')
		b = appendInt(b, i)
		ends[i] = len(b)
	}
	all, start := string(b), 0
	names := make([]string, n)
	for i, end := range ends {
		names[i], start = all[start:end], end
	}
	cum := make([]float64, n)
	total := 0.0
	for k := 0; k < n; k++ {
		total += math.Pow(float64(k+1), -skew)
		cum[k] = total
	}
	return &Population{Names: names, Skew: skew, cum: cum}
}

// pickDepth draws a prefix depth from depthWeights.
func pickDepth(r *Rand) int {
	roll := r.Intn(100)
	acc := 0
	for d, w := range depthWeights {
		acc += w
		if roll < acc {
			return d + 1
		}
	}
	return len(depthWeights)
}

// appendInt appends the decimal digits of i (i >= 0) without fmt.
func appendInt(b []byte, i int) []byte {
	if i == 0 {
		return append(b, '0')
	}
	var tmp [20]byte
	pos := len(tmp)
	for i > 0 {
		pos--
		tmp[pos] = byte('0' + i%10)
		i /= 10
	}
	return append(b, tmp[pos:]...)
}

// Sampler draws ranks from the population's Zipf distribution on its
// own PRNG stream. Distinct streams (per client) make the draw sequence
// independent of how clients interleave.
type Sampler struct {
	pop *Population
	r   *Rand
}

// Sampler returns a sampler on stream `stream` of this population.
func (p *Population) Sampler(stream uint64) *Sampler {
	// Offset the stream so stream 0 does not collide with the
	// name-shape stream of NewPopulation(seed 0).
	return &Sampler{pop: p, r: NewRand(stream*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d)}
}

// NextRank draws the next rank: u uniform in [0, total), binary search
// over the cumulative weights.
func (s *Sampler) NextRank() int {
	u := s.r.Float64() * s.pop.cum[len(s.pop.cum)-1]
	return sort.SearchFloat64s(s.pop.cum, u)
}

// Arrivals builds an open-loop arrival schedule: count absolute virtual
// arrival times starting at start, with mean inter-arrival gap `mean`.
// Gaps are uniformly jittered around the mean (gap = mean/2 + U[0,
// mean)) in pure integer arithmetic — deterministic across platforms,
// which an exponential draw through math.Log would not guarantee — and
// the schedule is strictly non-decreasing, as WorkloadClient.Arrive
// requires.
func Arrivals(count int, start, mean time.Duration, stream uint64) []time.Duration {
	if mean <= 0 {
		panic("popgen: non-positive mean inter-arrival")
	}
	r := NewRand(stream*0x6c62272e07bb0142 + 0x100000001b3)
	out := make([]time.Duration, count)
	t := start
	for i := range out {
		t += mean/2 + time.Duration(r.Uint64()%uint64(mean))
		out[i] = t
	}
	return out
}
