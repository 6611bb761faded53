package namestat

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/popgen"
	"repro/internal/raceflag"
)

func TestNilSketchesAreNoOps(t *testing.T) {
	var tk *TopK
	tk.Observe("x")
	tk.ObserveResolution("x", time.Millisecond)
	tk.ObserveRedefinition("x", time.Millisecond)
	tk.ObserveRenewal("x", time.Millisecond)
	tk.ObserveInvalidation("x", 3)
	if tk.Snapshot() != nil || tk.Rates() != nil || tk.RedefRateHz("x") != 0 {
		t.Fatalf("nil TopK reported state")
	}
	Publish(nil, "none", tk) // must not panic
}

func TestTopKExact(t *testing.T) {
	tk := NewTopK(8)
	for i := 0; i < 5; i++ {
		tk.Observe("a")
	}
	for i := 0; i < 3; i++ {
		tk.Observe("b")
	}
	tk.Observe("c")
	items := tk.Snapshot()
	if len(items) != 3 {
		t.Fatalf("Len = %d, want 3", len(items))
	}
	want := []Item{{Name: "a", Count: 5}, {Name: "b", Count: 3}, {Name: "c", Count: 1}}
	for i, w := range want {
		if items[i] != w {
			t.Fatalf("item %d = %+v, want %+v", i, items[i], w)
		}
	}

}

func TestTopKReplacementBound(t *testing.T) {
	tk := NewTopK(2)
	tk.Observe("a")
	tk.Observe("a")
	tk.Observe("b")
	tk.Observe("c") // replaces b (the min): count 2, err 1
	items := tk.Snapshot()
	if len(items) != 2 {
		t.Fatalf("sketch exceeded k: %+v", items)
	}
	var c Item
	for _, it := range items {
		if it.Name == "c" {
			c = it
		}
	}
	if c.Count != 2 || c.Err != 1 {
		t.Fatalf("replacement entry = %+v, want count 2 err 1", c)
	}
	// The space-saving guarantee: Count never undercounts.
	if c.Count-c.Err != 1 {
		t.Fatalf("lower bound = %d, want 1 true occurrence", c.Count-c.Err)
	}
}

// TestTopKRecallOnZipf is the property test against exact counts: on
// popgen-seeded Zipf draws, a k-sized sketch must (a) contain every
// name with true count > N/k — the space-saving guarantee — and (b)
// never report a count outside [true, true+err].
func TestTopKRecallOnZipf(t *testing.T) {
	const (
		population = 5000
		draws      = 50_000
		k          = 48
	)
	pop := popgen.NewPopulation(population, 0.99, 1)
	s := pop.Sampler(7)
	tk := NewTopK(k)
	exact := make(map[string]uint64)
	for i := 0; i < draws; i++ {
		name := pop.Names[s.NextRank()]
		exact[name]++
		tk.Observe(name)
	}
	items := tk.Snapshot()
	inSketch := make(map[string]Item, len(items))
	for _, it := range items {
		inSketch[it.Name] = it
	}
	guarantee := uint64(draws / k)
	for name, n := range exact {
		if n <= guarantee {
			continue
		}
		it, ok := inSketch[name]
		if !ok {
			t.Fatalf("name %q with true count %d > %d missing from sketch", name, n, guarantee)
		}
		if it.Count < n || it.Count > n+it.Err {
			t.Fatalf("name %q count %d (err %d) outside [%d, %d]", name, it.Count, it.Err, n, n+it.Err)
		}
	}
	for _, it := range items {
		if true_ := exact[it.Name]; it.Count < true_ || it.Count > true_+it.Err {
			t.Fatalf("sketch entry %+v violates bound (true %d)", it, true_)
		}
	}
	// Space-saving keeps the counts summing to the observations: a
	// replacement takes over the evicted count plus one.
	var sum uint64
	for _, it := range tk.Snapshot() {
		sum += it.Count
	}
	if sum != draws {
		t.Fatalf("counts sum to %d, want %d", sum, draws)
	}
}

func TestRatesEWMAConvergence(t *testing.T) {
	r := NewTopK(8)
	// A churn event never admits a name: the sketch ranks by resolution.
	r.ObserveRedefinition("hot", 0)
	if items := r.Rates(); len(items) != 0 {
		t.Fatalf("a redefinition admitted a name: %+v", items)
	}
	r.ObserveResolution("hot", 0)
	// A steady 10 ms cadence must converge on 100 Hz exactly (every
	// instantaneous estimate equals the true rate).
	for i := 0; i <= 20; i++ {
		r.ObserveRedefinition("hot", time.Duration(i)*10*time.Millisecond)
	}
	if got := r.RedefRateHz("hot"); got < 99.9 || got > 100.1 {
		t.Fatalf("steady 100Hz estimated %.2f", got)
	}
	if items := r.Rates(); len(items) != 1 || items[0].Redefinitions != 21 || items[0].Resolutions != 1 {
		t.Fatalf("rates = %+v, want 21 redefinitions of one resolved name", items)
	}
	// A single event has no rate yet.
	r.ObserveResolution("cold", time.Second)
	r.ObserveRedefinition("cold", time.Second)
	if got := r.RedefRateHz("cold"); got != 0 {
		t.Fatalf("single event rate = %.2f, want 0", got)
	}
	// Rates hold (no decay) after events stop — the conservative
	// reading the tuner depends on.
	if got := r.RedefRateHz("hot"); got < 99.9 {
		t.Fatalf("rate decayed to %.2f with no new events", got)
	}
}

// TestRatesSnapshotAndBound: the estimators ride the sketch's entries,
// so the sketch's k bounds them, churn events for names it does not hold
// are dropped, and a replaced entry starts its estimators afresh.
func TestRatesSnapshotAndBound(t *testing.T) {
	r := NewTopK(2)
	at := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
	r.ObserveResolution("b", at(0))
	r.ObserveResolution("b", at(100))
	r.ObserveRenewal("b", at(0))
	r.ObserveRenewal("b", at(50))
	r.ObserveResolution("a", at(5))
	r.ObserveInvalidation("a", 4)
	r.ObserveInvalidation("a", 4)
	r.ObserveInvalidation("untracked", 9) // not held: dropped
	r.ObserveRenewal("untracked", at(60))
	items := r.Rates()
	if len(items) != 2 || items[0].Name != "a" || items[1].Name != "b" {
		t.Fatalf("snapshot order wrong: %+v", items)
	}
	a, b := items[0], items[1]
	if a.Resolutions != 1 || a.Invalidations != 2 || a.FanoutMilli != 4000 || a.MaxStaleUS != 0 {
		t.Fatalf("a = %+v", a)
	}
	if b.Resolutions != 2 || b.ResRateMilliHz != 10_000 || b.RenewRateMilliHz != 20_000 {
		t.Fatalf("b = %+v", b)
	}
	// A third name replaces the minimum, a, and none of a's churn.
	r.ObserveResolution("c", at(200))
	items = r.Rates()
	if len(items) != 2 || items[0].Name != "b" || items[1].Name != "c" {
		t.Fatalf("after replacement: %+v", items)
	}
	if c := items[1]; c != (RateItem{Name: "c", Resolutions: 1}) {
		t.Fatalf("replacement inherited churn state: %+v", c)
	}
}

func TestPublishVolatile(t *testing.T) {
	reg := metrics.New()
	tk := NewTopK(4)
	tk.Observe("[home]")
	tk.Observe("[home]")
	tk.ObserveRedefinition("[home]", 0)
	tk.ObserveRedefinition("[home]", 100*time.Millisecond)
	Publish(reg, "pfx", tk)
	snap := reg.Snapshot()
	var found, volatile int
	for _, g := range snap.Gauges {
		if g.Labels.Class == "namestat" {
			found++
			if g.Volatile {
				volatile++
			}
		}
	}
	if found == 0 {
		t.Fatalf("Publish registered no namestat gauges")
	}
	if volatile != found {
		t.Fatalf("%d of %d namestat gauges not volatile", found-volatile, found)
	}
	// Volatility keeps published analytics out of deterministic
	// documents — the goldens' byte-identity depends on this.
	for _, g := range snap.Deterministic().Gauges {
		if g.Labels.Class == "namestat" {
			t.Fatalf("namestat gauge %q leaked into deterministic snapshot", g.Name)
		}
	}
	// One count and four estimators for the one name the sketch holds.
	if found != 5 {
		t.Fatalf("Publish registered %d namestat gauges, want 5", found)
	}
	var top, redef int64
	for _, g := range snap.Gauges {
		switch {
		case g.Labels.Op != "[home]":
		case g.Name == "namestat_top_count":
			top = g.Value
		case g.Name == "namestat_redef_rate_mhz":
			redef = g.Value
		}
	}
	if top != 2 || redef != 10_000 {
		t.Fatalf("published top count = %d, redef rate = %d mHz; want 2 and 10000", top, redef)
	}
}

// TestConstructorClamps pins the defensive default: a non-positive k
// still yields a working one-slot sketch, whose one entry's estimators
// follow the name it holds.
func TestConstructorClamps(t *testing.T) {
	tk := NewTopK(0)
	tk.ObserveResolution("a", 0)
	tk.ObserveRedefinition("a", 0)
	tk.ObserveRedefinition("a", time.Millisecond)
	tk.Observe("a")
	tk.Observe("b") // evicts into the single slot
	items := tk.Snapshot()
	if len(items) != 1 {
		t.Fatalf("k=0 sketch holds %d items, want 1", len(items))
	}
	if rates := tk.Rates(); len(rates) != 1 || rates[0] != (RateItem{Name: "b"}) || tk.RedefRateHz("a") != 0 {
		t.Fatalf("k=0 sketch's estimators = %+v, want b's, empty", rates)
	}
}

// refTopK is the sketch's first implementation — a map scanned in full
// for the (count, name) minimum on every replacement, each entry holding
// its name's estimators — kept as the reference the sketch must match
// step for step.
type refTopK struct {
	k    int
	ents map[string]*refEntry
}

type refEntry struct {
	count, err uint64
	churn
}

func newRefTopK(k int) *refTopK { return &refTopK{k: k, ents: map[string]*refEntry{}} }

func (r *refTopK) observe(name string) *refEntry {
	if e, ok := r.ents[name]; ok {
		e.count++
		return e
	}
	if len(r.ents) < r.k {
		e := &refEntry{count: 1}
		r.ents[name] = e
		return e
	}
	var victim string
	var min *refEntry
	for n, e := range r.ents {
		if min == nil || e.count < min.count || (e.count == min.count && n < victim) {
			victim, min = n, e
		}
	}
	delete(r.ents, victim)
	e := &refEntry{count: min.count + 1, err: min.count}
	r.ents[name] = e
	return e
}

func (r *refTopK) snapshot() []Item {
	items := make([]Item, 0, len(r.ents))
	for n, e := range r.ents {
		items = append(items, Item{Name: n, Count: e.count, Err: e.err})
	}
	sort.Slice(items, func(i, j int) bool {
		if items[i].Count != items[j].Count {
			return items[i].Count > items[j].Count
		}
		return items[i].Name < items[j].Name
	})
	return items
}

func (r *refTopK) rates() []RateItem {
	items := make([]RateItem, 0, len(r.ents))
	for n, e := range r.ents {
		items = append(items, RateItem{Name: n, Resolutions: e.res.count, Redefinitions: e.redef.count,
			ResRateMilliHz: milli(e.res.rateHz), RedefRateMilliHz: milli(e.redef.rateHz)})
	}
	sort.Slice(items, func(i, j int) bool { return items[i].Name < items[j].Name })
	return items
}

func (r *refTopK) redefRateHz(name string) float64 {
	if e, ok := r.ents[name]; ok {
		return e.redef.rateHz
	}
	return 0
}

// tieNames are names whose order the sketch's integer keys cannot
// decide alone: popgen-shaped names sharing their first eight bytes,
// names that are prefixes of one another, names holding NUL bytes (whose
// zero bytes the keys' padding also uses), and the empty name.
func tieNames() []string {
	var names []string
	for l := 0; l <= 12; l++ {
		names = append(names, "abcdefghijkl"[:l], "abcdefghijkl"[:l]+"\x00", strings.Repeat("\x00", l))
	}
	for i := 0; i < 40; i++ {
		names = append(names, fmt.Sprintf("eng.ops.n%d", i), fmt.Sprintf("eng.ops.n%d\x00", i))
	}
	return names
}

func TestTopKMatchesReference(t *testing.T) {
	nested := tieNames()
	streams := map[string]func(r *popgen.Rand) string{
		// Zipf-ish: a hot head the sketch keeps, a long tail churning the minimum.
		"random": func(r *popgen.Rand) string {
			if r.Intn(3) == 0 {
				return fmt.Sprintf("hot%d", r.Intn(6))
			}
			return fmt.Sprintf("n%d", r.Intn(400))
		},
		// Tie-heavy: near-uniform draws keep every count within one of the
		// minimum, so the name tie-break decides almost every victim.
		"ties": func(r *popgen.Rand) string { return fmt.Sprintf("t%02d", r.Intn(24)) },
		// The same, on popgen-shaped names whose first eight bytes are
		// equal: every tie falls through to the full names.
		"prefix8": func(r *popgen.Rand) string {
			if r.Intn(4) == 0 {
				return fmt.Sprintf("eng.ops.hot%d", r.Intn(4))
			}
			return fmt.Sprintf("eng.ops.n%d", r.Intn(90))
		},
		"nested": func(r *popgen.Rand) string { return nested[r.Intn(len(nested))] },
	}
	for label, draw := range streams {
		for _, k := range []int{1, 2, 7, 16, 32, 48} {
			rng := popgen.NewRand(uint64(k) + 17)
			tk, ref := NewTopK(k), newRefTopK(k)
			// twin counts through ObserveResolution: the same sketch, and
			// each entry's resolutions are the ones since its admission.
			twin := NewTopK(k)
			for step := 0; step < 3000; step++ {
				name := draw(rng)
				tk.Observe(name)
				twin.ObserveResolution(name, time.Duration(step))
				ref.observe(name)
				got, want := tk.Snapshot(), ref.snapshot()
				if !reflect.DeepEqual(twin.Snapshot(), got) {
					t.Fatalf("%s k=%d step %d: ObserveResolution's sketch %+v, Observe's %+v", label, k, step, twin.Snapshot(), got)
				}
				since := make(map[string]uint64, len(got))
				for _, it := range got {
					since[it.Name] = it.Count - it.Err
				}
				for _, r := range twin.Rates() {
					if r.Resolutions != since[r.Name] {
						t.Fatalf("%s k=%d step %d: %s has %d resolutions, %d since admission", label, k, step, r.Name, r.Resolutions, since[r.Name])
					}
				}
				if len(got) != len(want) {
					t.Fatalf("%s k=%d step %d: %d items, reference has %d", label, k, step, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s k=%d step %d item %d: %+v, reference %+v", label, k, step, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// FuzzTopKMatchesReference runs fuzz-chosen observations over a small
// alphabet of names that tie in their first eight bytes, prefix one
// another or hold NUL bytes, through the sketch and the reference; after
// every step Snapshot, Rates and RedefRateHz must agree. The first byte
// picks k (1 to 8), each later byte an operation — Observe,
// ObserveResolution or ObserveRedefinition — and its name; the clock
// advances a millisecond every other step, so some gaps are zero.
func FuzzTopKMatchesReference(f *testing.F) {
	alphabet := []string{"", "\x00", "a", "a\x00", "ab", "eng.ops", "eng.ops.", "eng.ops.\x00",
		"eng.ops.n1", "eng.ops.n10", "eng.ops.n1\x00", "eng.ops.n2"}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		k := 1 + int(ops[0]%8)
		tk, ref := NewTopK(k), newRefTopK(k)
		for step, b := range ops[1:] {
			name, at := alphabet[int(b/3)%len(alphabet)], time.Duration(step/2)*time.Millisecond
			switch b % 3 {
			case 0:
				tk.Observe(name)
				ref.observe(name)
			case 1:
				tk.ObserveResolution(name, at)
				ref.observe(name).res.observe(at)
			case 2:
				tk.ObserveRedefinition(name, at)
				if e, ok := ref.ents[name]; ok {
					e.redef.observe(at)
				}
			}
			if got, want := tk.Snapshot(), ref.snapshot(); !reflect.DeepEqual(got, want) {
				t.Fatalf("k=%d step %d: Snapshot %+v, reference %+v", k, step, got, want)
			}
			if got, want := tk.Rates(), ref.rates(); !reflect.DeepEqual(got, want) {
				t.Fatalf("k=%d step %d: Rates %+v, reference %+v", k, step, got, want)
			}
			for _, n := range alphabet {
				if got, want := tk.RedefRateHz(n), ref.redefRateHz(n); got != want {
					t.Fatalf("k=%d step %d: RedefRateHz(%q) = %v, reference %v", k, step, n, got, want)
				}
			}
		}
	})
}

func TestObserveZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("AllocsPerRun counts the race detector's own allocations")
	}
	tk := NewTopK(32)
	names := make([]string, 4096)
	for i := range names {
		names[i] = fmt.Sprintf("[home]user%04d/notes", i)
	}
	// Every draw past the first 32 misses the sketch and replaces its
	// minimum: the path that used to allocate an entry per call.
	i := 0
	observe := func() {
		tk.Observe(names[i%len(names)])
		i++
	}
	for range names {
		observe()
	}
	if allocs := testing.AllocsPerRun(20000, observe); allocs != 0 {
		t.Fatalf("Observe allocates %.2f per op, want 0", allocs)
	}
	// The prefix server's call: the count and the resolution rate, on
	// the same replacing path.
	resolve := func() {
		tk.ObserveResolution(names[i%len(names)], time.Duration(i))
		i++
	}
	if allocs := testing.AllocsPerRun(20000, resolve); allocs != 0 {
		t.Fatalf("ObserveResolution allocates %.2f per op, want 0", allocs)
	}
}
