package flight

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/popgen"
	"repro/internal/raceflag"
)

func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	r.Record(time.Millisecond, KindResolution, "[home]", "ws", "")
	if r.Seal(time.Millisecond) != 0 {
		t.Fatalf("nil Seal sealed events")
	}
	if r.Dropped() != 0 || r.Journal() != nil {
		t.Fatalf("nil recorder reported state")
	}
}

func TestRecordAndJournalOrder(t *testing.T) {
	r := New(8)
	// Record out of canonical order.
	r.Record(3*time.Millisecond, KindForward, "[storage]", "fs1", "")
	r.Record(time.Millisecond, KindResolution, "[home]", "ws", "")
	r.Record(time.Millisecond, KindLeaseGrant, "[home]", "pfx", "negative")
	j := r.Journal()
	if len(j) != 3 {
		t.Fatalf("journal len = %d, want 3", len(j))
	}
	// Canonical order: 1ms resolution, 1ms lease-grant, 3ms forward.
	if j[0].Kind != KindResolution || j[1].Kind != KindLeaseGrant || j[2].Kind != KindForward {
		t.Fatalf("journal out of canonical order: %+v", j)
	}
}

func TestRingWrapDrops(t *testing.T) {
	r := New(4)
	for i := 0; i < 10; i++ {
		r.Record(time.Duration(i)*time.Millisecond, KindResolution, "n", "p", "")
	}
	if got := r.Dropped(); got != 6 {
		t.Fatalf("Dropped = %d, want 6", got)
	}
	j := r.Journal()
	if len(j) != 4 {
		t.Fatalf("journal retains %d, want ring capacity 4", len(j))
	}
	// Survivors are the newest four.
	if j[0].At != 6*time.Millisecond || j[3].At != 9*time.Millisecond {
		t.Fatalf("wrong survivors after wrap: %+v", j)
	}
}

func TestSealDeterministicAcrossInterleavings(t *testing.T) {
	events := []Event{
		{At: 2 * time.Millisecond, Kind: KindRedefine, Name: "[home]", Proc: "pfx"},
		{At: time.Millisecond, Kind: KindResolution, Name: "[bin]", Proc: "ws1"},
		{At: time.Millisecond, Kind: KindResolution, Name: "[bin]", Proc: "ws0"},
		{At: 2 * time.Millisecond, Kind: KindInvalidate, Name: "[home]", Proc: "ws0"},
	}
	perms := [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}, {2, 0, 3, 1}}
	var want []Event
	for i, p := range perms {
		r := New(16)
		for _, idx := range p {
			e := events[idx]
			r.Record(e.At, e.Kind, e.Name, e.Proc, e.Detail)
		}
		if sealed := r.Seal(5 * time.Millisecond); sealed != len(events) {
			t.Fatalf("Seal sealed %d, want %d", sealed, len(events))
		}
		j := r.Journal()
		if i == 0 {
			want = j
			continue
		}
		if !reflect.DeepEqual(j, want) {
			t.Fatalf("perm %v journal diverged:\n got %+v\nwant %+v", p, j, want)
		}
	}
	// The fence marker itself lands in the journal.
	last := want[len(want)-1]
	if last.Kind != KindFence || last.At != 5*time.Millisecond {
		t.Fatalf("missing fence marker, got %+v", last)
	}
}

func TestSealedJournalBounded(t *testing.T) {
	r := New(4) // sealCap = 16
	for fence := 0; fence < 20; fence++ {
		for i := 0; i < 4; i++ {
			r.Record(time.Duration(fence)*time.Millisecond, KindResolution, "n", "p", "")
		}
		r.Seal(time.Duration(fence) * time.Millisecond)
	}
	if got := len(r.Journal()); got > 16 {
		t.Fatalf("sealed journal grew to %d, cap 16", got)
	}
	if r.Dropped() == 0 {
		t.Fatalf("expected sealed-journal evictions counted as drops")
	}
}

func TestCountsAndWriteText(t *testing.T) {
	events := []Event{
		{At: time.Millisecond, Kind: KindResolution, Name: "[home]", Proc: "ws"},
		{At: 2 * time.Millisecond, Kind: KindResolution, Name: "[bin]", Proc: "ws"},
		{At: 3 * time.Millisecond, Kind: KindRedefine, Name: "[home]", Proc: "pfx", Detail: "rebind"},
	}
	c := Counts(events)
	if c[KindResolution] != 2 || c[KindRedefine] != 1 {
		t.Fatalf("Counts = %v", c)
	}
	var buf bytes.Buffer
	WriteText(&buf, events)
	out := buf.String()
	for _, want := range []string{"resolution", "redefine", "[home]", "(pfx)", "[rebind]"} {
		if !strings.Contains(out, want) {
			t.Fatalf("WriteText output missing %q:\n%s", want, out)
		}
	}
}

func TestKindString(t *testing.T) {
	if KindLeaseRenew.String() != "lease-renew" || KindFence.String() != "fence" {
		t.Fatalf("Kind.String wrong: %s %s", KindLeaseRenew, KindFence)
	}
	if got := Kind(99).String(); got != "kind(99)" {
		t.Fatalf("unknown kind string = %q", got)
	}
}

func TestRecordZeroAlloc(t *testing.T) {
	r := New(1 << 10)
	name, proc := "[home]mann/notes", "ws-mann"
	allocs := testing.AllocsPerRun(200, func() {
		r.Record(time.Millisecond, KindResolution, name, proc, "")
	})
	if allocs != 0 {
		t.Fatalf("Record allocates %.1f per op, want 0", allocs)
	}
}

// TestDefaultsAndLen covers the constructor clamp and the journal's
// length: a non-positive capacity falls back to DefaultCapacity, and the
// journal holds ring plus sealed events.
func TestDefaultsAndLen(t *testing.T) {
	r := New(0)
	if len(r.buf) != DefaultCapacity || r.sealCap != 4*DefaultCapacity {
		t.Fatalf("New(0) ring %d, sealed bound %d", len(r.buf), r.sealCap)
	}
	r.Record(1, KindResolution, "[a]x", "p", "")
	r.Record(2, KindRedefine, "[a]x", "p", "")
	if n := len(r.Journal()); n != 2 {
		t.Fatalf("journal holds %d, want 2", n)
	}
	r.Seal(3)
	if n := len(r.Journal()); n != 3 { // the cut itself journals a fence event
		t.Fatalf("journal after seal holds %d, want 3", n)
	}
}

// refRecorder is the recorder's previous journal — the drained batch
// appended to one slice and the whole slice shifted down on eviction —
// kept as the model the sealed ring must equal.
type refRecorder struct {
	ring    []Event // live events, oldest first, at most ringCap
	ringCap int
	sealed  []Event
	dropped uint64
}

func (m *refRecorder) record(e Event) {
	if len(m.ring) == m.ringCap {
		m.ring = m.ring[1:]
		m.dropped++
	}
	m.ring = append(m.ring, e)
}

func (m *refRecorder) sorted() []Event {
	batch := append([]Event(nil), m.ring...)
	sort.SliceStable(batch, func(i, j int) bool { return compare(batch[i], batch[j]) < 0 })
	return batch
}

func (m *refRecorder) seal(at time.Duration) {
	m.sealed = append(append(m.sealed, m.sorted()...), Event{At: at, Kind: KindFence, Proc: "engine"})
	m.ring = m.ring[:0]
	if over := len(m.sealed) - 4*m.ringCap; over > 0 {
		m.dropped += uint64(over)
		m.sealed = append(m.sealed[:0], m.sealed[over:]...)
	}
}

func (m *refRecorder) journal() []Event { return append(append([]Event{}, m.sealed...), m.sorted()...) }

func TestSealedRingMatchesShiftingJournal(t *testing.T) {
	for seed := uint64(1); seed <= 22; seed++ {
		next := popgen.NewRand(seed).Intn
		ringCap, steps, every := 1+next(12), 600, 1
		if seed > 20 {
			// A journal of three chunks, the last one short: filled across
			// both chunk boundaries, then wrapped by eviction at sealCap.
			ringCap, steps, every = (2*sealChunk+next(sealChunk))/4+1, 12*sealChunk, 64
		}
		r, m := New(ringCap), &refRecorder{ringCap: ringCap}
		at := time.Duration(0)
		for step := 0; step < steps; step++ {
			// Mostly records, in bursts that sometimes overrun the ring,
			// with fences often enough to wrap the sealed journal many times.
			if next(8) == 0 {
				r.Seal(at)
				m.seal(at)
			} else {
				e := Event{At: at + time.Duration(next(5)), Kind: Kind(1 + next(int(kindMax))),
					Name: fmt.Sprintf("n%d", next(4)), Proc: fmt.Sprintf("p%d", next(3))}
				r.Record(e.At, e.Kind, e.Name, e.Proc, e.Detail)
				m.record(e)
			}
			at += time.Duration(next(3))
			if step%every != 0 && step != steps-1 {
				continue
			}
			if got, want := r.Journal(), m.journal(); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d: journal diverged from the model:\n got %+v\nwant %+v", seed, step, got, want)
			}
			if r.Dropped() != m.dropped {
				t.Fatalf("seed %d step %d: Dropped %d, model %d", seed, step, r.Dropped(), m.dropped)
			}
		}
		if m.dropped == 0 || (seed > 20 && len(r.sealed) != 3) {
			t.Fatalf("seed %d: stream never evicted, or sealed %d chunks; the test lost its point", seed, len(r.sealed))
		}
	}
}

func TestUnsealedRecorderHoldsNoJournal(t *testing.T) {
	r := New(1 << 10)
	for i := 0; i < 5000; i++ {
		r.Record(time.Duration(i), KindResolution, "n", "p", "")
	}
	if r.sealed != nil {
		t.Fatalf("a recorder nobody sealed holds a %d-event sealed journal", len(r.sealed))
	}
}

func TestSealSteadyStateZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("AllocsPerRun counts the race detector's own allocations")
	}
	r := New(64) // sealCap 256
	at := time.Duration(0)
	fence := func() {
		for i := 0; i < 40; i++ {
			at++
			r.Record(at, KindResolution, "[home]mann/notes", "ws-mann", "")
		}
		r.Seal(at)
	}
	for r.Dropped() == 0 { // grow the sealed ring to its bound first
		fence()
	}
	if allocs := testing.AllocsPerRun(100, fence); allocs != 0 {
		t.Fatalf("a steady-state fence allocates %.1f times, want 0", allocs)
	}
}

// TestConcurrentRecordsSealAsSequential: four goroutines record
// disjoint events into one ring, which takes no lock; sealed at a cut
// after they finish, the journal and Dropped equal a sequential replay's.
// With a wrap, the ring is filled once and then overwritten once, each
// pass by all four at once: the survivors are the second pass as a set,
// whatever the interleaving. With laps, each writer records three rings'
// worth: which events survive depends on the schedule, but each is one
// recorded whole, once, and every event is sealed or counted as dropped.
func TestConcurrentRecordsSealAsSequential(t *testing.T) {
	const writers, ringCap = 4, 256
	event := func(pass, w, i int) Event {
		return Event{At: time.Duration(pass*1000 + i), Kind: Kind(1 + i%int(kindMax)),
			Name: fmt.Sprintf("n%d", i%7), Proc: fmt.Sprintf("w%d", w), Detail: fmt.Sprintf("p%d", pass)}
	}
	record := func(r *Recorder, pass, each int) {
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < each; i++ {
					e := event(pass, w, i)
					r.Record(e.At, e.Kind, e.Name, e.Proc, e.Detail)
				}
			}(w)
		}
		wg.Wait()
	}
	for _, wrap := range []bool{false, true} {
		r, m := New(ringCap), &refRecorder{ringCap: ringCap}
		for fence := 0; fence < 6; fence++ {
			passes, each := []int{2 * fence}, 50
			if wrap {
				passes, each = []int{2 * fence, 2*fence + 1}, ringCap/writers
			}
			for _, pass := range passes {
				record(r, pass, each)
				for w := 0; w < writers; w++ {
					for i := 0; i < each; i++ {
						m.record(event(pass, w, i))
					}
				}
			}
			at := time.Duration(fence+1) * time.Hour
			r.Seal(at)
			m.seal(at)
			if got, want := r.Journal(), m.journal(); !reflect.DeepEqual(got, want) {
				t.Fatalf("wrap=%v fence %d: journal diverged from the sequential replay", wrap, fence)
			}
			if r.Dropped() != m.dropped {
				t.Fatalf("wrap=%v fence %d: Dropped %d, sequential %d", wrap, fence, r.Dropped(), m.dropped)
			}
		}
	}

	r := New(ringCap)
	record(r, 0, 3*ringCap)
	sealed := r.Seal(time.Hour)
	if total := uint64(sealed) + r.Dropped(); sealed > ringCap || total != writers*3*ringCap {
		t.Fatalf("laps: %d sealed + %d dropped, want %d recorded, at most %d sealed", sealed, r.Dropped(), writers*3*ringCap, ringCap)
	}
	seen := map[Event]bool{}
	for _, e := range r.Journal()[:sealed] {
		if w, i := int(e.Proc[1]-'0'), int(e.At); seen[e] || e != event(0, w, i) {
			t.Fatalf("laps: journaled %+v twice or mixed", e)
		}
		seen[e] = true
	}
}

// TestSealNearlySortedMatchesSort: whatever order a batch arrives in,
// Seal gives it slices.SortFunc's order. A sorted batch and one with a
// few events out of place stay within the insertion pass's budget of
// len(batch) shifts (its inversions); a reversed and a random batch
// exceed it and take the fallback.
func TestSealNearlySortedMatchesSort(t *testing.T) {
	const n = 311
	next := popgen.NewRand(56).Intn
	sorted := make([]Event, n)
	for i := range sorted {
		// Ties on time, and some events equal in every field.
		sorted[i] = Event{At: time.Duration(i / 3), Kind: Kind(1 + next(2)), Name: fmt.Sprintf("n%d", next(3)), Proc: "p"}
	}
	slices.SortFunc(sorted, compare)
	nearly := slices.Clone(sorted)
	for range 18 {
		i := next(n - 1)
		nearly[i], nearly[i+1] = nearly[i+1], nearly[i]
	}
	reversed := slices.Clone(sorted)
	slices.Reverse(reversed)
	random := slices.Clone(sorted)
	for i := range random {
		j := next(i + 1)
		random[i], random[j] = random[j], random[i]
	}
	for _, c := range []struct {
		label    string
		batch    []Event
		fallback bool
	}{{"sorted", sorted, false}, {"nearly sorted", nearly, false}, {"reversed", reversed, true}, {"random", random, true}} {
		inversions := 0
		for i := range c.batch {
			for j := i + 1; j < n; j++ {
				if compare(c.batch[i], c.batch[j]) > 0 {
					inversions++
				}
			}
		}
		if inversions > n != c.fallback {
			t.Fatalf("%s: %d inversions against a budget of %d shifts; the case lost its point", c.label, inversions, n)
		}
		r := New(n)
		for _, e := range c.batch {
			r.Record(e.At, e.Kind, e.Name, e.Proc, e.Detail)
		}
		r.Seal(time.Hour)
		want := slices.Clone(c.batch)
		slices.SortFunc(want, compare)
		want = append(want, Event{At: time.Hour, Kind: KindFence, Proc: "engine"})
		if got := r.Journal(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: sealed out of slices.SortFunc's order", c.label)
		}
	}
}

// TestLappedSlotCountsAsDropped: a writer lapped between its claim and
// its stamp neither blocks the writer that laps it nor mixes its event
// into that one's slot. The lapping writer leaves the slot alone, the
// late writer's stamp is stale, and the slot is counted as dropped and
// never journaled, by Journal, Dropped and Seal alike.
func TestLappedSlotCountsAsDropped(t *testing.T) {
	r := New(4)
	late := r.claims.Add(1) - 1 // claims slot 0, then stalls
	for i := 1; i <= 4; i++ {   // the fourth laps the stalled writer's slot
		r.Record(time.Duration(i), KindResolution, "n", "p", "")
	}
	r.buf[0] = Event{At: 0, Kind: KindRedefine, Name: "late", Proc: "p"}
	r.stamps[0].Store(late + 1) // the stalled writer finishes
	want := []Event{{At: 1, Kind: KindResolution, Name: "n", Proc: "p"},
		{At: 2, Kind: KindResolution, Name: "n", Proc: "p"}, {At: 3, Kind: KindResolution, Name: "n", Proc: "p"}}
	if got := r.Journal(); !reflect.DeepEqual(got, want) {
		t.Fatalf("journal with a stale slot = %+v, want %+v", got, want)
	}
	// The late event was overwritten by the wrap; the fourth was lost.
	if r.Dropped() != 2 {
		t.Fatalf("Dropped = %d, want 2", r.Dropped())
	}
	if sealed := r.Seal(5); sealed != 3 || r.Dropped() != 2 {
		t.Fatalf("Seal sealed %d with %d dropped, want 3 and 2", sealed, r.Dropped())
	}
	// The next round writes slot 0 afresh.
	r.Record(6, KindResolution, "m", "p", "")
	if j := r.Journal(); len(j) != 5 || j[4].Name != "m" {
		t.Fatalf("round after the stale slot journaled %+v", j)
	}
}
