// Package flight is the flight recorder, installed where something reads
// it (a tracer, faults, the auto-tuner, the paper testbed): a bounded
// ring journal of the structured events the naming plane emits —
// resolutions, lease grants and renewals, invalidation callbacks,
// redefinitions, forwards, failovers and engine fences. Like the tracer
// and the metrics registry (PROTOCOL.md §9, §15), the recorder is
// strictly an observer: recording never touches a process clock, so a
// run with the recorder installed is byte-identical to one without it
// in every virtual-time result.
//
// The hot path takes no lock: a writer claims a slot of a fixed
// preallocated ring with one atomic add, writes the event by value —
// string fields referencing strings the caller already holds, no
// per-event allocation — and stamps the slot with its claim last. Every
// method is nil-safe, so record sites need no presence checks. When the
// ring wraps, the oldest events are overwritten and counted as dropped;
// the journal is a bounded window onto recent activity, not an unbounded
// log.
//
// Under the conservative engine, record order across lanes is not
// deterministic — but the *set* of events between two globally
// quiescent cuts is. Seal, called at engine fences, drains the ring
// into the sealed journal in a canonical order (sorted by time, kind,
// name, process, detail), so the journal of a fenced run is
// deterministic even when the lanes genuinely overlapped.
package flight

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kind classifies a flight-recorder event.
type Kind uint8

// The event kinds of the naming plane (PROTOCOL.md §15).
const (
	// KindResolution is one prefix resolution served (hit or forward).
	KindResolution Kind = iota + 1
	// KindLeaseGrant is a lease stamp leaving a granting server
	// (detail "negative" marks a NotFound stamp).
	KindLeaseGrant
	// KindLeaseRenew is a client revalidating a lapsed lease.
	KindLeaseRenew
	// KindInvalidate is an invalidation applied at a holder (callback).
	KindInvalidate
	// KindRedefine is a binding mutation committing at the granting
	// server — the instant the staleness invariant keys on.
	KindRedefine
	// KindForward is a request rewritten and passed along a binding.
	KindForward
	// KindFailover is a recovery action: a stale leased route dropped,
	// a dead dynamic target, a rebind to a new implementor.
	KindFailover
	// KindFence is an engine fence: the quiescent cut at which the ring
	// was sealed.
	KindFence

	kindMax = KindFence
)

var kindNames = [...]string{
	KindResolution: "resolution",
	KindLeaseGrant: "lease-grant",
	KindLeaseRenew: "lease-renew",
	KindInvalidate: "invalidate",
	KindRedefine:   "redefine",
	KindForward:    "forward",
	KindFailover:   "failover",
	KindFence:      "fence",
}

// String names the kind.
func (k Kind) String() string {
	if k >= 1 && k <= kindMax {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one flight-recorder event. Fields are plain values: recording
// one into the ring copies three string headers and two words, and
// allocates nothing.
type Event struct {
	// At is the virtual time of the event.
	At time.Duration `json:"at_ns"`
	// Kind classifies the event.
	Kind Kind `json:"kind"`
	// Name is the name or prefix involved (may be empty for fences).
	Name string `json:"name,omitempty"`
	// Proc is the recording process.
	Proc string `json:"proc,omitempty"`
	// Detail carries the event's classification ("negative", "stale",
	// "dead-target", ...). Empty for the common case.
	Detail string `json:"detail,omitempty"`
}

// compare orders events canonically: by time, then kind, name, process
// and detail. Events equal under this order are interchangeable, which
// is what makes a sealed journal deterministic at quiescent cuts.
func compare(e, o Event) int {
	if c := cmp.Compare(e.At, o.At); c != 0 {
		return c
	}
	if c := cmp.Compare(e.Kind, o.Kind); c != 0 {
		return c
	}
	if c := strings.Compare(e.Name, o.Name); c != 0 {
		return c
	}
	if c := strings.Compare(e.Proc, o.Proc); c != 0 {
		return c
	}
	return strings.Compare(e.Detail, o.Detail)
}

// DefaultCapacity is the ring size used when New is given n <= 0.
const DefaultCapacity = 4096

// Recorder is the flight recorder. All methods are safe for concurrent
// use and all are no-ops on a nil receiver; Seal, Journal and Dropped
// read the ring as it stands, so they belong at quiescent cuts.
type Recorder struct {
	buf    []Event         // preallocated ring
	stamps []atomic.Uint64 // stamps[i]: 1 + the claim that last wrote buf[i]
	claims atomic.Uint64   // claims handed out
	base   atomic.Uint64   // claims at the last Seal, which restarts the ring at slot 0

	mu      sync.Mutex
	dropped uint64 // events lost before the last Seal

	// The fence-drained journal, canonical order: a second ring of
	// sealCap positions, past which each sealed event overwrites the
	// oldest. Position i is sealed[i/sealChunk][i%sealChunk]; chunks are
	// added as the journal first fills (a recorder nobody seals holds
	// none), so growing it never copies what is already sealed.
	sealed   [][]Event
	sealHead int // position of the oldest sealed event; 0 until the ring is full
	sealN    int // sealed events held (≤ sealCap)
	sealCap  int
}

// sealChunk is how many events one chunk of the sealed journal holds
// (32 KB: the largest the allocator still serves from a size class).
const sealChunk = 512

// New returns a recorder with the given ring capacity (DefaultCapacity
// when n <= 0). The sealed journal is bounded at 4× the ring.
func New(n int) *Recorder {
	if n <= 0 {
		n = DefaultCapacity
	}
	return &Recorder{buf: make([]Event, n), stamps: make([]atomic.Uint64, n), sealCap: 4 * n}
}

// Record appends one event to the ring, overwriting the oldest when
// full. Zero virtual cost, zero allocations, no lock: claim c writes
// slot (c-base) mod len(buf) and stamps it. A writer lapped between its
// claim and its stamp still owns its slot, so c leaves a slot its
// previous claim has not stamped alone rather than mix two events; the
// stale stamp counts c's event as dropped.
func (r *Recorder) Record(at time.Duration, kind Kind, name, proc, detail string) {
	if r == nil {
		return
	}
	c, n := r.claims.Add(1)-1, uint64(len(r.buf))
	i := c - r.base.Load()
	if i >= n {
		if i %= n; r.stamps[i].Load() != c-n+1 {
			return
		}
	}
	r.buf[i] = Event{At: at, Kind: kind, Name: name, Proc: proc, Detail: detail}
	r.stamps[i].Store(c + 1)
}

// ring appends to dst the events claimed since the last Seal whose slots
// carry their stamps, in slot order, and returns how many other claims
// there were: overwritten by the wrap or lost to a lapped writer. A nil
// dst appends nothing; Seal compacts the ring in place with buf[:0].
// Caller holds r.mu.
func (r *Recorder) ring(dst []Event) ([]Event, uint64) {
	base, n := r.base.Load(), uint64(len(r.buf))
	claims := r.claims.Load() - base
	kept := uint64(0)
	for i := uint64(0); i < min(claims, n); i++ {
		newest := base + i // slot i's last claim, plus its laps if the ring wrapped
		if claims > n {
			newest += (claims - 1 - i) / n * n
		}
		if r.stamps[i].Load() == newest+1 {
			kept++
			if dst != nil {
				dst = append(dst, r.buf[i])
			}
		}
	}
	return dst, claims - kept
}

// Dropped returns the number of events lost to ring wrap-around or to a
// lapped writer (plus sealed events evicted past the journal bound).
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	_, lost := r.ring(nil)
	return r.dropped + lost
}

// Seal drains the ring into the sealed journal in canonical order and
// records the fence itself, returning the number of events sealed.
// Called at engine fences — globally quiescent cuts — so the sealed
// batch is a deterministic set regardless of how the lanes interleaved.
// A fence costs O(batch): the batch is sorted where it lies and copied
// once, and the journal already sealed is not touched.
func (r *Recorder) Seal(at time.Duration) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	// The ring restarts at slot 0 after every Seal, so the events it
	// holds are a set — wrapped or not — and the canonical order does
	// not depend on the order they were recorded in.
	batch, lost := r.ring(r.buf[:0])
	r.dropped += lost
	sortNearly(batch)
	for _, e := range batch {
		r.seal(e)
	}
	r.seal(Event{At: at, Kind: KindFence, Proc: "engine"})
	r.base.Store(r.claims.Load())
	return len(batch)
}

// sortNearly sorts batch canonically. Each lane records in time order,
// so a batch between two fences is nearly sorted and one insertion pass
// sorts it; past len(batch) shifts, slices.SortFunc does. Events equal
// under compare are identical, so both give the one canonical order.
func sortNearly(batch []Event) {
	shifts := 0
	for i := 1; i < len(batch) && shifts <= len(batch); i++ {
		for j := i; j > 0 && compare(batch[j-1], batch[j]) > 0; j-- {
			batch[j-1], batch[j] = batch[j], batch[j-1]
			shifts++
		}
	}
	if shifts > len(batch) {
		slices.SortFunc(batch, compare)
	}
}

// seal appends one event to the sealed journal, evicting (and counting
// as dropped) the oldest once sealCap are held. Caller holds r.mu.
func (r *Recorder) seal(e Event) {
	at := r.sealN
	if r.sealN == r.sealCap {
		at = r.sealHead
		if r.sealHead++; r.sealHead == r.sealCap {
			r.sealHead = 0
		}
		r.dropped++
	} else {
		if at == len(r.sealed)*sealChunk {
			r.sealed = append(r.sealed, make([]Event, min(sealChunk, r.sealCap-at)))
		}
		r.sealN++
	}
	r.sealed[at/sealChunk][at%sealChunk] = e
}

// sealedInto copies the sealed journal, oldest first, into dst and
// returns the number of events copied. Caller holds r.mu.
func (r *Recorder) sealedInto(dst []Event) int {
	for i := 0; i < r.sealN; i++ {
		at := (r.sealHead + i) % r.sealCap
		dst[i] = r.sealed[at/sealChunk][at%sealChunk]
	}
	return r.sealN
}

// Journal returns the recorder's contents: the sealed journal followed
// by the live ring tail, the tail in the same canonical order Seal
// would give it.
func (r *Recorder) Journal() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, r.sealN, r.sealN+min(int(r.claims.Load()-r.base.Load()), len(r.buf)))
	r.sealedInto(out)
	out, _ = r.ring(out)
	sortNearly(out[r.sealN:])
	return out
}

// Counts tallies the journal by kind (index = Kind).
func Counts(events []Event) [kindMax + 1]uint64 {
	var c [kindMax + 1]uint64
	for _, e := range events {
		if e.Kind >= 1 && e.Kind <= kindMax {
			c[e.Kind]++
		}
	}
	return c
}

// WriteText renders events one per line for vstat -flight.
func WriteText(w io.Writer, events []Event) {
	for _, e := range events {
		line := fmt.Sprintf("%12.3fms  %-11s", float64(e.At)/1e6, e.Kind)
		if e.Name != "" {
			line += "  " + e.Name
		}
		if e.Proc != "" {
			line += "  (" + e.Proc + ")"
		}
		if e.Detail != "" {
			line += "  [" + e.Detail + "]"
		}
		fmt.Fprintln(w, line)
	}
}
