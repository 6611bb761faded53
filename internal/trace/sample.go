package trace

import (
	"sync"
	"sync/atomic"
	"time"
)

// SampleConfig selects what a tracer retains (PROTOCOL.md §15). Keeping
// every span is O(ops) memory, which caps it near 10⁴ operations; a
// sampled tracer retains O(ops/HeadEvery + anomalies) complete span
// subtrees and discards the rest as their operations finish, so
// population-scale workloads (10⁶ names, §14) can run traced.
//
// Two rules compose:
//
//   - Head sampling by client lane: each process's root spans are
//     counted, and every HeadEvery-th root (the 1st, the
//     HeadEvery+1-th, ...) is retained in full. Roots are counted per
//     process (by PID, which names its host too: same-named processes
//     on different hosts count apart), and each lane's operations start
//     in its own program order, so the set of head-retained roots is
//     deterministic even when lanes interleave.
//
//   - Tail retention of anomalies: a root whose subtree recorded any
//     failure classification, or whose total duration reached SlowOver,
//     is always retained — slow, failed and stale operations survive in
//     full even when head sampling would have dropped them.
//
// Retained subtrees are complete (every span keeps its parent), so the
// invariant checker runs unchanged on a sampled trace.
type SampleConfig struct {
	// HeadEvery retains every n-th root per process; values < 1 mean 1
	// (retain everything, tail rules moot, frame log kept).
	HeadEvery int
	// SlowOver, when > 0, always retains roots at least this long.
	SlowOver time.Duration
}

// A handle — the SpanID the tracer returns — says where its span lives:
// the subtree's slot, the span's position in it, and the generation of
// the subtree it was opened in. A subtree changes generation when it
// retires, so a handle outliving its subtree no longer matches and
// whatever it is passed to is a no-op.
const (
	posBits  = 20
	slotBits = 20
	genBits  = 64 - slotBits - posBits
	genMask  = 1<<genBits - 1
)

func handle(gen uint64, slot uint32, pos int) SpanID {
	return SpanID(gen<<(slotBits+posBits) | uint64(slot)<<posBits | uint64(pos))
}

func (h SpanID) gen() uint64  { return uint64(h) >> (slotBits + posBits) }
func (h SpanID) slot() uint32 { return uint32(h>>posBits) & (1<<slotBits - 1) }
func (h SpanID) pos() int     { return int(h & (1<<posBits - 1)) }

// openSpan is a span of a still-open subtree, written in place field by
// field: its name unrendered, its process an index into the subtree's
// table of the processes that wrote it. A recycled record's fields are
// read only as flags says they were written: End and Err once ended, the
// hop of a wire span or of the wire span under it, the stamp of a lease
// event.
type openSpan struct {
	name          Name
	kind          Kind
	err           string
	id, parent    SpanID // as exported
	start, end    int64
	grant, expire int64
	hop           hopRecord
	proc          int16 // -1: no process (a wire hop)
	flags         uint8
}

const (
	spanEnded uint8 = 1 << iota
	spanGroup
	spanHop   // the span is a wire hop: hop holds its detail
	spanWire  // a wire hop hangs under the span: hop holds all of it
	spanStamp // grant and expire are written
)

// hopRecord is a wire hop's cost-model detail and, when it hangs under the
// record that holds it, its own id, name and times: a Send's request and
// a Reply's or Forward's hop are written with their span, not as records
// of their own.
type hopRecord struct {
	id                      SpanID
	name                    string
	start, end, queue       int64
	bytes, packets, retrans int32
	local, bcast            bool
}

func (w *hopRecord) detail(h *Hop) {
	w.bytes, w.packets, w.retrans = int32(h.Bytes), int32(h.Detail.Packets), int32(h.Detail.Retransmits)
	w.queue, w.local, w.bcast = int64(h.Detail.Queue), h.Local, h.Bcast
}

// subtree holds one open root's spans, in creation order (the root
// first), until its last span ends. It keeps its slot for good: retired,
// it is recycled, slab and all, so in steady state opening a span
// allocates nothing.
//
// A subtree has one writer at a time, because a V sender is blocked
// until its reply: whoever holds a handle into it holds the transaction,
// and hands it on through the kernel, which ends its spans before it
// unblocks anyone (PROTOCOL.md §15.3). So its spans are written with no
// lock — until a group send or forward marks it, after which member
// clones may still write it when the first reply has unblocked the
// sender, and every write takes mu.
type subtree struct {
	// state is the live generation (genBits wide, never 0) shifted left
	// one, its low bit set once the subtree is group-marked.
	state   atomic.Uint64
	mu      sync.Mutex
	spans   []openSpan
	procs   []ProcID
	open    int  // spans not yet ended
	anomaly bool // a span ended with a failure class
	slot    uint32
	// Written under Tracer.mu as a root opens the subtree: the generation
	// its handles carry while it is live, whether it is, and whether head
	// sampling keeps it.
	gen      uint64
	live     bool
	headKeep bool
}

// pen is the right to write one subtree: held by its one writer without a
// lock, or under the subtree's lock once it is group-marked.
type pen struct {
	st     *subtree
	locked bool
}

// acquire returns the pen to the subtree holding span h, and where h
// is; ok is false if h is 0 or its subtree has retired. (No subtree is
// ever of generation 0, which a 0 handle would carry.)
func (t *Tracer) acquire(h SpanID) (pen, int, bool) {
	st := t.subtree(h)
	if st != nil && st.state.Load() == h.gen()<<1 {
		return pen{st: st}, h.pos(), true
	}
	return st.lock(h)
}

// subtree returns the subtree at h's slot, or nil.
func (t *Tracer) subtree(h SpanID) *subtree {
	if slots := *t.slots.Load(); int(h.slot()) < len(slots) {
		return slots[h.slot()]
	}
	return nil
}

// lock is acquire's way into a group-marked subtree.
func (st *subtree) lock(h SpanID) (pen, int, bool) {
	if st == nil || st.state.Load() != h.gen()<<1|1 {
		return pen{}, 0, false
	}
	st.mu.Lock()
	if st.state.Load() != h.gen()<<1|1 { // retired while we waited
		st.mu.Unlock()
		return pen{}, 0, false
	}
	return pen{st: st, locked: true}, h.pos(), true
}

// open adds a span under parent and returns the pen to its subtree and
// where it is. It takes ids for the span and the n-1 spans the caller
// adds under it in the same call (wire) with one step of the counter, so
// they are consecutive. A span whose parent is 0 or already retired
// starts a subtree of its own, so retained trees stay complete; so does
// one whose parent's subtree is full.
func (t *Tracer) open(parent SpanID, kind Kind, name *Name, at int64, who *ProcID, n uint64) (pen, int) {
	p, pi, ok := t.acquire(parent)
	var up SpanID
	switch {
	case ok && len(p.st.spans) < 1<<posBits:
		up = p.st.spans[pi].id
	case ok:
		t.release(p, false)
		fallthrough
	default:
		var pid uint32
		if who != nil {
			pid = who.PID
		}
		p = pen{st: t.root(pid)}
	}
	id := SpanID(t.nextID.Add(n) - n + 1)
	return p, p.st.add(id, up, kind, name, at, who)
}

// handle returns the handle of the span at i.
func (p pen) handle(i int) SpanID { return handle(p.st.gen, p.st.slot, i) }

// mark group-marks the subtree, its pen taking the lock from here on.
func (p *pen) mark() {
	if !p.locked {
		p.st.mu.Lock()
		p.st.state.Store(p.st.state.Load() | 1)
		p.locked = true
	}
}

// release gives the pen back. A write that ended the subtree's last
// span (retire) moves the subtree to its next generation, which makes
// every handle into it stale, and then retires it.
func (t *Tracer) release(p pen, retire bool) {
	if retire || p.locked {
		t.unlock(p, retire)
	}
}

// unlock is release's slow half: a retirement, or a group-marked pen.
func (t *Tracer) unlock(p pen, retire bool) {
	if retire {
		next := (p.st.state.Load()>>1 + 1) & genMask
		if next == 0 {
			next++
		}
		p.st.state.Store(next << 1)
	}
	if p.locked {
		p.st.mu.Unlock()
	}
	if retire {
		t.finish(p.st)
	}
}

// add writes a new span, exported as id, at the end of the subtree and
// returns its position.
func (st *subtree) add(id, parent SpanID, kind Kind, name *Name, at int64, who *ProcID) int {
	i := len(st.spans)
	if i < cap(st.spans) {
		st.spans = st.spans[:i+1]
	} else {
		st.spans = append(st.spans, openSpan{})
	}
	sp := &st.spans[i]
	sp.name = *name
	sp.kind = kind
	sp.id, sp.parent, sp.start = id, parent, at
	sp.proc = st.proc(who)
	sp.flags = 0
	st.open++
	return i
}

// proc returns who's index in the subtree's process table, adding it
// the first time: a subtree is written by the few processes its
// transaction visits, the latest most likely next.
func (st *subtree) proc(who *ProcID) int16 {
	if who == nil {
		return -1
	}
	for i := len(st.procs) - 1; i >= 0; i-- {
		if q := &st.procs[i]; q.PID == who.PID && q.Name == who.Name && q.Host == who.Host {
			return int16(i)
		}
	}
	st.procs = append(st.procs, *who)
	return int16(len(st.procs) - 1)
}

// wire hangs a wire hop, exported as the id after the span's (open took
// two for the pair), under the span at i, ended at once.
func (st *subtree) wire(i int, h *Hop) {
	sp := &st.spans[i]
	sp.hop.id, sp.hop.name = sp.id+1, h.Name
	sp.hop.start, sp.hop.end = int64(h.Start), int64(h.Start)+int64(h.Dur)
	sp.hop.detail(h)
	sp.flags |= spanWire
}

// end ends the span at i, reporting whether it was the subtree's last
// open span. Ending an ended span changes nothing.
func (st *subtree) end(i int, at int64, class string) bool {
	sp := &st.spans[i]
	if sp.flags&spanEnded != 0 {
		return false
	}
	sp.end, sp.err = at, class
	sp.flags |= spanEnded
	if class != "" {
		st.anomaly = true
	}
	st.open--
	return st.open == 0
}

// root opens a subtree for a new root: the head count, and a slot from
// the free list or a new one.
func (t *Tracer) root(pid uint32) *subtree {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rootsSeen++
	seen := t.seenByProc[pid]
	if seen == nil {
		seen = new(uint64)
		t.seenByProc[pid] = seen
	}
	*seen++
	var st *subtree
	if last := len(t.free) - 1; last >= 0 {
		st, t.free = t.free[last], t.free[:last]
	} else {
		slots := *t.slots.Load()
		if len(slots) == 1<<slotBits {
			panic("trace: more open subtrees than span handles can name")
		}
		st = &subtree{slot: uint32(len(slots))}
		st.state.Store(1 << 1)
		// Appended in place while capacity lasts: a reader holding the
		// shorter slice never indexes the new slot.
		slots = append(slots, st)
		t.slots.Store(&slots)
	}
	st.gen = st.state.Load() >> 1
	st.live, st.anomaly = true, false
	st.headKeep = (*seen-1)%uint64(t.cfg.HeadEvery) == 0
	return st
}

// finish retires a drained subtree, which no handle names any more:
// retained in full or dropped whole.
func (t *Tracer) finish(st *subtree) {
	t.mu.Lock()
	defer t.mu.Unlock()
	root := &st.spans[0]
	slow := t.cfg.SlowOver > 0 && time.Duration(root.end-root.start) >= t.cfg.SlowOver
	if st.headKeep || st.anomaly || slow {
		for i := range st.spans {
			st.render(i, t.retained.next)
		}
		t.rootsRetained++
	}
	// A recycled slab's stale records are overwritten before they are
	// read; until then they pin only strings callers hold anyway.
	st.spans, st.procs, st.live = st.spans[:0], st.procs[:0], false
	t.free = append(t.free, st)
}

// render writes the span at i as it is exported, its name rendered,
// to next(), and then the wire hop hanging under it, if any.
func (st *subtree) render(i int, next func() *Span) {
	sp := &st.spans[i]
	out := next()
	*out = Span{
		ID:     sp.id,
		Parent: sp.parent,
		Kind:   sp.kind,
		Name:   sp.name.String(),
		Start:  sp.start,
		Group:  sp.flags&spanGroup != 0,
		ended:  sp.flags&spanEnded != 0,
	}
	out.Incomplete = !out.ended
	if out.ended {
		out.End, out.Err = sp.end, sp.err
	}
	if sp.flags&spanHop != 0 {
		sp.hop.into(out)
	}
	if sp.flags&spanStamp != 0 {
		out.LeaseGrant, out.LeaseExpire = sp.grant, sp.expire
	}
	if sp.proc >= 0 {
		who := &st.procs[sp.proc]
		out.Proc, out.PID, out.Host = who.Name, who.PID, who.Host
	}
	if sp.flags&spanWire != 0 {
		w := next()
		*w = Span{ID: sp.hop.id, Parent: sp.id, Kind: KindWire, Name: sp.hop.name, Start: sp.hop.start, End: sp.hop.end, ended: true}
		sp.hop.into(w)
	}
}

func (w *hopRecord) into(out *Span) {
	out.Bytes, out.Packets, out.Retrans, out.Queue = int(w.bytes), int(w.packets), int(w.retrans), w.queue
	out.Local, out.Bcast = w.local, w.bcast
}

// retainChunk is how many spans one chunk of the retained store holds
// (23 KB: the largest the allocator still serves from a size class).
const retainChunk = 128

// spanStore is the retained spans in retention order, in fixed-size
// chunks: keeping one more span never copies the ones already kept, so
// retention costs the bytes it keeps — one growing slice re-copied them
// several times over on the way up.
type spanStore struct {
	chunks [][]Span // retainChunk long each; the last is filled up to n
	n      int
}

// next returns the slot of the next retained span.
func (r *spanStore) next() *Span {
	if r.n%retainChunk == 0 {
		r.chunks = append(r.chunks, make([]Span, retainChunk))
	}
	r.n++
	return &r.chunks[(r.n-1)/retainChunk][(r.n-1)%retainChunk]
}

// RootsSeen returns how many root spans the tracer observed.
func (t *Tracer) RootsSeen() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.rootsSeen
}

// RootsRetained returns how many root subtrees the tracer kept.
func (t *Tracer) RootsRetained() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.rootsRetained
}
