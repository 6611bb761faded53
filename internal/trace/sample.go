package trace

import (
	"cmp"
	"slices"
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

// openSpan is a span of a still-open subtree: the record with its name
// unrendered.
type openSpan struct {
	Span
	name Name
}

// subtree holds one open root's spans by value, in creation order (the
// root first), until its last span ends. Retired subtrees are recycled,
// slab and all, so in steady state opening a span allocates nothing.
type subtree struct {
	spans    []openSpan
	open     int // spans not yet ended
	at       int // where openSet.live holds this subtree
	headKeep bool
	anomaly  bool
}

// start opens a span; the pointer is good until the next start. A span
// whose parent is 0 or already retired starts a subtree of its own, so
// retained trees stay complete. Caller holds t.mu.
func (t *Tracer) start(parent SpanID, kind Kind, name Name, at int64, who ProcID) *Span {
	t.nextID++
	st, _ := t.open.find(parent)
	if st == nil {
		parent = 0
		t.rootsSeen++
		seen := t.seenByProc[who.PID]
		if seen == nil {
			seen = new(uint64)
			t.seenByProc[who.PID] = seen
		}
		*seen++
		if last := len(t.free) - 1; last >= 0 {
			st, t.free = t.free[last], t.free[:last]
		} else {
			st = &subtree{}
		}
		// A recycled slab's stale records are overwritten before they
		// are read; until then they pin only strings callers hold anyway.
		*st = subtree{spans: st.spans, at: len(t.open.live), headKeep: (*seen-1)%uint64(t.cfg.HeadEvery) == 0}
		t.open.live = append(t.open.live, st)
	}
	st.spans = append(st.spans, openSpan{
		Span: Span{
			ID:     t.nextID,
			Parent: parent,
			Kind:   kind,
			Proc:   who.Name,
			PID:    who.PID,
			Host:   who.Host,
			Start:  at,
		},
		name: name,
	})
	st.open++
	i := len(st.spans) - 1
	t.open.n++
	t.open.recent[t.nextID%recentSpans] = spanSlot{st, int32(i)}
	return &st.spans[i].Span
}

// span returns the addressable span with the given id: one of a
// still-open subtree, or nil — annotations on retired spans are dropped.
// Caller holds t.mu.
func (t *Tracer) span(id SpanID) *Span {
	if st, i := t.open.find(id); st != nil {
		return &st.spans[i].Span
	}
	return nil
}

// fail ends a span. Caller holds t.mu.
func (t *Tracer) fail(id SpanID, at int64, class string) {
	st, i := t.open.find(id)
	if st == nil {
		return
	}
	sp := &st.spans[i]
	if sp.ended {
		return
	}
	sp.End = at
	sp.Err = class
	sp.ended = true
	if class != "" {
		st.anomaly = true
	}
	st.open--
	if st.open == 0 {
		t.finish(st)
	}
}

// finish retires a drained subtree: retained in full or dropped whole.
// Caller holds t.mu.
func (t *Tracer) finish(st *subtree) {
	root := &st.spans[0]
	slow := t.cfg.SlowOver > 0 && time.Duration(root.End-root.Start) >= t.cfg.SlowOver
	if st.headKeep || st.anomaly || slow {
		for i := range st.spans {
			st.spans[i].renderInto(t.retained.next())
		}
		t.rootsRetained++
	}
	o := &t.open
	o.n -= len(st.spans)
	last := len(o.live) - 1
	o.live[st.at], o.live[last].at = o.live[last], st.at
	o.live = o.live[:last]
	// Emptied here, not at reuse: it is what makes a recent entry stale.
	st.spans = st.spans[:0]
	t.free = append(t.free, st)
}

// renderInto writes the span as it is exported, its name rendered.
func (sp *openSpan) renderInto(out *Span) {
	*out = sp.Span
	out.Name = sp.name.String()
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

// openSet finds the spans of open subtrees by id. recent says where the
// last recentSpans spans were put, by id modulo its size: ids are dense,
// so a span is found there unless that many were opened since it was;
// then — or when the entry is stale, its subtree retired — find searches
// live, the subtrees themselves. A span that never ends costs nothing
// but that search.
type openSet struct {
	recent [recentSpans]spanSlot
	live   []*subtree
	n      int // spans in live, ended or not
}

const recentSpans = 1024

type spanSlot struct {
	st *subtree
	i  int32
}

// find returns the open subtree that holds span id, and where.
func (o *openSet) find(id SpanID) (*subtree, int) {
	if id == 0 {
		return nil, 0
	}
	if e := o.recent[id%recentSpans]; e.st != nil && int(e.i) < len(e.st.spans) && e.st.spans[e.i].ID == id {
		return e.st, int(e.i)
	}
	for _, st := range o.live {
		i, ok := slices.BinarySearchFunc(st.spans, id, func(sp openSpan, id SpanID) int { return cmp.Compare(sp.ID, id) })
		if ok {
			return st, i
		}
	}
	return nil, 0
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
