package trace

import (
	"sort"
	"time"
)

// SampleConfig selects sampled-tracing mode (PROTOCOL.md §15). The full
// tracer is O(ops) memory, which caps it near 10⁴ operations; a sampled
// tracer retains O(ops/HeadEvery + anomalies) complete span subtrees and
// discards the rest as their operations finish, so population-scale
// workloads (10⁶ names, §14) can run traced.
//
// Two rules compose:
//
//   - Head sampling by client lane: each process's root spans are
//     counted, and every HeadEvery-th root (the 1st, the
//     HeadEvery+1-th, ...) is retained in full. Roots are counted per
//     process (the whole ProcID: same-named processes on different
//     hosts count apart), and each lane's operations start in its own
//     program order, so the set of head-retained roots is deterministic
//     even when lanes interleave.
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
	// (retain everything, tail rules moot).
	HeadEvery int
	// SlowOver, when > 0, always retains roots at least this long.
	SlowOver time.Duration
}

// NewSampled returns a tracer in sampled mode.
func NewSampled(cfg SampleConfig) *Tracer {
	if cfg.HeadEvery < 1 {
		cfg.HeadEvery = 1
	}
	return &Tracer{s: &sampleState{
		cfg:        cfg,
		open:       spanIndex{tab: make([]spanSlot, 64)},
		seenByProc: make(map[ProcID]*uint64),
	}}
}

// Sampled reports whether the tracer is in sampled mode.
func (t *Tracer) Sampled() bool { return t != nil && t.s != nil }

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
	headKeep bool
	anomaly  bool
}

// sampleState is the sampled-mode storage: spans of open subtrees live
// in their root's slab, found through one id index; finished subtrees
// either move to retained (names rendered then, and only then) or vanish.
type sampleState struct {
	cfg           SampleConfig
	nextID        SpanID
	open          spanIndex
	free          []*subtree
	seenByProc    map[ProcID]*uint64 // roots started, per process
	retained      []Span
	rootsSeen     uint64
	rootsRetained uint64
}

// start allocates a span in sampled mode. Caller holds t.mu.
func (s *sampleState) start(parent SpanID, kind Kind, name Name, at int64, who ProcID) *Span {
	s.nextID++
	st, _ := s.open.get(parent)
	if st == nil {
		// A new root — or a span whose parent already retired, which
		// starts a subtree of its own so retained trees stay complete.
		parent = 0
		s.rootsSeen++
		seen := s.seenByProc[who]
		if seen == nil {
			seen = new(uint64)
			s.seenByProc[who] = seen
		}
		*seen++
		if last := len(s.free) - 1; last >= 0 {
			st, s.free = s.free[last], s.free[:last]
		} else {
			st = &subtree{}
		}
		// A recycled slab's stale records are overwritten before they
		// are read; until then they pin only strings callers hold anyway.
		*st = subtree{spans: st.spans[:0], headKeep: (*seen-1)%uint64(s.cfg.HeadEvery) == 0}
	}
	st.spans = append(st.spans, openSpan{
		Span: Span{
			ID:     s.nextID,
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
	s.open.put(s.nextID, st, i)
	return &st.spans[i].Span
}

// span returns the addressable span with the given id: one of a
// still-open subtree, or nil.
func (s *sampleState) span(id SpanID) *Span {
	if st, i := s.open.get(id); st != nil {
		return &st.spans[i].Span
	}
	return nil
}

// fail ends a span in sampled mode. Caller holds t.mu.
func (s *sampleState) fail(id SpanID, at int64, class string) {
	st, i := s.open.get(id)
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
		s.finish(st)
	}
}

// finish retires a drained subtree: retained in full or dropped whole.
// Caller holds t.mu.
func (s *sampleState) finish(st *subtree) {
	root := &st.spans[0]
	slow := s.cfg.SlowOver > 0 && time.Duration(root.End-root.Start) >= s.cfg.SlowOver
	keep := st.headKeep || st.anomaly || slow
	for i := range st.spans {
		sp := &st.spans[i]
		if keep {
			s.retained = append(s.retained, sp.rendered())
		}
		s.open.del(sp.ID)
	}
	if keep {
		s.rootsRetained++
	}
	s.free = append(s.free, st)
}

// rendered returns the span as it is exported, its name rendered.
func (sp *openSpan) rendered() Span {
	out := sp.Span
	out.Name = sp.name.String()
	return out
}

// snapshot copies retained spans in id order, then any still-open
// subtree members (marked Incomplete) so a mid-run dump is honest.
// Caller holds t.mu.
func (s *sampleState) snapshot() []Span {
	out := make([]Span, 0, len(s.retained)+s.open.n)
	out = append(out, s.retained...)
	for _, e := range s.open.tab {
		if e.id == 0 {
			continue
		}
		sp := e.st.spans[e.i].rendered()
		sp.Incomplete = !sp.ended
		out = append(out, sp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// spanIndex finds the spans of open subtrees by id: an open-addressed
// table (ids are dense, so id modulo the table size is the hash) with
// linear probing and backward-shift deletion, holding only live spans —
// a span that never ends costs one slot, not a growing window.
type spanIndex struct {
	tab []spanSlot // len is a power of two, at most half full
	n   int
}

type spanSlot struct {
	id SpanID // 0: empty
	st *subtree
	i  int32
}

// find returns the slot holding id, or the empty slot that ends its
// probe run (which is where get(0) lands, too).
func (x *spanIndex) find(id SpanID) int {
	mask := len(x.tab) - 1
	h := int(id) & mask
	for x.tab[h].id != id && x.tab[h].id != 0 {
		h = (h + 1) & mask
	}
	return h
}

func (x *spanIndex) get(id SpanID) (*subtree, int) {
	e := &x.tab[x.find(id)]
	return e.st, int(e.i)
}

func (x *spanIndex) put(id SpanID, st *subtree, i int) {
	if 2*(x.n+1) > len(x.tab) {
		old := x.tab
		x.tab, x.n = make([]spanSlot, 2*len(old)), 0
		for _, e := range old {
			if e.id != 0 {
				x.put(e.id, e.st, int(e.i))
			}
		}
	}
	x.tab[x.find(id)] = spanSlot{id: id, st: st, i: int32(i)}
	x.n++
}

func (x *spanIndex) del(id SpanID) {
	h := x.find(id)
	if x.tab[h].id == 0 {
		return
	}
	x.n--
	// Close the gap: pull back each later entry of the run whose home
	// slot does not lie strictly between the gap and where it sits.
	mask := len(x.tab) - 1
	for j := (h + 1) & mask; x.tab[j].id != 0; j = (j + 1) & mask {
		if home := int(x.tab[j].id) & mask; (j-home)&mask >= (j-h)&mask {
			x.tab[h], h = x.tab[j], j
		}
	}
	x.tab[h] = spanSlot{}
}

// RootsSeen returns how many root spans the sampled tracer observed
// (0 in full mode, where Len covers the question).
func (t *Tracer) RootsSeen() uint64 {
	if t == nil || t.s == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.s.rootsSeen
}

// RootsRetained returns how many root subtrees the sampled tracer kept.
func (t *Tracer) RootsRetained() uint64 {
	if t == nil || t.s == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.s.rootsRetained
}
