package trace

import (
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/popgen"
)

// appendStore is the sampled store this package had before retention went
// to chunks and spans to in-place records named by their handles, kept as
// the oracle: one map from span id to its open subtree, one growing
// []Span of what was kept, head counters keyed by the whole ProcID.
type appendStore struct {
	cfg                      SampleConfig
	nextID                   SpanID
	open                     map[SpanID]*appendTree
	seen                     map[ProcID]uint64
	retained                 []Span
	rootsSeen, rootsRetained uint64
}

type appendTree struct {
	spans             []*Span
	open              int
	headKeep, anomaly bool
}

func (s *appendStore) start(parent SpanID, kind Kind, name string, at int64, who ProcID) SpanID {
	s.nextID++
	st := s.open[parent]
	if st == nil {
		parent = 0
		s.rootsSeen++
		s.seen[who]++
		st = &appendTree{headKeep: (s.seen[who]-1)%uint64(s.cfg.HeadEvery) == 0}
	}
	st.spans = append(st.spans, &Span{ID: s.nextID, Parent: parent, Kind: kind, Name: name,
		Proc: who.Name, PID: who.PID, Host: who.Host, Start: at})
	st.open++
	s.open[s.nextID] = st
	return s.nextID
}

func (s *appendStore) span(id SpanID) *Span {
	if st := s.open[id]; st != nil {
		for _, sp := range st.spans {
			if sp.ID == id {
				return sp
			}
		}
	}
	return nil
}

func (s *appendStore) fail(id SpanID, at int64, class string) {
	sp, st := s.span(id), s.open[id]
	if sp == nil || sp.ended {
		return
	}
	sp.End, sp.Err, sp.ended = at, class, true
	st.anomaly = st.anomaly || class != ""
	if st.open--; st.open > 0 {
		return
	}
	root := st.spans[0]
	keep := st.headKeep || st.anomaly || (s.cfg.SlowOver > 0 && time.Duration(root.End-root.Start) >= s.cfg.SlowOver)
	for _, sp := range st.spans {
		if keep {
			s.retained = append(s.retained, *sp)
		}
		delete(s.open, sp.ID)
	}
	if keep {
		s.rootsRetained++
	}
}

func (s *appendStore) snapshot() []Span {
	out := append([]Span(nil), s.retained...)
	seen := map[*appendTree]bool{}
	for _, st := range s.open {
		if !seen[st] {
			seen[st] = true
			for _, sp := range st.spans {
				out = append(out, *sp)
				out[len(out)-1].Incomplete = !sp.ended
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// TestSampledStoreMatchesAppendStore drives the sampled tracer and the
// store it replaced with one seeded schedule of 10⁴ roots on six
// interleaved processes — head-kept, failed and slow roots; spans that
// never end, so their subtrees stay open and take children thousands of
// ids later; children and late annotations of subtrees already retired —
// and compares them mid-run and at the end. The tracer's handles are not
// the oracle's ids: refID maps one to the other, and the snapshots, which
// export ids, must agree.
func TestSampledStoreMatchesAppendStore(t *testing.T) {
	cfg := SampleConfig{HeadEvery: 16, SlowOver: 40 * time.Millisecond}
	tr := NewSampled(cfg)
	ref := &appendStore{cfg: cfg, open: map[SpanID]*appendTree{}, seen: map[ProcID]uint64{}}
	next := popgen.NewRand(7).Intn
	procs := make([]ProcID, 6)
	for i := range procs {
		procs[i] = ProcID{Name: "client", PID: uint32(i+1)<<16 | 1, Host: string(rune('a' + i))}
	}
	var at int64
	refID := map[SpanID]SpanID{}
	start := func(parent SpanID, kind Kind, who ProcID) SpanID {
		at += int64(next(3)) * int64(time.Millisecond)
		id := tr.Start(parent, kind, "n", time.Duration(at), who)
		if _, dup := refID[id]; dup {
			t.Fatalf("handle %#x handed out twice", id)
		}
		refID[id] = ref.start(refID[parent], kind, "n", at, who)
		return id
	}
	fail := func(id SpanID, class string) {
		tr.Fail(id, time.Duration(at), class)
		ref.fail(refID[id], at, class)
	}
	compare := func(when string) {
		t.Helper()
		if got, want := tr.Snapshot(), ref.snapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: snapshots differ (%d spans, oracle %d)", when, len(got), len(want))
		}
		if held(tr) != len(ref.snapshot()) || tr.RootsRetained() != ref.rootsRetained || tr.RootsSeen() != ref.rootsSeen {
			t.Fatalf("%s: Len %d RootsRetained %d RootsSeen %d, oracle %d %d %d", when, held(tr),
				tr.RootsRetained(), tr.RootsSeen(), len(ref.snapshot()), ref.rootsRetained, ref.rootsSeen)
		}
	}
	var leaked, retired []SpanID
	for root := 0; root < 10_000; root++ {
		who := procs[next(len(procs))]
		ids := []SpanID{start(0, KindClientOp, who)}
		for n := next(6); n > 0; n-- {
			ids = append(ids, start(ids[next(len(ids))], KindSend, who))
		}
		switch next(40) {
		case 0: // a child of a subtree that stays open, perhaps from long ago
			if len(leaked) > 0 {
				ids = append(ids, start(leaked[next(len(leaked))], KindLease, who))
			}
		case 1: // a child of a retired subtree starts one of its own
			if len(retired) > 0 {
				ids = append(ids, start(retired[next(len(retired))], KindReply, who))
			}
		case 2: // late words about a retired span are dropped
			if len(retired) > 0 {
				id := retired[next(len(retired))]
				tr.SetGroup(id)
				fail(id, "late")
			}
		case 3:
			at += int64(50 * time.Millisecond) // a slow root
		}
		tr.SetGroup(ids[len(ids)-1])
		ref.span(refID[ids[len(ids)-1]]).Group = true
		for i := len(ids) - 1; i >= 0; i-- {
			class := ""
			if next(60) == 0 {
				class = "timeout"
			}
			if i > 0 && next(500) == 0 {
				leaked = append(leaked, ids[i]) // never ended
				continue
			}
			fail(ids[i], class)
		}
		if ref.open[refID[ids[0]]] == nil {
			retired = append(retired, ids[next(len(ids))])
		}
		if root%2500 == 1234 {
			compare("mid-run")
		}
	}
	if len(leaked) == 0 || ref.rootsRetained == ref.rootsSeen || ref.nextID < 4096 {
		t.Fatalf("the schedule lost its point: %d leaked, %d of %d roots kept, %d spans", len(leaked), ref.rootsRetained, ref.rootsSeen, ref.nextID)
	}
	compare("end")
}
