package trace

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/raceflag"
	"repro/internal/vtime"
)

// oneOp records a minimal root subtree (client-op → send → wire+reply)
// on the sampled tracer and returns the root id. dur sets the root
// length; class, when non-empty, fails the send span.
func oneOp(t *Tracer, proc string, start, dur vtime.Time, class string) SpanID {
	who := ProcID{Name: proc, PID: 1, Host: "ws"}
	srv := ProcID{Name: "srv", PID: 2, Host: "fs"}
	root := t.Start(0, KindClientOp, "op", start, who)
	send := t.Start(root, KindSend, "send", start, who)
	t.Wire(send, "request", start, 100*time.Microsecond, 32, netsim.HopDetail{Packets: 1}, false, false)
	if class == "" {
		rep := t.Start(send, KindReply, "reply", start+dur/4, srv)
		t.End(rep, start+dur/4)
	}
	t.Fail(send, start+dur/2, class)
	t.End(root, start+dur)
	return root
}

// held is how many spans the tracer holds: retained, or in open subtrees.
func held(tr *Tracer) int {
	n, _ := openSpans(tr)
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.retained.n + n
}

// openSpans is how many spans the open subtrees hold, and how many
// subtrees are open.
func openSpans(tr *Tracer) (spans, subtrees int) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for _, st := range *tr.slots.Load() {
		if st.live {
			for i := range st.spans {
				spans++
				if st.spans[i].flags&spanWire != 0 {
					spans++
				}
			}
			subtrees++
		}
	}
	return spans, subtrees
}

func TestSampledHeadSampling(t *testing.T) {
	tr := NewSampled(SampleConfig{HeadEvery: 4})
	at := vtime.Time(0)
	for i := 0; i < 10; i++ {
		oneOp(tr, "ws-a", at, time.Millisecond, "")
		at += 10 * time.Millisecond
	}
	if got := tr.RootsSeen(); got != 10 {
		t.Fatalf("RootsSeen = %d, want 10", got)
	}
	// Roots 0, 4 and 8 are head-retained.
	if got := tr.RootsRetained(); got != 3 {
		t.Fatalf("RootsRetained = %d, want 3", got)
	}
	spans := tr.Snapshot()
	if len(spans) != 12 { // 3 roots × (client-op + send + wire + reply)
		t.Fatalf("retained %d spans, want 12", len(spans))
	}
	// Every retained subtree is complete: parents resolve.
	ids := make(map[SpanID]bool, len(spans))
	for _, sp := range spans {
		ids[sp.ID] = true
	}
	for _, sp := range spans {
		if sp.Parent != 0 && !ids[sp.Parent] {
			t.Fatalf("span %d retained without parent %d", sp.ID, sp.Parent)
		}
		if sp.Incomplete {
			t.Fatalf("span %d retained incomplete", sp.ID)
		}
	}
}

func TestSampledHeadCountersPerLane(t *testing.T) {
	tr := NewSampled(SampleConfig{HeadEvery: 2})
	// Interleave two lanes; each lane's first and third ops are kept.
	for i := 0; i < 4; i++ {
		oneOp(tr, "ws-a", vtime.Time(i)*time.Millisecond, 100*time.Microsecond, "")
		oneOp(tr, "ws-b", vtime.Time(i)*time.Millisecond, 100*time.Microsecond, "")
	}
	if got := tr.RootsRetained(); got != 4 {
		t.Fatalf("RootsRetained = %d, want 2 per lane", got)
	}
}

func TestSampledTailKeepsFailures(t *testing.T) {
	tr := NewSampled(SampleConfig{HeadEvery: 1000})
	oneOp(tr, "ws-a", 0, time.Millisecond, "")                  // head-kept (first)
	oneOp(tr, "ws-a", time.Second, time.Millisecond, "timeout") // anomaly
	oneOp(tr, "ws-a", 2*time.Second, time.Millisecond, "")      // dropped
	if got := tr.RootsRetained(); got != 2 {
		t.Fatalf("RootsRetained = %d, want 2 (head + failed)", got)
	}
	var sawErr bool
	for _, sp := range tr.Snapshot() {
		if sp.Err == "timeout" {
			sawErr = true
		}
	}
	if !sawErr {
		t.Fatalf("failed span not retained in full")
	}
}

func TestSampledTailKeepsSlow(t *testing.T) {
	tr := NewSampled(SampleConfig{HeadEvery: 1000, SlowOver: 5 * time.Millisecond})
	oneOp(tr, "ws-a", 0, time.Millisecond, "")               // head-kept
	oneOp(tr, "ws-a", time.Second, time.Millisecond, "")     // fast: dropped
	oneOp(tr, "ws-a", 2*time.Second, 8*time.Millisecond, "") // slow: kept
	if got := tr.RootsRetained(); got != 2 {
		t.Fatalf("RootsRetained = %d, want 2 (head + slow)", got)
	}
}

func TestSampledMemoryBounded(t *testing.T) {
	tr := NewSampled(SampleConfig{HeadEvery: 100})
	for i := 0; i < 1000; i++ {
		oneOp(tr, "ws-a", vtime.Time(i)*time.Millisecond, 100*time.Microsecond, "")
	}
	// 10 head-retained roots × 4 spans; nothing else lingers.
	if got := held(tr); got != 40 {
		t.Fatalf("Len = %d, want 40 — discarded subtrees still resident", got)
	}
	// Every subtree retired, and one recycled slab served all thousand
	// roots.
	if n, open := openSpans(tr); n != 0 || open != 0 || len(tr.free) != 1 {
		t.Fatalf("open-subtree storage not drained: %d open spans in %d subtrees, %d slabs", n, open, len(tr.free))
	}
}

// TestSampledDropsFrames: the frame log is O(packets), so only a tracer
// that retains every root keeps it.
func TestSampledDropsFrames(t *testing.T) {
	for _, c := range []struct {
		tr   *Tracer
		want int
	}{{New(), 1}, {NewSampled(SampleConfig{}), 1}, {NewSampled(SampleConfig{HeadEvery: 2}), 0}} {
		c.tr.RecordFrame(netsim.FrameEvent{Bytes: 64})
		if got := len(c.tr.Frames()); got != c.want {
			t.Fatalf("HeadEvery %d kept %d frames, want %d", c.tr.cfg.HeadEvery, got, c.want)
		}
	}
}

func TestSampledAnnotationsAfterRetireAreNoOps(t *testing.T) {
	tr := NewSampled(SampleConfig{HeadEvery: 1})
	root := oneOp(tr, "ws-a", 0, time.Millisecond, "")
	// The subtree is retired; late annotations must not panic or mutate.
	tr.SetGroup(root)
	tr.Fail(root, 2*time.Second, "late")
	for _, sp := range tr.Snapshot() {
		if sp.ID == root && (sp.Group || sp.Err == "late") {
			t.Fatalf("retired span mutated: %+v", sp)
		}
	}
}

// TestRetiredHandlesChangeNothing: the handles of a retired subtree —
// its root's, and a span's deep inside — match nothing once the subtree
// has retired, even after its slot holds the next root: annotations are
// dropped, leaving every kept span as it was, and a child started under
// one begins a root of its own.
func TestRetiredHandlesChangeNothing(t *testing.T) {
	tr := NewSampled(SampleConfig{HeadEvery: 1})
	cl, srv := ProcID{Name: "client", PID: 1, Host: "ws"}, ProcID{Name: "srv", PID: 2, Host: "fs"}
	root := tr.Start(0, KindClientOp, "op", 0, cl)
	send := tr.Start(root, KindSend, "send", 0, cl)
	tr.End(tr.Start(send, KindReply, "reply", 1, srv), 1)
	tr.End(send, 2)
	tr.End(root, 2)
	oneOp(tr, "ws-a", time.Second, time.Millisecond, "") // reuses the slot
	kept := tr.Snapshot()
	for _, h := range []SpanID{root, send} {
		tr.SetGroup(h)
		tr.Fail(h, 2*time.Second, "late")
		tr.End(h, 3*time.Second)
	}
	child := tr.Start(send, KindReply, "late reply", 2*time.Second, srv)
	tr.End(child, 2*time.Second)
	spans := tr.Snapshot()
	if !reflect.DeepEqual(spans[:len(kept)], kept) {
		t.Fatalf("late annotations changed retained spans")
	}
	if late := spans[len(kept):]; len(late) != 1 || late[0].Parent != 0 || late[0].Name != "late reply" {
		t.Fatalf("a child of a retired span was kept as %+v, want a root of its own", late)
	}
}

// TestFullModeUnchanged: New is the store retaining every root, so it
// keeps every span of every operation, in id order, and the frame log.
func TestFullModeUnchanged(t *testing.T) {
	tr := New()
	var ids []SpanID
	for i := 0; i < 3; i++ {
		ids = append(ids, oneOp(tr, "ws-a", vtime.Time(i)*time.Millisecond, time.Millisecond, ""))
	}
	spans := tr.Snapshot()
	if held(tr) != 12 || len(spans) != 12 || tr.RootsRetained() != 3 {
		t.Fatalf("Len %d, %d spans, %d roots kept; want 12, 12, 3", held(tr), len(spans), tr.RootsRetained())
	}
	for i, sp := range spans {
		if sp.ID != SpanID(i+1) {
			t.Fatalf("span %d has id %d", i, sp.ID)
		}
	}
	if sp := spans[8]; sp.Kind != KindClientOp || sp.Parent != 0 {
		t.Fatalf("third root is span %+v, want id 9", sp)
	}
	if ids[2] == ids[0] {
		t.Fatalf("a retired root's handle was handed out again: %d", ids[2])
	}
	tr.RecordFrame(netsim.FrameEvent{Bytes: 64})
	if len(tr.Frames()) != 1 {
		t.Fatalf("full tracer dropped a frame")
	}
}

func TestSampledCheckPasses(t *testing.T) {
	tr := NewSampled(SampleConfig{HeadEvery: 3})
	for i := 0; i < 9; i++ {
		oneOp(tr, "ws-a", vtime.Time(i)*10*time.Millisecond, time.Millisecond, "")
	}
	// Retained subtrees are complete, so the checker's parent and
	// containment invariants hold without special-casing.
	if err := Check(tr.Snapshot(), CheckOptions{Model: vtime.DefaultModel()}); err != nil {
		t.Fatalf("Check on sampled trace: %v", err)
	}
}

// TestSampledKeysHeadCountByProcess pins SampleConfig's "per process":
// two processes with one name on different hosts each get their own
// root counter, so which roots are kept does not depend on how their
// lanes interleave.
func TestSampledKeysHeadCountByProcess(t *testing.T) {
	a := ProcID{Name: "client", PID: 1<<16 | 1, Host: "ws0"}
	b := ProcID{Name: "client", PID: 2<<16 | 1, Host: "ws1"}
	orders := [][]ProcID{
		{a, b, a, b, a, b, a, b},
		{a, a, a, a, b, b, b, b},
		{b, a, a, b, b, a, b, a},
	}
	for _, order := range orders {
		tr := NewSampled(SampleConfig{HeadEvery: 2})
		nth := map[ProcID]int{}
		for _, who := range order {
			// The root's start time records which of its process's roots it is.
			id := tr.Start(0, KindClientOp, "op", vtime.Time(nth[who]), who)
			tr.End(id, vtime.Time(nth[who]))
			nth[who]++
		}
		kept := map[ProcID][]int64{}
		for _, sp := range tr.Snapshot() {
			who := ProcID{Name: sp.Proc, PID: sp.PID, Host: sp.Host}
			kept[who] = append(kept[who], sp.Start)
		}
		for _, who := range []ProcID{a, b} {
			if got := kept[who]; len(got) != 2 || got[0] != 0 || got[1] != 2 {
				t.Fatalf("order %v: %s on %s kept roots %v, want its 1st and 3rd", order, who.Name, who.Host, got)
			}
		}
	}
}

// TestSampledDroppedRootZeroAlloc pins what a discarded operation costs:
// once the slabs and the index have grown, a whole client-op → send →
// wire → serve → lease → reply subtree that head sampling drops
// allocates nothing and renders no name.
func TestSampledDroppedRootZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("AllocsPerRun counts the race detector's own allocations")
	}
	rendered := 0
	pid := func(uint32) string { rendered++; return "pid(1.2)" }
	cl := ProcID{Name: "client", PID: 1<<16 | 2, Host: "ws"}
	srv := ProcID{Name: "prefix", PID: 2<<16 | 1, Host: "pfx"}
	tr := NewSampled(SampleConfig{HeadEvery: 1 << 30, SlowOver: time.Second})
	at := vtime.Time(0)
	op := func() {
		at += time.Millisecond
		root := tr.Start(0, KindClientOp, "[home]notes", at, cl)
		send := tr.StartName(root, KindSend, Name{Head: "MapContext", Sep: " -> ", Render: pid, Arg: srv.PID}, at, cl)
		tr.Wire(send, "request", at, 100*time.Microsecond, 64, netsim.HopDetail{Packets: 1}, false, false)
		serve := tr.Start(send, KindServe, "MapContext", at, srv)
		tr.Lease(serve, Name{Head: "grant", Sep: " ", Tail: "[home]notes"}, at, srv, at, at+time.Second)
		reply := tr.StartName(serve, KindReply, Name{Head: "OK", Sep: " -> ", Render: pid, Arg: cl.PID}, at, srv)
		tr.Wire(reply, "reply", at, 100*time.Microsecond, 64, netsim.HopDetail{Packets: 1}, false, false)
		tr.End(reply, at)
		tr.End(serve, at)
		tr.End(send, at)
		tr.End(root, at)
	}
	op() // the first root of a process is always kept
	kept, names := held(tr), rendered
	if kept != 7 || names != 2 {
		t.Fatalf("head-kept root: %d spans, %d names rendered, want 7 and 2", kept, names)
	}
	op() // grows the recycled slab to the subtree's size
	if allocs := testing.AllocsPerRun(1000, op); allocs != 0 {
		t.Fatalf("a dropped subtree allocates %.1f times, want 0", allocs)
	}
	if held(tr) != kept || rendered != names {
		t.Fatalf("dropped subtrees left %d spans and rendered %d names", held(tr)-kept, rendered-names)
	}
}

// TestGroupSubtreeWrittenByMembers: a group send's members write its
// subtree from their own goroutines, and one of them is still writing
// when the sender, unblocked by the first reply, has ended the root. The
// group mark puts every write under the subtree's lock (the race
// detector holds it to that), and the subtree retires only when that
// last member is done: retained complete, and protocol-clean.
func TestGroupSubtreeWrittenByMembers(t *testing.T) {
	const members = 6
	tr := New()
	cl := ProcID{Name: "client", PID: 1<<16 | 1, Host: "ws"}
	root := tr.Start(0, KindClientOp, "op", 0, cl)
	send := tr.StartGroup(root, KindSend, Name{Head: "Query", Sep: " -> ", Tail: "group(1)"}, 0, cl)
	tr.Wire(send, "multicast", 0, time.Millisecond, 64, netsim.HopDetail{Packets: 1}, false, true)
	var opened sync.WaitGroup
	opened.Add(members)
	replied := make(chan struct{}, members)
	rootEnded := make(chan struct{})
	var done sync.WaitGroup
	done.Add(members)
	for m := 0; m < members; m++ {
		go func(m int) {
			defer done.Done()
			who := ProcID{Name: "member", PID: uint32(m+2) << 16, Host: "fs"}
			at := vtime.Time(m+1) * vtime.Time(time.Millisecond)
			serve := tr.Start(send, KindServe, "Query", at, who)
			opened.Done()
			if m == members-1 {
				<-rootEnded // the late member
			}
			tr.Lease(serve, Name{Head: "hit", Sep: " ", Tail: "[home]"}, at, who, 0, at+time.Second)
			tr.Transfer(serve, KindReply, Name{Head: "OK"}, at, who,
				Hop{Name: "reply", Start: at, Dur: time.Millisecond, Bytes: 32, Detail: netsim.HopDetail{Packets: 1}}, at+vtime.Time(time.Millisecond))
			tr.End(serve, at+vtime.Time(time.Millisecond))
			replied <- struct{}{}
		}(m)
	}
	opened.Wait()
	<-replied // the first reply unblocks the sender
	tr.End(send, 10*time.Millisecond)
	tr.End(root, 10*time.Millisecond)
	close(rootEnded)
	done.Wait()

	if n, open := openSpans(tr); n != 0 || open != 0 {
		t.Fatalf("%d spans in %d subtrees still open after every member ended", n, open)
	}
	spans := tr.Snapshot()
	if want := 3 + members*4; len(spans) != want || tr.RootsRetained() != 1 {
		t.Fatalf("retained %d spans in %d roots, want %d in 1", len(spans), tr.RootsRetained(), want)
	}
	for _, sp := range spans {
		if sp.Parent == 0 && sp.Kind != KindClientOp {
			t.Fatalf("span %+v started a root of its own", sp)
		}
	}
	if err := Check(spans, CheckOptions{Model: vtime.DefaultModel()}); err != nil {
		t.Fatalf("Check: %v", err)
	}
}
