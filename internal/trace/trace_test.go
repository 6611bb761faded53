package trace

import (
	"encoding/json"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/vtime"
)

var who = ProcID{Name: "p", PID: 7, Host: "h"}

// okTransaction records a minimal clean transaction: send → request
// wire → serve → reply → reply wire.
func okTransaction(t *Tracer, at vtime.Time) SpanID {
	send := t.Start(0, KindSend, "Read -> pid(1.2)", at, who)
	t.Wire(send, "request", at, time.Millisecond, 32, netsim.HopDetail{Packets: 1}, false, false)
	serve := t.Start(send, KindServe, "Read", at+vtime.Time(time.Millisecond), ProcID{Name: "srv", PID: 9, Host: "fs"})
	rep := t.Start(serve, KindReply, "Read -> pid(1.1)", at+vtime.Time(time.Millisecond), ProcID{Name: "srv", PID: 9, Host: "fs"})
	t.Wire(rep, "reply", at+vtime.Time(time.Millisecond), time.Millisecond, 32, netsim.HopDetail{Packets: 1}, false, false)
	t.End(rep, at+vtime.Time(2*time.Millisecond))
	t.End(serve, at+vtime.Time(2*time.Millisecond))
	t.End(send, at+vtime.Time(2*time.Millisecond))
	return send
}

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	if id := tr.Start(0, KindSend, "x", 0, who); id != 0 {
		t.Fatalf("nil tracer allocated span %d", id)
	}
	tr.End(1, 0)
	tr.Fail(1, 0, "error")
	tr.SetGroup(1)
	tr.Lease(0, Name{}, 0, who, 1, 2)
	tr.RecordFrame(netsim.FrameEvent{})
	if tr.Snapshot() != nil || tr.Frames() != nil {
		t.Fatal("nil tracer recorded something")
	}
}

// TestSpanIDsDenseAndOrdered: the ids a trace exports are dense from 1
// in creation order, across roots and their children alike, and each
// child names its parent's exported id — whatever handles the recording
// calls returned.
func TestSpanIDsDenseAndOrdered(t *testing.T) {
	tr := New()
	for i := 1; i <= 5; i++ {
		root := tr.Start(0, KindSend, "s", 0, who)
		tr.End(tr.Start(root, KindServe, "c", 0, who), 0)
	}
	spans := tr.Snapshot()
	if len(spans) != 10 {
		t.Fatalf("%d spans, want 10", len(spans))
	}
	for i, sp := range spans {
		if int(sp.ID) != i+1 {
			t.Fatalf("span %d exported id %d", i+1, sp.ID)
		}
		want := SpanID(0) // a root
		if i%2 == 1 {
			want = sp.ID - 1
		}
		if sp.Parent != want {
			t.Fatalf("span %d has parent %d, want %d", sp.ID, sp.Parent, want)
		}
	}
}

func TestFailFirstWins(t *testing.T) {
	tr := New()
	id := tr.Start(0, KindSend, "s", 0, who)
	tr.Fail(id, 10, "host-down")
	tr.End(id, 20) // must not overwrite the classification
	sp := tr.Snapshot()[0]
	if sp.Err != "host-down" || sp.End != 10 {
		t.Fatalf("second close overwrote the first: %+v", sp)
	}
}

func TestSnapshotMarksLeaks(t *testing.T) {
	tr := New()
	tr.Start(0, KindSend, "s", 0, who)
	if sp := tr.Snapshot()[0]; !sp.Incomplete {
		t.Fatal("unended span not marked Incomplete")
	}
	if err := Check(tr.Snapshot(), CheckOptions{Model: vtime.DefaultModel()}); err == nil || !strings.Contains(err.Error(), "never ended") {
		t.Fatalf("Check accepted a leaked span: %v", err)
	}
}

// TestCheckRequiresModel: no caller can skip the wire accounting (#6) by
// leaving the cost model out; a nil Model fails even a clean trace.
func TestCheckRequiresModel(t *testing.T) {
	tr := New()
	okTransaction(tr, 0)
	if err := Check(tr.Snapshot(), CheckOptions{}); err == nil || !strings.Contains(err.Error(), "cost model") {
		t.Fatalf("Check without a model = %v, want an error naming the cost model", err)
	}
}

func TestCheckCleanTransaction(t *testing.T) {
	tr := New()
	okTransaction(tr, 0)
	if err := Check(tr.Snapshot(), CheckOptions{Model: vtime.DefaultModel()}); err != nil {
		t.Fatal(err)
	}
}

func TestCheckRejectsUnknownParent(t *testing.T) {
	spans := []Span{{ID: 1, Parent: 99, Kind: KindServe, ended: true}}
	if err := Check(spans, CheckOptions{Model: vtime.DefaultModel()}); err == nil || !strings.Contains(err.Error(), "unknown parent") {
		t.Fatalf("err = %v", err)
	}
}

func TestCheckRejectsMissingReply(t *testing.T) {
	tr := New()
	send := tr.Start(0, KindSend, "s", 0, who)
	tr.End(send, 10) // successful send with no reply span
	if err := Check(tr.Snapshot(), CheckOptions{Model: vtime.DefaultModel()}); err == nil || !strings.Contains(err.Error(), "0 successful replies") {
		t.Fatalf("err = %v", err)
	}
}

func TestCheckRejectsDuplicateReply(t *testing.T) {
	tr := New()
	send := tr.Start(0, KindSend, "s", 0, who)
	for i := 0; i < 2; i++ {
		rep := tr.Start(send, KindReply, "r", 0, who)
		tr.End(rep, 5)
	}
	tr.End(send, 10)
	if err := Check(tr.Snapshot(), CheckOptions{Model: vtime.DefaultModel()}); err == nil || !strings.Contains(err.Error(), "2 successful replies") {
		t.Fatalf("err = %v", err)
	}
}

func TestCheckGroupSendAllowsManyReplies(t *testing.T) {
	tr := New()
	send := tr.Start(0, KindSend, "s -> group", 0, who)
	tr.SetGroup(send)
	for i := 0; i < 3; i++ {
		rep := tr.Start(send, KindReply, "r", 0, who)
		tr.End(rep, 5)
	}
	tr.End(send, 10)
	if err := Check(tr.Snapshot(), CheckOptions{Model: vtime.DefaultModel()}); err != nil {
		t.Fatal(err)
	}
}

func TestCheckGroupFlagOnForwardRelaxesToo(t *testing.T) {
	// A plain send forwarded to a group: first-reply-wins still lets the
	// other members reply, so >1 reply is legal once any hop is a group.
	tr := New()
	send := tr.Start(0, KindSend, "s", 0, who)
	fwd := tr.Start(send, KindForward, "f -> group", 0, who)
	tr.SetGroup(fwd)
	tr.End(fwd, 2)
	for i := 0; i < 2; i++ {
		rep := tr.Start(fwd, KindReply, "r", 0, who)
		tr.End(rep, 5)
	}
	tr.End(send, 10)
	if err := Check(tr.Snapshot(), CheckOptions{Model: vtime.DefaultModel()}); err != nil {
		t.Fatal(err)
	}
}

func TestCheckFailedSendNeedsNoReply(t *testing.T) {
	tr := New()
	send := tr.Start(0, KindSend, "s", 0, who)
	tr.Fail(send, 10, "host-down")
	if err := Check(tr.Snapshot(), CheckOptions{Model: vtime.DefaultModel()}); err != nil {
		t.Fatal(err)
	}
}

func TestCheckNestedSendIsSeparateTransaction(t *testing.T) {
	// A server that sends its own request mid-serve (e.g. GetPid or a
	// nested lookup): the inner transaction's reply must not satisfy the
	// outer send's termination.
	tr := New()
	outer := tr.Start(0, KindSend, "outer", 0, who)
	serve := tr.Start(outer, KindServe, "serve", 1, who)
	inner := tr.Start(serve, KindSend, "inner", 1, who)
	innerRep := tr.Start(inner, KindReply, "r", 2, who)
	tr.End(innerRep, 3)
	tr.End(inner, 3)
	tr.End(serve, 4)
	tr.End(outer, 5) // outer has no reply of its own
	if err := Check(tr.Snapshot(), CheckOptions{Model: vtime.DefaultModel()}); err == nil || !strings.Contains(err.Error(), "0 successful replies") {
		t.Fatalf("err = %v", err)
	}
}

func TestCheckRejectsForwardLoop(t *testing.T) {
	tr := New()
	send := tr.Start(0, KindSend, "s", 0, who)
	parent := send
	for i := 0; i < 5; i++ {
		f := tr.Start(parent, KindForward, "f", 0, who)
		tr.End(f, 1)
		parent = f
	}
	rep := tr.Start(parent, KindReply, "r", 1, who)
	tr.End(rep, 2)
	tr.End(send, 3)
	if err := Check(tr.Snapshot(), CheckOptions{Model: vtime.DefaultModel(), MaxForwardDepth: 3}); err == nil || !strings.Contains(err.Error(), "forward chain") {
		t.Fatalf("err = %v", err)
	}
	if err := Check(tr.Snapshot(), CheckOptions{Model: vtime.DefaultModel(), MaxForwardDepth: 5}); err != nil {
		t.Fatalf("depth-5 chain rejected at limit 5: %v", err)
	}
}

func TestCheckRejectsBackwardsClock(t *testing.T) {
	tr := New()
	a := tr.Start(0, KindServe, "a", 100, who)
	tr.End(a, 200)
	b := tr.Start(0, KindServe, "b", 50, who) // same process, earlier start
	tr.End(b, 60)
	if err := Check(tr.Snapshot(), CheckOptions{Model: vtime.DefaultModel()}); err == nil || !strings.Contains(err.Error(), "ran backwards") {
		t.Fatalf("err = %v", err)
	}
}

func TestCheckRejectsEndBeforeStart(t *testing.T) {
	tr := New()
	a := tr.Start(0, KindServe, "a", 100, who)
	tr.End(a, 90)
	if err := Check(tr.Snapshot(), CheckOptions{Model: vtime.DefaultModel()}); err == nil || !strings.Contains(err.Error(), "before it starts") {
		t.Fatalf("err = %v", err)
	}
}

func TestCheckWirePacketAccounting(t *testing.T) {
	model := vtime.DefaultModel()
	tr := New()
	send := tr.Start(0, KindSend, "s", 0, who)
	// 1300 bytes fragments into ceil(1300/512) = 3 packets; claim 1.
	tr.Wire(send, "request", 0, time.Millisecond, 1300, netsim.HopDetail{Packets: 1}, false, false)
	rep := tr.Start(send, KindReply, "r", 1, who)
	tr.End(rep, 2)
	tr.End(send, 3)
	if err := Check(tr.Snapshot(), CheckOptions{Model: model}); err == nil || !strings.Contains(err.Error(), "cost model says 3") {
		t.Fatalf("err = %v", err)
	}
}

func TestCheckLocalWireCarriesNoPackets(t *testing.T) {
	model := vtime.DefaultModel()
	tr := New()
	send := tr.Start(0, KindSend, "s", 0, who)
	tr.Wire(send, "request", 0, time.Microsecond, 32, netsim.HopDetail{}, true, false)
	rep := tr.Start(send, KindReply, "r", 1, who)
	tr.End(rep, 2)
	tr.End(send, 3)
	if err := Check(tr.Snapshot(), CheckOptions{Model: model}); err != nil {
		t.Fatal(err)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	tr := New()
	okTransaction(tr, 0)
	tr.RecordFrame(netsim.FrameEvent{Src: 1, Dst: 2, Cast: "unicast", Bytes: 32, Packets: 1, Latency: time.Millisecond})
	data, err := tr.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc Document
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Version != 1 || len(doc.Spans) != len(tr.Snapshot()) || len(doc.Frames) != 1 {
		t.Fatalf("round trip lost data: %+v", doc)
	}
}

func TestEmptyTracerJSONHasEmptyArrays(t *testing.T) {
	data, err := New().JSON()
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	if !strings.Contains(s, `"spans": []`) || !strings.Contains(s, `"frames": []`) {
		t.Fatalf("empty trace rendered null arrays:\n%s", s)
	}
}

// TestNameRendersAsConcatenation pins the lazy names to the strings the
// call sites used to build eagerly.
func TestNameRendersAsConcatenation(t *testing.T) {
	worker := func(n uint32) string { return "w" + strconv.Itoa(int(n)) }
	for _, c := range []struct {
		name Name
		want string
	}{
		{Name{Head: "MapContext"}, "MapContext"},
		{Name{Head: "handoff", Sep: " -> ", Tail: "w"}, "handoff -> w"},
		{Name{Head: "grant", Sep: " ", Tail: "[p]"}, "grant [p]"},
		{Name{Head: "replica:", Tail: "Append"}, "replica:Append"},
		{Name{Head: "Query", Sep: " ->* ", Render: worker, Arg: 7}, "Query ->* w7"},
		{Name{}, ""},
	} {
		if got := c.name.String(); got != c.want {
			t.Errorf("%+v renders %q, want %q", c.name, got, c.want)
		}
	}
	// A kept span renders the same name from the parts.
	tr := New()
	id := tr.StartName(0, KindHandoff, Name{Head: "handoff", Sep: " -> ", Tail: "w"}, 0, ProcID{})
	tr.End(id, 1)
	if got := tr.Snapshot()[0].Name; got != "handoff -> w" {
		t.Errorf("span named %q", got)
	}
}
