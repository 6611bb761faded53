package kernel

import (
	"reflect"
	"testing"

	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/proto"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// serveInPlace serves p with a handler that answers every request with n
// bytes of 'x': written into the sender's granted segment when it holds
// them, else into a buffer of its own. seen records what ReplySegment
// returned before and after each Reply.
func serveInPlace(p *Process, n int, seen *[][2][]byte) {
	p.Serve(func(_ *proto.Message, from PID) {
		seg := p.ReplySegment(from)
		buf := seg
		if len(buf) < n {
			buf = make([]byte, n)
		}
		for i := range buf[:n] {
			buf[i] = 'x'
		}
		reply := proto.NewReply(proto.ReplyOK)
		reply.Segment = buf[:n]
		_ = p.Reply(reply, from)
		*seen = append(*seen, [2][]byte{seg, p.ReplySegment(from)})
	})
}

func TestReplySegmentIsTheSendersSegment(t *testing.T) {
	k := newDomain(t)
	srv := newClient(t, k.NewHost("srv"), "srv")
	var seen [][2][]byte
	serveInPlace(srv, 5, &seen)
	client := newClient(t, k.NewHost("ws"), "client")

	grant := make([]byte, 8)
	reply, err := client.SendMove(&proto.Message{Op: proto.OpEcho}, srv.PID(), nil, grant)
	if err != nil {
		t.Fatal(err)
	}
	if string(grant) != "xxxxx\x00\x00\x00" || &reply.Segment[0] != &grant[0] || len(reply.Segment) != 5 {
		t.Fatalf("reply %q in the grant %q", reply.Segment, grant)
	}
	if len(seen) != 1 || &seen[0][0][0] != &grant[0] || len(seen[0][0]) != len(grant) {
		t.Fatalf("ReplySegment returned %d bytes, not the %d-byte grant", len(seen[0][0]), len(grant))
	}
}

// TestReplySegmentNil: no segment when the sender attached none, for a
// pid with no message pending, and once the handler has replied.
func TestReplySegmentNil(t *testing.T) {
	k := newDomain(t)
	srv := newClient(t, k.NewHost("srv"), "srv")
	var seen [][2][]byte
	serveInPlace(srv, 5, &seen)
	client := newClient(t, k.NewHost("ws"), "client")

	reply, err := client.Send(&proto.Message{Op: proto.OpEcho}, srv.PID())
	if err != nil || string(reply.Segment) != "xxxxx" {
		t.Fatalf("Send = %q, %v", reply.Segment, err)
	}
	if _, err := client.SendMove(&proto.Message{Op: proto.OpEcho}, srv.PID(), nil, make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	if seen[0][0] != nil {
		t.Fatalf("no grant attached, ReplySegment = %d bytes", len(seen[0][0]))
	}
	for i, s := range seen {
		if s[1] != nil {
			t.Fatalf("send %d: after the Reply ReplySegment = %d bytes", i, len(s[1]))
		}
	}
	if seg := srv.ReplySegment(client.PID()); seg != nil {
		t.Fatalf("nothing pending, ReplySegment = %d bytes", len(seg))
	}
}

// TestReplySegmentSurvivesForward: a team's receptionist forwards the
// transaction to a worker, and the worker writes into the segment the
// original sender granted.
func TestReplySegmentSurvivesForward(t *testing.T) {
	k := newDomain(t)
	h := k.NewHost("srv")
	reception, worker := newClient(t, h, "reception"), newClient(t, h, "worker")
	var seen [][2][]byte
	serveInPlace(worker, 6, &seen)
	reception.Serve(func(msg *proto.Message, from PID) {
		_ = reception.Forward(msg, from, worker.PID())
	})
	client := newClient(t, k.NewHost("ws"), "client")

	grant := make([]byte, 6)
	reply, err := client.SendMove(&proto.Message{Op: proto.OpEcho}, reception.PID(), nil, grant)
	if err != nil || string(grant) != "xxxxxx" || &reply.Segment[0] != &grant[0] {
		t.Fatalf("reply %q, grant %q, %v", reply.Segment, grant, err)
	}
}

// TestReplySegmentCostsWhatItsReplyCarries: virtual time cannot tell a
// reply written into the sender's segment from one the handler allocated —
// equal clocks, and reply spans of equal wire bytes.
func TestReplySegmentCostsWhatItsReplyCarries(t *testing.T) {
	run := func(grant bool) (vtime.Time, vtime.Time, []int) {
		net := netsim.New(vtime.DefaultModel(), 1)
		k := New(net)
		tr := trace.New()
		k.SetTracer(tr)
		net.SetRecorder(tr)
		srv := newClient(t, k.NewHost("srv"), "srv")
		var seen [][2][]byte
		serveInPlace(srv, 512, &seen)
		client := newClient(t, k.NewHost("ws"), "client")
		for i := 0; i < 4; i++ {
			var dst []byte
			if grant {
				dst = make([]byte, 512)
			}
			if _, err := client.SendMove(&proto.Message{Op: proto.OpReadInstance}, srv.PID(), nil, dst); err != nil {
				t.Fatal(err)
			}
		}
		var replyBytes []int
		for _, s := range tr.Snapshot() {
			if s.Kind == trace.KindWire && s.Name == "reply" {
				replyBytes = append(replyBytes, s.Bytes)
			}
		}
		return client.Now(), srv.Now(), replyBytes
	}
	c1, s1, b1 := run(false)
	c2, s2, b2 := run(true)
	if c1 != c2 || s1 != s2 {
		t.Fatalf("allocated replies: client %v server %v; in place: client %v server %v", c1, s1, c2, s2)
	}
	if len(b1) != 4 || !reflect.DeepEqual(b1, b2) {
		t.Fatalf("reply wire bytes: allocated %v, in place %v", b1, b2)
	}
}

// TestAnswerInRequest: a handler may answer in the message it received.
// Virtual time cannot tell that from a fresh reply — equal clocks, equal
// span names — and the sender's send_latency series is labelled by the
// request's op, read before the reply landed in it, not by the reply's.
func TestAnswerInRequest(t *testing.T) {
	run := func(inPlace bool) (vtime.Time, vtime.Time, []string, []metrics.HistPoint) {
		k := newDomain(t)
		tr, reg := trace.New(), metrics.New()
		k.SetTracer(tr)
		k.SetMetrics(reg)
		srv := newClient(t, k.NewHost("srv"), "srv")
		srv.Serve(func(msg *proto.Message, from PID) {
			reply := proto.NewReply(proto.ReplyOK)
			if inPlace {
				reply = proto.AnswerIn(msg, proto.ReplyOK)
			}
			reply.F[0] = 42
			_ = srv.Reply(reply, from)
		})
		client := newClient(t, k.NewHost("ws"), "client")
		for i := 0; i < 3; i++ {
			req := &proto.Message{Op: proto.OpMapContext, Segment: []byte("users")}
			reply, err := client.Send(req, srv.PID())
			if err != nil || reply.F[0] != 42 || (reply == req) != inPlace {
				t.Fatalf("in place %v: reply %+v, %v; landed in the request: %v", inPlace, reply, err, reply == req)
			}
		}
		var names []string
		for _, s := range tr.Snapshot() {
			names = append(names, s.Name)
		}
		var lat []metrics.HistPoint
		for _, h := range reg.Snapshot().Histograms {
			if h.Name == "send_latency" {
				lat = append(lat, h)
			}
		}
		return client.Now(), srv.Now(), names, lat
	}
	c1, s1, n1, l1 := run(false)
	c2, s2, n2, l2 := run(true)
	if c1 != c2 || s1 != s2 {
		t.Fatalf("fresh reply: client %v server %v; in place: client %v server %v", c1, s1, c2, s2)
	}
	if !reflect.DeepEqual(n1, n2) {
		t.Fatalf("span names: fresh reply %q, in place %q", n1, n2)
	}
	for _, lat := range [][]metrics.HistPoint{l1, l2} {
		if len(lat) != 1 || lat[0].Labels.Op != "MapContext" || lat[0].Count != 3 {
			t.Fatalf("send_latency series %+v, want one MapContext series of 3", lat)
		}
	}
	if !reflect.DeepEqual(l1, l2) {
		t.Fatalf("send_latency: fresh reply %+v, in place %+v", l1, l2)
	}
}
