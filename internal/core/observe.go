package core

import (
	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/proto"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// ServeSeries is a server's series, kept by the server and read by its
// domain's registry: serve_latency of the requests it answers, whose
// count is server_requests_total, server_failures_total of those it
// answers with a failure and server_forwarded_total of those it passes
// on, each by op and made at its op's first event while a registry is
// installed; and server_handoffs_total, its team's handoffs. The
// server's name is the label they carry.
type ServeSeries struct {
	server            string
	answered          metrics.PerOp[metrics.Histogram]
	failed, forwarded metrics.PerOp[metrics.Counter]
	handoffs          *metrics.Counter
}

// NewServeSeries returns server's series, added to k's catalogue.
func NewServeSeries(k *kernel.Kernel, server string) *ServeSeries {
	ss := &ServeSeries{server: server, handoffs: k.NewCounter("server_handoffs_total", metrics.Labels{Server: server})}
	k.AddSeries(ss.read)
	return ss
}

func (ss *ServeSeries) read(r *metrics.Reading) {
	ss.answered.Each(func(op uint16, h *metrics.Histogram) {
		l := metrics.Labels{Server: ss.server, Op: proto.Code(op).String()}
		r.Histogram("serve_latency", l, h, false)
		r.Counter("server_requests_total", l, h.Count(), false)
	})
	ss.failed.Each(func(op uint16, c *metrics.Counter) {
		r.Counter("server_failures_total", metrics.Labels{Server: ss.server, Op: proto.Code(op).String()}, c.Value(), false)
	})
	ss.forwarded.Each(func(op uint16, c *metrics.Counter) {
		r.Counter("server_forwarded_total", metrics.Labels{Server: ss.server, Op: proto.Code(op).String()}, c.Value(), false)
	})
}

// Forwarded counts one request of op that p passes on to another server.
// Callers count before the Forward delivers: the terminal server may
// serve and unblock the client before the forwarder runs again.
func (ss *ServeSeries) Forwarded(p *kernel.Process, op proto.Code) {
	if p.Kernel().Metrics() != nil {
		ss.forwarded.Get(uint16(op)).Inc()
	}
}

// Serving is one request under observation, from the moment its serving
// process p took it to the Reply or hand-on that ends p's part in it: the
// KindServe span, which is p's current span while open so the kernel
// primitives p invokes nest under it, and the serve series. Observation
// charges zero virtual time.
type Serving struct {
	p     *kernel.Process
	tr    *trace.Tracer
	span  trace.SpanID
	op    proto.Code
	from  kernel.PID
	start vtime.Time
}

// BeginServe starts observing p's service of msg, received from from.
func BeginServe(p *kernel.Process, msg *proto.Message, from kernel.PID) Serving {
	sv := Serving{p: p, tr: p.Tracer(), op: msg.Op, from: from, start: p.Now()}
	if sv.tr != nil {
		sv.span = sv.tr.Start(p.ServedSpan(), trace.KindServe, msg.Op.String(), sv.start, p.TraceID())
		p.SetCurrentSpan(sv.span)
	}
	return sv
}

// Passed ends the observation of a request p does not answer: it was
// forwarded, or the handler replied itself.
func (sv Serving) Passed() {
	if sv.tr != nil {
		sv.tr.End(sv.span, sv.p.Now())
		sv.p.SetCurrentSpan(0)
	}
}

// Reply answers the request. The serve span takes the reply's failure
// class — the code's name, which the reply path otherwise swallows — and
// ends before the Reply unblocks the client, so a snapshot taken the
// moment the client resumes never sees a half-open serve. series, if
// non-nil, records the request before it for the same reason, and only
// here: a forwarded request is recorded by the server that answers it.
// An end-of-file answer is how a read learns where the object ends, so it
// counts as no failure, though its span carries the class.
func (sv Serving) Reply(reply *proto.Message, series *ServeSeries) {
	p, class := sv.p, ""
	if reply.Op != proto.ReplyOK {
		class = reply.Op.String()
	}
	if sv.tr != nil {
		sv.tr.Fail(sv.span, p.Now(), class)
	}
	if series != nil && p.Kernel().Metrics() != nil {
		series.answered.Get(uint16(sv.op)).Record(p.Now() - sv.start)
		if class != "" && reply.Op != proto.ReplyEndOfFile {
			series.failed.Get(uint16(sv.op)).Inc()
		}
	}
	// A failed reply means the sender died or became unreachable; the
	// transaction is already failed on the sender side (and the reply
	// span carries the transport failure classification).
	_ = p.Reply(reply, sv.from)
	if sv.tr != nil {
		p.SetCurrentSpan(0)
	}
}
