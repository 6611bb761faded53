// A12: trace-driven decomposition of the paper's remote message
// transaction, plus the canonical single-client trace `vbench -trace`
// exports. Where E1 reproduces the §3.1 / Figure 1 total (2.56 ms for a
// remote Send-Receive-Reply with 32-byte messages), A12 reads the same
// transaction's *trace* and splits the total into its wire, queueing,
// and serving components — each row is computed from span timestamps,
// not from the cost model directly, so the decomposition doubles as a
// check that the tracer's account of a transaction sums to the clock's.
package experiments

import (
	"fmt"
	"time"

	"repro/internal/kernel"
	"repro/internal/netsim"
	"repro/internal/rig"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// echoTrace is one remote echo transaction as its span tree tells it:
// the send span's total, split at the two wire spans into request hop,
// server dwell and reply hop.
type echoTrace struct {
	total, reqHop, dwell, repHop time.Duration
	reqWire, repWire             trace.Span
}

// traceEcho boots a bare two-host kernel recording into tr, runs one
// 32-byte Send-Receive-Reply transaction against an echo server on the
// other host, and reads the decomposition off the span tree.
func traceEcho(tr *trace.Tracer) (echoTrace, error) {
	var et echoTrace
	net := netsim.New(vtime.DefaultModel(), 1)
	k := kernel.New(net)
	k.SetTracer(tr)
	net.SetRecorder(tr)

	echo, err := startEcho(k.NewHost("fileserver"))
	if err != nil {
		return et, err
	}
	cli, err := k.NewHost("ws-mann").NewProcess("echo-client")
	if err != nil {
		return et, err
	}
	if _, err := echoTimes(cli, echo.PID(), 1); err != nil {
		return et, err
	}

	// find returns the first span of a kind, optionally by name and
	// parent ("" and 0 match any).
	spans := tr.Snapshot()
	find := func(kind trace.Kind, name string, parent trace.SpanID) (trace.Span, error) {
		for _, s := range spans {
			if s.Kind == kind && (name == "" || s.Name == name) && (parent == 0 || s.Parent == parent) {
				return s, nil
			}
		}
		return trace.Span{}, fmt.Errorf("no %s %q span under span %d in the echo trace", kind, name, parent)
	}
	send, err := find(trace.KindSend, "", 0)
	if err != nil {
		return et, err
	}
	if et.reqWire, err = find(trace.KindWire, "request", send.ID); err != nil {
		return et, err
	}
	rep, err := find(trace.KindReply, "", send.ID)
	if err != nil {
		return et, err
	}
	if et.repWire, err = find(trace.KindWire, "reply", rep.ID); err != nil {
		return et, err
	}
	et.total = time.Duration(send.End - send.Start)
	et.reqHop = time.Duration(et.reqWire.End - et.reqWire.Start)
	et.repHop = time.Duration(et.repWire.End - et.repWire.Start)
	et.dwell = time.Duration(et.repWire.Start - et.reqWire.End)
	return et, nil
}

// a12 traces one remote Send-Receive-Reply transaction (the E1 workload)
// and decomposes the paper's 2.56 ms total into request hop, server
// dwell, and reply hop, with the per-hop wire/driver/queueing breakdown
// read off the wire spans.
func a12() ([]Row, error) {
	model := vtime.DefaultModel()
	tr := trace.New()
	et, err := traceEcho(tr)
	if err != nil {
		return nil, err
	}
	if err := trace.Check(tr.Snapshot(), trace.CheckOptions{Model: model}); err != nil {
		return nil, fmt.Errorf("a12: trace invariants: %w", err)
	}
	if et.reqHop+et.dwell+et.repHop != et.total {
		return nil, fmt.Errorf("a12: decomposition %v + %v + %v does not sum to total %v",
			et.reqHop, et.dwell, et.repHop, et.total)
	}
	queue := time.Duration(et.reqWire.Queue + et.repWire.Queue)
	wireTx := model.WireTime(et.reqWire.Bytes)
	fixed := model.RemoteDriverFloor + model.RemoteProtocolExtra

	return []Row{
		{Label: "remote transaction (total)", Paper: "2.56 ms", Measured: ms(et.total),
			Note: "send span, 32-byte messages"},
		{Label: "request hop (client to server)", Paper: "-", Measured: ms(et.reqHop),
			Note: "request wire span"},
		{Label: "server dwell", Paper: "-", Measured: ms(et.dwell),
			Note: "reply wire start minus request wire end"},
		{Label: "reply hop (server to client)", Paper: "-", Measured: ms(et.repHop),
			Note: "reply wire span"},
		{Label: "wire transmission per hop", Paper: "-", Measured: ms(wireTx),
			Note: fmt.Sprintf("%d message bytes on the 3 Mbit wire", et.reqWire.Bytes)},
		{Label: "driver + protocol fixed per hop", Paper: "-", Measured: ms(fixed),
			Note: "per-packet latency floor"},
		{Label: "wire queueing (both hops)", Paper: "-", Measured: ms(queue),
			Note: "idle wire: no contention"},
	}, nil
}

// CanonicalTrace boots the standard single-user rig with tracing on,
// performs one open/read/close of "[home]welcome.txt", checks the trace
// invariants, and returns the trace document as indented JSON. This is
// the trace `vbench -trace` exports and the golden-trace regression test
// pins byte-for-byte.
func CanonicalTrace() ([]byte, error) {
	r, err := rig.New(rig.Config{Users: []string{"mann"}, Seed: 1, ReadAhead: true, Trace: true})
	if err != nil {
		return nil, err
	}
	s := r.WS[0].Session
	if _, err := s.ReadFile("[home]welcome.txt"); err != nil {
		return nil, fmt.Errorf("canonical trace: read: %w", err)
	}
	if err := r.CheckTrace(); err != nil {
		return nil, fmt.Errorf("canonical trace: invariants: %w", err)
	}
	return r.Tracer.JSON()
}
