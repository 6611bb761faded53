// Package tracetest is the shared harness of the per-package trace
// invariant tier: every server package drives its protocol against a
// one-kernel traced domain and then runs the invariant checker
// (trace.Check) plus structural assertions over the recorded span tree.
package tracetest

import (
	"testing"

	"repro/internal/kernel"
	"repro/internal/netsim"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// Domain is a traced simulation domain for server trace tests: a kernel
// on a seeded network with a tracer installed as both span recorder and
// netsim frame recorder.
type Domain struct {
	K      *kernel.Kernel
	Tracer *trace.Tracer
	Model  *vtime.CostModel
}

// New builds a traced domain with the default cost model and seed 1.
func New() *Domain {
	model := vtime.DefaultModel()
	net := netsim.New(model, 1)
	k := kernel.New(net)
	tr := trace.New()
	k.SetTracer(tr)
	net.SetRecorder(tr)
	return &Domain{K: k, Tracer: tr, Model: model}
}

// Check runs the full invariant checker over the recorded trace and
// returns the spans for structural assertions.
func (d *Domain) Check(t testing.TB) []trace.Span {
	t.Helper()
	spans := d.Tracer.Snapshot()
	if err := trace.Check(spans, trace.CheckOptions{Model: d.Model}); err != nil {
		t.Fatalf("trace invariants: %v", err)
	}
	return spans
}

// Count returns how many spans have the given kind.
func Count(spans []trace.Span, kind trace.Kind) int {
	n := 0
	for _, s := range spans {
		if s.Kind == kind {
			n++
		}
	}
	return n
}

// Require asserts at least min spans of the given kind were recorded.
func Require(t testing.TB, spans []trace.Span, kind trace.Kind, min int) {
	t.Helper()
	if got := Count(spans, kind); got < min {
		t.Fatalf("trace has %d %s spans, want at least %d", got, kind, min)
	}
}

// Forbid asserts no span of the given kind was recorded.
func Forbid(t testing.TB, spans []trace.Span, kind trace.Kind) {
	t.Helper()
	if got := Count(spans, kind); got != 0 {
		t.Fatalf("trace has %d %s spans, want none", got, kind)
	}
}
