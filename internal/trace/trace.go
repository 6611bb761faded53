// Package trace is the virtual-time distributed tracing layer: every
// message transaction the simulated V domain carries can be recorded as
// a span tree — client operation → send → serve (per hop, through
// prefix rewriting, inter-server forwarding and intra-team handoffs) →
// reply — with one wire span per network hop carrying the byte, packet
// and queueing detail the netsim cost model charged.
//
// Tracing is strictly an observer: no tracer method advances a virtual
// clock, so a traced run produces byte-identical measurements to an
// untraced one (the invariant TestTeamOneByteIdenticalToSeed pins).
// Span identifiers are allocated in creation order under one mutex;
// under the deterministic closed-loop workload driver (internal/rig)
// the same seed and workload therefore yield an identical trace,
// byte for byte.
//
// A nil *Tracer is a valid no-op tracer: every method is nil-safe, so
// the kernel and servers thread tracing unconditionally and pay nothing
// when no tracer is installed.
package trace

import (
	"encoding/json"
	"sort"
	"sync"
	"time"

	"repro/internal/netsim"
	"repro/internal/vtime"
)

// SpanID identifies one span within a trace. IDs are dense, start at 1,
// and increase in creation order; 0 means "no span" (used for roots and
// for processes with no current span).
type SpanID uint64

// Kind classifies a span.
type Kind string

// The span kinds of the protocol's anatomy.
const (
	// KindClientOp is a root span: one operation of the client run-time
	// library (Open, Query, ReadFile, ...), covering every attempt.
	KindClientOp Kind = "client-op"
	// KindAttempt is one attempt of an operation under the recovery
	// policy; retries appear as sibling attempts under the client-op.
	KindAttempt Kind = "attempt"
	// KindBackoff is the virtual-time backoff charged between attempts.
	KindBackoff Kind = "backoff"
	// KindRebind is the re-resolution work between attempts (cache
	// invalidation, current-context re-mapping).
	KindRebind Kind = "rebind"
	// KindSend is one message transaction from the sender's side: Send
	// to reply arrival (or classified failure).
	KindSend Kind = "send"
	// KindServe is one server's processing of a delivered request.
	KindServe Kind = "serve"
	// KindForward is a kernel Forward: the transaction moving to
	// another process mid-interpretation (§5.4) or to a team worker.
	KindForward Kind = "forward"
	// KindHandoff is the receptionist's decision to pass a request to a
	// team worker (§3.1); its child forward span is the actual hop.
	KindHandoff Kind = "handoff"
	// KindReply is the Reply completing a transaction.
	KindReply Kind = "reply"
	// KindWire is one network hop (request, forward, reply, move or
	// broadcast frame) with its cost-model detail.
	KindWire Kind = "wire"
	// KindGetPid is a service-name lookup (§4.2).
	KindGetPid Kind = "getpid"
	// KindServerExit is a zero-length event recording why a serving
	// team stopped: "process-dead" for a clean destroy, "host-down"
	// for a crash (the classification the receptionist's Err carries,
	// made distinguishable from the trace alone).
	KindServerExit Kind = "server-exit"
	// KindLease is a lease-protocol event (PROTOCOL.md §13): named
	// "grant [p]", "renew [p]", "hit [p]", "negative-hit [p]",
	// "expired [p]", "invalidate [p]" or "callback [p]". Grant, renew
	// and hit events carry the lease stamp in LeaseGrant/LeaseExpire;
	// invalidate events record the commit time as their Start, which is
	// what the staleness invariant in check.go keys on.
	KindLease Kind = "lease"
)

// Name is a span name held unrendered: Head, Sep, then Tail — or, when
// Render is set, Render(Arg) in Tail's place. The concatenation (and
// whatever formatting Render does, e.g. the kernel's "pid(h.l)") runs
// only when String is called, which a sampled tracer does for retained
// and snapshotted spans alone: naming a span that is thrown away costs
// a struct copy. Render must be a pure function of Arg.
type Name struct {
	Head, Sep, Tail string
	Render          func(uint32) string
	Arg             uint32
}

// String renders the name.
func (n Name) String() string {
	tail := n.Tail
	if n.Render != nil {
		tail = n.Render(n.Arg)
	}
	if n.Sep == "" && tail == "" {
		return n.Head
	}
	return n.Head + n.Sep + tail
}

// ProcID names the process a span ran on. The zero value marks spans
// that belong to no process clock (wire spans).
type ProcID struct {
	Name string
	PID  uint32
	Host string
}

// Span is one recorded interval of virtual time. Fields are fixed (no
// maps) so the JSON rendering is byte-stable for golden traces.
type Span struct {
	ID     SpanID `json:"id"`
	Parent SpanID `json:"parent,omitempty"`
	Kind   Kind   `json:"kind"`
	Name   string `json:"name"`
	Proc   string `json:"proc,omitempty"`
	PID    uint32 `json:"pid,omitempty"`
	Host   string `json:"host,omitempty"`
	// Start and End are virtual nanoseconds. For failure spans End is
	// the virtual time the failure was classified.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// Err is the failure classification; empty means success.
	Err string `json:"err,omitempty"`
	// Bytes/Packets/Retrans/Queue carry the network cost detail of
	// wire spans.
	Bytes   int   `json:"bytes,omitempty"`
	Packets int   `json:"packets,omitempty"`
	Retrans int   `json:"retrans,omitempty"`
	Queue   int64 `json:"queue_ns,omitempty"`
	// Local marks a same-host hop, which never touches the wire.
	Local bool `json:"local,omitempty"`
	// Bcast marks a broadcast or multicast frame (always one packet).
	Bcast bool `json:"bcast,omitempty"`
	// Group marks a send/forward addressed to a process group, where
	// first-reply-wins allows more than one reply span in the subtree.
	Group bool `json:"group,omitempty"`
	// LeaseGrant/LeaseExpire carry the lease stamp of KindLease spans:
	// the virtual time the lease was granted (or renewed) and its
	// absolute expiry. Zero on every other kind, so the golden traces
	// predating leases render unchanged.
	LeaseGrant  int64 `json:"lease_grant_ns,omitempty"`
	LeaseExpire int64 `json:"lease_expire_ns,omitempty"`
	// Incomplete marks a span that was never ended — a leak the
	// invariant checker rejects.
	Incomplete bool `json:"incomplete,omitempty"`

	ended bool
}

// Frame is one frame (or packet burst) on the shared medium, recorded
// straight from netsim — the per-packet wire record.
type Frame struct {
	Src     uint16 `json:"src"`
	Dst     uint16 `json:"dst,omitempty"` // 0 for broadcast/multicast
	Cast    string `json:"cast"`
	Bytes   int    `json:"bytes"`
	Packets int    `json:"packets"`
	Retrans int    `json:"retrans,omitempty"`
	At      int64  `json:"at_ns"`
	Queue   int64  `json:"queue_ns,omitempty"`
	Latency int64  `json:"latency_ns"`
}

// Tracer records spans and wire frames. All methods are safe for
// concurrent use and all are no-ops on a nil receiver.
//
// Spans of an open root live in that root's subtree until its last span
// ends; the subtree is then retained in full or dropped whole, as the
// tracer's SampleConfig says (sample.go). A tracer that retains every
// root (HeadEvery 1) also keeps the frame log.
type Tracer struct {
	mu            sync.Mutex
	cfg           SampleConfig
	nextID        SpanID
	open          openSet
	free          []*subtree
	seenByProc    map[uint32]*uint64 // roots started, by PID (domain-unique)
	retained      spanStore
	rootsSeen     uint64
	rootsRetained uint64
	frames        []Frame
}

// New returns an empty tracer that retains every root and the frame log.
func New() *Tracer { return NewSampled(SampleConfig{HeadEvery: 1}) }

// NewSampled returns an empty tracer retaining what cfg selects.
func NewSampled(cfg SampleConfig) *Tracer {
	if cfg.HeadEvery < 1 {
		cfg.HeadEvery = 1
	}
	return &Tracer{cfg: cfg, seenByProc: make(map[uint32]*uint64)}
}

// Start opens a span named by a plain string and returns its id.
// parent 0 makes it a root.
func (t *Tracer) Start(parent SpanID, kind Kind, name string, at vtime.Time, who ProcID) SpanID {
	return t.StartName(parent, kind, Name{Head: name}, at, who)
}

// StartName is Start with a name rendered only if the span is kept:
// call sites whose names are concatenated or formatted pass the parts.
func (t *Tracer) StartName(parent SpanID, kind Kind, name Name, at vtime.Time, who ProcID) SpanID {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.start(parent, kind, name, int64(at), who).ID
}

// End closes a span at the given virtual time.
func (t *Tracer) End(id SpanID, at vtime.Time) { t.Fail(id, at, "") }

// Fail closes a span with a failure classification. An empty class is
// a plain End.
func (t *Tracer) Fail(id SpanID, at vtime.Time, class string) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.fail(id, int64(at), class)
}

// Event records a zero-length span (server exits, annotations).
func (t *Tracer) Event(parent SpanID, kind Kind, name Name, at vtime.Time, who ProcID, class string) SpanID {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.start(parent, kind, name, int64(at), who).ID
	t.fail(id, int64(at), class)
	return id
}

// Wire records one completed network hop as a wire span under parent.
func (t *Tracer) Wire(parent SpanID, name string, start vtime.Time, dur time.Duration, bytes int, det netsim.HopDetail, local, bcast bool) SpanID {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := t.start(parent, KindWire, Name{Head: name}, int64(start), ProcID{})
	sp.Bytes = bytes
	sp.Packets = det.Packets
	sp.Retrans = det.Retransmits
	sp.Queue = int64(det.Queue)
	sp.Local = local
	sp.Bcast = bcast
	id := sp.ID // ending the span may retire its subtree and recycle sp
	t.fail(id, int64(start+dur), "")
	return id
}

// SetGroup marks a span as a group (multicast) transaction.
func (t *Tracer) SetGroup(id SpanID) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if sp := t.span(id); sp != nil {
		sp.Group = true
	}
}

// Lease records a zero-length lease-protocol event (KindLease) stamped
// with its lease: grant time and absolute expiry, both zero for an event
// that carries none. The stamp is written before the span ends, so it
// is kept even when ending the span retires its subtree at once.
func (t *Tracer) Lease(parent SpanID, name Name, at vtime.Time, who ProcID, grant, expire vtime.Time) SpanID {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := t.start(parent, KindLease, name, int64(at), who)
	sp.LeaseGrant = int64(grant)
	sp.LeaseExpire = int64(expire)
	id := sp.ID // ending the span may retire its subtree and recycle sp
	t.fail(id, int64(at), "")
	return id
}

// RecordFrame implements netsim.FrameRecorder: every frame the network
// carries is appended to the trace's wire record. Only a tracer that
// retains every root keeps the log: it is O(packets), exactly the growth
// sampling exists to avoid.
func (t *Tracer) RecordFrame(ev netsim.FrameEvent) {
	if t == nil || t.cfg.HeadEvery != 1 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.frames = append(t.frames, Frame{
		Src:     uint16(ev.Src),
		Dst:     uint16(ev.Dst),
		Cast:    ev.Cast,
		Bytes:   ev.Bytes,
		Packets: ev.Packets,
		Retrans: ev.Retransmits,
		At:      int64(ev.At),
		Queue:   int64(ev.Queue),
		Latency: int64(ev.Latency),
	})
}

// Snapshot returns a copy of the recorded spans in id order: the
// retained ones, then every span of a still-open subtree, those not yet
// ended marked Incomplete, so a mid-run dump is honest.
func (t *Tracer) Snapshot() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, t.retained.n+t.open.n)
	for i, c := range t.retained.chunks {
		out = append(out, c[:min(retainChunk, t.retained.n-i*retainChunk)]...)
	}
	for _, st := range t.open.live {
		for i := range st.spans {
			out = out[:len(out)+1]
			sp := &out[len(out)-1]
			st.spans[i].renderInto(sp)
			sp.Incomplete = !sp.ended
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Frames returns a copy of the recorded wire frames.
func (t *Tracer) Frames() []Frame {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Frame(nil), t.frames...)
}

// Document is the JSON export schema.
type Document struct {
	Version int     `json:"version"`
	Spans   []Span  `json:"spans"`
	Frames  []Frame `json:"frames"`
}

// JSON renders the trace as indented JSON. The rendering is
// deterministic: fixed struct fields, spans in id order, frames in
// record order.
func (t *Tracer) JSON() ([]byte, error) {
	doc := Document{Version: 1, Spans: t.Snapshot(), Frames: t.Frames()}
	if doc.Spans == nil {
		doc.Spans = []Span{}
	}
	if doc.Frames == nil {
		doc.Frames = []Frame{}
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}
