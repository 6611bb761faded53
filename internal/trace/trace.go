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
// Exported span ids are dense and taken in creation order from one
// atomic counter; under the deterministic closed-loop workload driver
// (internal/rig) the same seed and workload therefore yield an
// identical trace, byte for byte. A span itself is written in place
// into its root's subtree, found through the handle its caller holds,
// with no lock (sample.go says why one writer is enough).
//
// A nil *Tracer is a valid no-op tracer: every method is nil-safe, so
// the kernel and servers thread tracing unconditionally and pay nothing
// when no tracer is installed.
package trace

import (
	"encoding/json"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/netsim"
	"repro/internal/vtime"
)

// SpanID identifies one span within a trace; 0 means "no span" (used
// for roots and for processes with no current span). An exported span's
// ID and Parent are dense, start at 1, and increase in creation order.
// What the recording methods return, and take as a parent, is the
// span's handle instead: where it is written until its subtree retires
// (sample.go). Handles are for the tracer alone to read.
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
//
// A span is written in place into its subtree, which the handle its
// caller holds names directly, with no lock: mu is taken only to open a
// root (the head count and a free slab), to retire one, to log a frame,
// and to read.
type Tracer struct {
	nextID atomic.Uint64 // the last exported span id
	// slots holds every subtree at the slot its handles name; it only
	// grows, under mu.
	slots atomic.Pointer[[]*subtree]

	mu            sync.Mutex
	cfg           SampleConfig
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
	t := &Tracer{cfg: cfg, seenByProc: make(map[uint32]*uint64)}
	t.slots.Store(new([]*subtree))
	return t
}

// Hop is one network hop as a wire span records it: its cost-model
// detail, and whether it stayed on one host or went to many.
type Hop struct {
	Name         string // "request", "reply", "forward", ...
	Start        vtime.Time
	Dur          time.Duration
	Bytes        int
	Detail       netsim.HopDetail
	Local, Bcast bool
}

// Start opens a span named by a plain string and returns its handle.
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
	p, i := t.open(parent, kind, &name, int64(at), &who, 1)
	h := p.handle(i)
	t.release(p, false)
	return h
}

// StartGroup is StartName for a send or forward addressed to a process
// group: the span is marked Group before any member can write under it.
func (t *Tracer) StartGroup(parent SpanID, kind Kind, name Name, at vtime.Time, who ProcID) SpanID {
	id := t.StartName(parent, kind, name, at, who)
	t.SetGroup(id)
	return id
}

// StartWire is StartName with the span's first wire hop recorded under
// it: a Send and its request.
func (t *Tracer) StartWire(parent SpanID, kind Kind, name Name, at vtime.Time, who ProcID, hop Hop) SpanID {
	if t == nil {
		return 0
	}
	p, i := t.open(parent, kind, &name, int64(at), &who, 2)
	p.st.wire(i, &hop)
	h := p.handle(i)
	t.release(p, false)
	return h
}

// Transfer records a whole span with its wire hop under it, ended at
// end: a Reply or a Forward.
func (t *Tracer) Transfer(parent SpanID, kind Kind, name Name, at vtime.Time, who ProcID, hop Hop, end vtime.Time) SpanID {
	if t == nil {
		return 0
	}
	p, i := t.open(parent, kind, &name, int64(at), &who, 2)
	p.st.wire(i, &hop)
	h := p.handle(i)
	t.release(p, p.st.end(i, int64(end), ""))
	return h
}

// End closes a span at the given virtual time.
func (t *Tracer) End(id SpanID, at vtime.Time) { t.Fail(id, at, "") }

// Fail closes a span with a failure classification. An empty class is
// a plain End.
func (t *Tracer) Fail(id SpanID, at vtime.Time, class string) {
	if t == nil {
		return
	}
	if p, i, ok := t.acquire(id); ok {
		t.release(p, p.st.end(i, int64(at), class))
	}
}

// Event records a zero-length span (server exits, annotations).
func (t *Tracer) Event(parent SpanID, kind Kind, name Name, at vtime.Time, who ProcID, class string) SpanID {
	if t == nil {
		return 0
	}
	p, i := t.open(parent, kind, &name, int64(at), &who, 1)
	h := p.handle(i)
	t.release(p, p.st.end(i, int64(at), class))
	return h
}

// Wire records one completed network hop as a wire span under parent.
func (t *Tracer) Wire(parent SpanID, name string, start vtime.Time, dur time.Duration, bytes int, det netsim.HopDetail, local, bcast bool) SpanID {
	if t == nil {
		return 0
	}
	p, i := t.open(parent, KindWire, &Name{Head: name}, int64(start), nil, 1)
	p.st.spans[i].hop.detail(&Hop{Bytes: bytes, Detail: det, Local: local, Bcast: bcast})
	p.st.spans[i].flags |= spanHop
	h := p.handle(i)
	t.release(p, p.st.end(i, int64(start+dur), ""))
	return h
}

// SetGroup marks a span as a group (multicast) transaction. Its subtree
// is written under a lock from here on: a group's members may still
// write it after the first reply has unblocked the sender.
func (t *Tracer) SetGroup(id SpanID) {
	if t == nil {
		return
	}
	if p, i, ok := t.acquire(id); ok {
		p.mark()
		p.st.spans[i].flags |= spanGroup
		t.release(p, false)
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
	p, i := t.open(parent, KindLease, &name, int64(at), &who, 1)
	sp := &p.st.spans[i]
	sp.grant, sp.expire = int64(grant), int64(expire)
	sp.flags |= spanStamp
	h := p.handle(i)
	t.release(p, p.st.end(i, int64(at), ""))
	return h
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
// ended marked Incomplete, so a dump taken when the run is quiet is
// honest. An open subtree is read as its writer left it; a group-marked
// one under its lock.
func (t *Tracer) Snapshot() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, t.retained.n)
	for i, c := range t.retained.chunks {
		out = append(out, c[:min(retainChunk, t.retained.n-i*retainChunk)]...)
	}
	next := func() *Span {
		out = append(out, Span{})
		return &out[len(out)-1]
	}
	for _, st := range *t.slots.Load() {
		if !st.live {
			continue
		}
		locked := st.state.Load()&1 != 0
		if locked {
			st.mu.Lock()
		}
		if st.state.Load()>>1 == st.gen { // else retiring: finish will account for it
			for i := range st.spans {
				st.render(i, next)
			}
		}
		if locked {
			st.mu.Unlock()
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
