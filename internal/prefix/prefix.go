// Package prefix implements the V-System context prefix server (§5.8, §6):
// a per-user CSNH server that gives locally-defined character-string names
// to contexts on servers of interest.
//
// A context prefix is the part of a CSname the prefix server parses to
// decide where to forward the request: any CSname starting with '[', with
// the prefix terminated by a closing ']'. Prefixes bind either statically
// to a (server-pid, context-id) pair, or dynamically to a
// (service, well-known-context-id) pair for which the server performs a
// GetPid operation each time the name is used — this is how generic
// services get character-string names (§6).
//
// The prefix server demonstrates the protocol's flexibility: it is a
// conforming CSNH server with a completely different name syntax and
// interpretation from the hierarchical file servers, unified only by the
// standard CSname request fields and forwarding conventions.
package prefix

import (
	"fmt"
	"strings"
	"sync"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/lease"
	"repro/internal/metrics"
	"repro/internal/namestat"
	"repro/internal/nametree"
	"repro/internal/proto"
	"repro/internal/vio"
)

// Marker is the character that introduces a context prefix. The standard
// run-time routines check for it in a single common routine (§6).
const Marker = '['

// closer terminates a context prefix.
const closer = ']'

// HasPrefix reports whether a CSname starts with a context prefix — the
// client-side check localized in one routine (§6).
func HasPrefix(name string) bool {
	return len(name) > 0 && name[0] == Marker
}

// Parse splits a CSname of the form "[prefix]rest" starting at index,
// returning the prefix and the index of the first byte after the closing
// bracket.
func Parse(name string, index int) (pfx string, rest int, err error) {
	if index < 0 || index >= len(name) || name[index] != Marker {
		return "", 0, fmt.Errorf("%w: name does not start with a context prefix", proto.ErrBadArgs)
	}
	end := strings.IndexByte(name[index:], closer)
	if end < 0 {
		return "", 0, fmt.Errorf("%w: unterminated context prefix", proto.ErrBadArgs)
	}
	pfx = name[index+1 : index+end]
	if pfx == "" {
		return "", 0, fmt.Errorf("%w: empty context prefix", proto.ErrBadArgs)
	}
	rest = index + end + 1
	// A separator directly after the bracket is part of the syntax, not
	// of the remaining name.
	for rest < len(name) && name[rest] == core.Separator {
		rest++
	}
	return pfx, rest, nil
}

// Quote renders a prefix name in its bracketed syntax.
func Quote(pfx string) string { return string(Marker) + pfx + string(closer) }

// Binding is the definition of one context prefix.
type Binding struct {
	// Dynamic selects between the two arms below.
	Dynamic bool
	// Pair is the static (server-pid, context-id) target.
	Pair core.ContextPair
	// Service and WellKnown are the dynamic target, re-resolved with
	// GetPid on every use.
	Service   kernel.Service
	WellKnown core.ContextID
}

// Stats counts the prefix server's forwarding. Its rebinds and dead
// targets (§4.2) are only its meter's series, prefix_rebinds_total and
// prefix_dead_targets_total.
type Stats struct {
	// Forwards counts CSname requests rewritten and passed on.
	Forwards uint64
}

// Option configures a prefix server.
type Option func(*Server)

// WithNameStats installs the hot-name sketch, in the server's meter,
// that TopNames, NameRates, PublishNamestat and the lease auto-tuner
// read; without it they read nothing.
func WithNameStats() Option {
	return func(s *Server) { s.leases.Names = namestat.NewTopK(32) }
}

// Server is one user's context prefix server. It normally runs on the
// user's workstation, so the request that reaches it always pays only a
// local hop (§6).
type Server struct {
	proc  *kernel.Process
	owner string
	reg   *vio.Registry
	team  *core.Team

	// index is the prefix table: a copy-on-write radix tree stored in a
	// pointer-free arena (PROTOCOL.md §14.1) whose reads — resolution,
	// classifier probes, directory walks, Bindings — are
	// lock-free against one immutable published image. Each entry
	// carries the binding and the slot of its lease-holder group, so a
	// lease grant finds the group off the same descent the resolution
	// made and never writes the index. mu serializes mutations of the
	// index and guards groups and the plain maps below; resolution takes
	// it only to stamp a lease.
	index *nametree.Tree[tableEntry]
	mu    sync.Mutex
	// groups[slot] is a binding's lease-holder group: NilPID until its
	// first grant, retired once the binding is deleted unleased. Every
	// define takes a fresh slot and none is reused, so a slot read off a
	// node names that binding's group for good.
	groups []kernel.PID
	// lastResolved remembers, per dynamic prefix, the pid its last use
	// resolved to, so rebinds (§4.2) are counted; a binding change
	// forgets it (invalidateName).
	lastResolved map[string]kernel.PID

	// Lease state (lease.go). leaseLen > 0 enables lease granting;
	// orphans holds the holder groups of names with no current binding
	// (negative leases, and groups parked across a delete so identity
	// survives a redefine).
	leaseLen time.Duration
	orphans  map[string]kernel.PID

	// leases records every naming event (lease.Event) into its counters,
	// the flight recorder and its hot-name sketch (nil unless
	// WithNameStats): observers, zero virtual cost. tuner is the
	// optional lease auto-tuner the sketch feeds (tuner.go).
	leases *lease.Meter
	series *core.ServeSeries
	tuner  *autoTuner
	// writeBack is modifyFromRecord, bound once for every directory open.
	writeBack vio.WriteBack
}

// tableEntry is one prefix table entry: the binding plus the index of
// its lease-holder group in Server.groups, stored with the name in the
// index so resolution and lease stamping share one descent. Of the
// binding it stores the one arm dynamic selects — (server pid, context
// id) or (service, well-known context id) — which keeps the entry at 16
// bytes and free of pointers in the index's value chunks; binding hands
// the Binding back.
type tableEntry struct {
	target  [2]uint32
	slot    uint32
	dynamic bool
}

func newEntry(b Binding, slot uint32) tableEntry {
	if b.Dynamic {
		return tableEntry{target: [2]uint32{uint32(b.Service), uint32(b.WellKnown)}, slot: slot, dynamic: true}
	}
	return tableEntry{target: [2]uint32{uint32(b.Pair.Server), uint32(b.Pair.Ctx)}, slot: slot}
}

func (e tableEntry) binding() Binding {
	if e.dynamic {
		return Binding{Dynamic: true, Service: kernel.Service(e.target[0]), WellKnown: core.ContextID(e.target[1])}
	}
	pair, _ := e.pair()
	return Binding{Pair: pair}
}

// pair is the context pair a static binding names. A dynamic binding
// answers no inverse query (§6).
func (e tableEntry) pair() (core.ContextPair, bool) {
	return core.ContextPair{Server: kernel.PID(e.target[0]), Ctx: core.ContextID(e.target[1])}, !e.dynamic
}

// retired marks the slot of a binding deleted before anyone leased it. A
// grant that read the slot before the delete must not start a group
// there, where no later change of the name would find it. Hosts number
// from 1, so no process or group has this pid.
const retired = kernel.PID(1)

// newServer creates a prefix server for the given user on proc; Start
// makes it serve.
func newServer(proc *kernel.Process, owner string, opts ...Option) *Server {
	s := &Server{
		proc:         proc,
		owner:        owner,
		reg:          vio.NewRegistry(),
		index:        nametree.New[tableEntry](),
		lastResolved: make(map[string]kernel.PID),
		orphans:      make(map[string]kernel.PID),
		leases:       lease.NewMeter(proc.Kernel(), "prefix", proc.Name()),
		series:       core.NewServeSeries(proc.Kernel(), proc.Name()),
	}
	s.writeBack = s.modifyFromRecord
	for _, opt := range opts {
		opt(s)
	}
	// A team of one: the exit hook and Serve, on proc alone.
	s.team = core.NewTeam(proc, 1, s.serveOne, nil)
	return s
}

// Start spawns a prefix server process on host and runs it.
func Start(host *kernel.Host, owner string, opts ...Option) (*Server, error) {
	proc, err := host.NewProcess("context-prefix[" + owner + "]")
	if err != nil {
		return nil, err
	}
	s := newServer(proc, owner, opts...)
	if err := s.team.Start(); err != nil {
		return nil, err
	}
	if err := proc.SetPid(kernel.ServiceContextPrefix, proc.PID(), kernel.ScopeLocal); err != nil {
		return nil, err
	}
	return s, nil
}

// PID returns the server's process identifier.
func (s *Server) PID() kernel.PID { return s.proc.PID() }

// Define creates a static prefix binding (boot-time convenience; clients
// use OpAddContextName).
func (s *Server) Define(name string, pair core.ContextPair) error {
	return s.define(name, Binding{Pair: pair})
}

// DefineDynamic creates a dynamic (service, well-known-context) binding.
func (s *Server) DefineDynamic(name string, service kernel.Service, wellKnown core.ContextID) error {
	return s.define(name, Binding{Dynamic: true, Service: service, WellKnown: wellKnown})
}

// DefineAll creates the static bindings names[i] → pair(i), all of
// them or, if one name is malformed, repeated or already bound, none.
// It is Define for a population: the table is rebuilt out of sight and
// published once (nametree.Load), where a Define per name would copy a
// path of the index for each. Load asks for the bindings in key order,
// so a pair computed from the index costs no read of a slice in random
// order.
func (s *Server) DefineAll(names []string, pair func(i int) core.ContextPair) error {
	keys := make([]string, len(names))
	for i, name := range names {
		var err error
		if keys[i], err = tableName(name); err != nil {
			return err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// The table Load replaces is part of the one it installs.
	var old []tableEntry
	s.index.Walk(func(name string, e tableEntry) bool {
		keys = append(keys, name)
		old = append(old, e)
		return true
	})
	base := uint32(len(s.groups))
	entry := func(i int) tableEntry {
		if i < len(names) {
			return newEntry(Binding{Pair: pair(i)}, base+uint32(i))
		}
		return old[i-len(names)]
	}
	if err := s.index.Load(keys, entry); err != nil {
		return fmt.Errorf("%w: %v", proto.ErrDuplicateName, err)
	}
	s.groups = append(s.groups, make([]kernel.PID, len(names))...)
	for i, name := range keys[:len(names)] {
		s.bound(name, base+uint32(i))
	}
	return nil
}

// tableName strips the brackets off both ends of a name being defined
// and checks that what is left can key the table: not empty, and no
// bracket or slash inside. Every byte of those is ASCII, so no byte of
// a multi-byte UTF-8 character can be taken for one.
func tableName(name string) (string, error) {
	lo, hi := 0, len(name)
	for lo < hi && (name[lo] == '[' || name[lo] == ']') {
		lo++
	}
	for hi > lo && (name[hi-1] == '[' || name[hi-1] == ']') {
		hi--
	}
	name = name[lo:hi]
	i := 0
	for i < len(name) && name[i] != '[' && name[i] != ']' && name[i] != '/' {
		i++
	}
	if name == "" || i < len(name) {
		return "", fmt.Errorf("%w: bad prefix name %q", proto.ErrBadArgs, name)
	}
	return name, nil
}

func (s *Server) define(name string, b Binding) error {
	name, err := tableName(name)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.index.Get(name); dup {
		return fmt.Errorf("%q: %w", name, proto.ErrDuplicateName)
	}
	slot := uint32(len(s.groups))
	s.groups = append(s.groups, kernel.NilPID)
	s.index.Insert(name, newEntry(b, slot))
	s.bound(name, slot)
	return nil
}

// bound finishes binding name to a new slot after the index has it: a
// holder group parked by a negative lease or an earlier delete moves
// into the slot, so the define's invalidation (and every later grant)
// keeps the group identity. Caller holds mu.
func (s *Server) bound(name string, slot uint32) {
	if g, ok := s.orphans[name]; ok {
		s.groups[slot] = g
		delete(s.orphans, name)
	}
}

// unbound is bound's inverse for a slot the index no longer has: its
// holder group is parked so the invalidation of whatever removed the
// binding reaches it and a later define re-adopts it. Caller holds mu.
func (s *Server) unbound(name *lease.Borrowed, slot uint32) {
	if g := s.groups[slot]; g != kernel.NilPID {
		s.orphans[name.Keep()] = g
	} else {
		s.groups[slot] = retired
	}
}

// Bindings returns a snapshot of the prefix table, read from the
// immutable radix root — no copy is made under the server mutex, so a
// monitor calling this at population scale never stalls resolution.
func (s *Server) Bindings() map[string]Binding {
	out := make(map[string]Binding, s.index.Len())
	s.index.Walk(func(name string, e tableEntry) bool {
		out[name] = e.binding()
		return true
	})
	return out
}

// TableBytes approximates the in-memory size of the prefix table — the
// figure reported against the paper's 2.6 KB of MC68000 data (§6). Two
// atomic counter loads; the old implementation scanned the table under
// the server mutex.
func (s *Server) TableBytes() int {
	return s.index.KeyBytes() + s.index.Len()*int(unsafe.Sizeof(Binding{}))
}

// serveOne processes one request on the serving process p (the
// receptionist, or a team worker after a §3.1 handoff).
func (s *Server) serveOne(p *kernel.Process, msg *proto.Message, from kernel.PID) {
	sv := core.BeginServe(p, msg, from)
	p.ChargeCompute(p.Kernel().Model().ServerDispatchCost)

	var reply *proto.Message
	switch {
	case msg.Op.IsCSNameOp():
		reply = s.handleCSName(p, msg, from)
	case msg.Op == proto.OpGetContextName:
		reply = s.handleInverse(msg)
	default:
		if r := s.reg.HandleOp(p, msg, from); r != nil {
			reply = r
		} else {
			reply = proto.NewReply(proto.ReplyIllegalRequest)
		}
	}
	if reply == nil {
		// The request was forwarded along a prefix binding.
		sv.Passed()
		return
	}
	sv.Reply(reply, s.series)
}

// handleCSName routes any CSname request: a bracketed prefix selects a
// binding and the request is rewritten and forwarded (§6) — including
// add/delete-context-name requests destined for another server's name
// space. Bracket-less names address the prefix server's own context: its
// prefix table, where the optional add/delete operations are implemented
// (§5.7).
func (s *Server) handleCSName(p *kernel.Process, msg *proto.Message, from kernel.PID) *proto.Message {
	model := p.Kernel().Model()
	name, index, err := proto.CSName(msg)
	if err != nil {
		return core.ErrorReplyMsg(err)
	}

	if index >= len(name) || name[index] != Marker {
		switch msg.Op {
		case proto.OpAddContextName:
			return s.handleAdd(p, msg)
		case proto.OpDeleteContextName:
			return s.handleDelete(p, msg)
		default:
			return s.handleOwnName(p, msg, name[index:])
		}
	}

	// The calibrated per-request processing cost of the MC68000 prefix
	// server: re-validating the request, parsing the prefix, scanning the
	// table and rewriting the message (§6).
	p.ChargeCompute(model.PrefixRewriteCost)

	parsed, rest, err := Parse(name, index)
	if err != nil {
		return core.ErrorReplyMsg(err)
	}
	// pfx lies in msg, copied once if an observer or a table keeps it.
	pfx := s.leases.Borrow(p, parsed)
	// An observer: it charges no virtual time.
	s.leases.Observe(p, lease.Resolved, pfx.Name, p.Now(), lease.Entry{})
	// The resolution fast path: one lock-free descent of the radix index
	// yields the binding and its holder group's slot together.
	e, ok := s.index.Get(pfx.Name)
	b := e.binding()
	cb, wantLease := lease.Wanted(msg, name, rest)
	wantLease = wantLease && s.leaseLen > 0
	if !ok {
		reply := core.ErrorReplyMsg(fmt.Errorf("prefix %q: %w", pfx.Name, proto.ErrNotFound))
		if wantLease {
			// Unknown prefix, lease requested: grant a negative lease so
			// the holder answers repeated lookups locally until a define
			// invalidates it (lease.go).
			s.stampLease(p, reply, &pfx, cb, true, 0)
		}
		return reply
	}
	pair, err := s.resolveBinding(p, b)
	if err != nil {
		return core.ErrorReplyMsg(err)
	}
	// Dynamic bindings recover at time of use (§4.2): GetPid just
	// re-resolved the service, so a replica or re-created server takes
	// over transparently — count the rebind when the answer moved. If the
	// resolution points at a dead process (a stale registration left in
	// another kernel's service table), answer with a bounded-time failure
	// instead of forwarding into a dead transaction, charging the
	// retransmit budget the discovery would have cost.
	if b.Dynamic {
		if !p.Kernel().ProcessAlive(pair.Server) {
			p.ChargeCompute(model.RetransmitTimeout)
			s.leases.Observe(p, lease.DeadTarget, pfx.Name, p.Now(), lease.Entry{})
			return core.ErrorReplyMsg(fmt.Errorf("prefix %q: no live server for service %v: %w",
				pfx.Name, b.Service, proto.ErrTimeout))
		}
		s.mu.Lock()
		prev, ok := s.lastResolved[pfx.Name]
		rebound := ok && prev != pair.Server
		if !ok || rebound {
			// Assigned only when it changes: a map keeps the key it is
			// assigned under, even over an equal one.
			s.lastResolved[pfx.Keep()] = pair.Server
		}
		s.mu.Unlock()
		if rebound {
			s.leases.Observe(p, lease.Rebound, pfx.Name, p.Now(), lease.Entry{})
		}
	}
	if wantLease {
		// A bare-prefix MapContext asking for a lease is answered directly
		// from the table — the server knows the pair and must be the one
		// stamping the expiry and tracking the holder — where the plain
		// protocol would forward it to the target server (lease.go). The
		// answer writes no byte of the segment pfx lies in.
		reply := proto.AnswerIn(msg, proto.ReplyOK)
		proto.SetMapContextReply(reply, uint32(pair.Server), uint32(pair.Ctx))
		s.stampLease(p, reply, &pfx, cb, false, e.slot)
		return reply
	}
	proto.RewriteCSName(msg, uint32(pair.Ctx), rest)
	// Counted before the Forward delivers (see core.ServeSeries.Forwarded).
	s.leases.Observe(p, lease.Forwarded, pfx.Name, p.Now(), lease.Entry{})
	// A failed forward already failed the client's transaction.
	_ = p.Forward(msg, from, pair.Server)
	return nil
}

// Stats returns the forwarding count.
func (s *Server) Stats() Stats { return Stats{Forwards: s.leases.Snapshot()[lease.Forwarded]} }

// TopNames returns the server's hot-name sketch, count-descending.
func (s *Server) TopNames() []namestat.Item { return s.leases.Names.Snapshot() }

// NameRates returns the churn estimators of the names the sketch holds.
func (s *Server) NameRates() []namestat.RateItem { return s.leases.Names.Rates() }

// PublishNamestat copies the sketch and estimator state into reg as
// volatile gauges — on demand, so deterministic metrics documents never
// see them (namestat.Publish).
func (s *Server) PublishNamestat(reg *metrics.Registry) {
	namestat.Publish(reg, s.proc.Name(), s.leases.Names)
}

// resolveBinding maps a binding to a concrete context pair; dynamic
// bindings perform GetPid at time of use, so the name keeps working after
// the service is re-implemented by a new process (§6).
func (s *Server) resolveBinding(p *kernel.Process, b Binding) (core.ContextPair, error) {
	if !b.Dynamic {
		return b.Pair, nil
	}
	pid, err := p.GetPid(b.Service, kernel.ScopeBoth)
	if err != nil {
		return core.ContextPair{}, fmt.Errorf("service %v: %w", b.Service, proto.ErrNotFound)
	}
	return core.ContextPair{Server: pid, Ctx: b.WellKnown}, nil
}

// handleOwnName serves requests on the prefix server's own (single)
// context: its context directory and per-prefix queries.
func (s *Server) handleOwnName(p *kernel.Process, msg *proto.Message, rest string) *proto.Message {
	rest = strings.TrimLeft(rest, string(core.Separator))
	switch msg.Op {
	case proto.OpCreateInstance:
		if proto.OpenMode(msg)&proto.ModeDirectory == 0 {
			return core.ErrorReplyMsg(proto.ErrNotFound)
		}
		if rest != "" {
			// A prefix is an object of this context, not a context of
			// this server: its directory is opened as [prefix].
			if _, bound := s.index.Get(rest); bound {
				return core.ErrorReplyMsg(proto.ErrNotAContext)
			}
			return core.ErrorReplyMsg(proto.ErrNotFound)
		}
		return s.openDirectory(p, msg)
	case proto.OpQueryObject:
		e, ok := s.index.Get(rest)
		if !ok {
			return core.ErrorReplyMsg(proto.ErrNotFound)
		}
		p.ChargeCompute(p.Kernel().Model().DescriptorFabricateCost)
		reply := core.OkReply()
		d := s.describe(rest, e)
		reply.Segment = d.AppendEncoded(nil)
		return reply
	case proto.OpMapContext:
		if rest == "" {
			reply := core.OkReply()
			proto.SetMapContextReply(reply, uint32(s.proc.PID()), uint32(core.CtxDefault))
			return reply
		}
		return core.ErrorReplyMsg(proto.ErrNotFound)
	default:
		return core.ErrorReplyMsg(proto.ErrNotFound)
	}
}

// describe fabricates the description record of one prefix (§5.6).
// ObjectID 1 marks a dynamic binding; TypeSpecific carries the target
// pair (static) or the (service, well-known-context) pair (dynamic) —
// the arm the entry stores.
func (s *Server) describe(name string, e tableEntry) proto.Descriptor {
	d := proto.Descriptor{
		Tag:          proto.TagContextPrefix,
		Name:         name,
		Owner:        s.owner,
		Perms:        proto.PermRead | proto.PermWrite,
		TypeSpecific: e.target,
	}
	if e.dynamic {
		d.ObjectID = 1
	}
	return d
}

// openDirectory fabricates the prefix table's context directory; writing
// a record back redefines the corresponding prefix (§5.6).
func (s *Server) openDirectory(p *kernel.Process, msg *proto.Message) *proto.Message {
	pattern, err := proto.DirPattern(msg)
	if err != nil {
		return core.ErrorReplyMsg(err)
	}
	// Walk one immutable snapshot in sorted order — no lock, no re-sort.
	records := make([]proto.Descriptor, 0, s.index.Len())
	s.index.Walk(func(n string, e tableEntry) bool {
		records = append(records, s.describe(n, e))
		return true
	})
	records = core.FilterRecords(records, pattern)
	return core.OpenDirectory(p, msg, s.reg, s.proc.PID(), proto.EncodeDescriptors(records), len(records), Quote(""), core.CtxDefault, s.writeBack)
}

// modifyFromRecord applies a written directory record as a modification
// of the named prefix, committed on the serving process p before the
// write's reply. The record is the directory instance's own decoded
// copy, so its name may be kept.
func (s *Server) modifyFromRecord(p *kernel.Process, _ uint32, d proto.Descriptor) error {
	if d.Tag != proto.TagContextPrefix {
		return fmt.Errorf("%w: record tag %v", proto.ErrBadArgs, d.Tag)
	}
	s.mu.Lock()
	e, ok := s.index.Get(d.Name)
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("prefix %q: %w", d.Name, proto.ErrNotFound)
	}
	// A written record reads as describe wrote it: ObjectID selects the
	// arm, TypeSpecific holds it.
	s.index.Insert(d.Name, tableEntry{target: d.TypeSpecific, slot: e.slot, dynamic: d.ObjectID == 1})
	s.mu.Unlock()
	s.invalidateName(p, d.Name)
	return nil
}

// handleAdd implements OpAddContextName, one of the optional operations
// ordinarily implemented only by context prefix servers (§5.7). Defining
// a name invalidates its lease holders — negative caches of the
// previously-absent name — before the reply, so the define commits as a
// coherence barrier (lease.go).
func (s *Server) handleAdd(p *kernel.Process, msg *proto.Message) *proto.Message {
	name, index, err := proto.CSName(msg)
	if err != nil {
		return core.ErrorReplyMsg(err)
	}
	dyn, pidOrService, ctx := proto.AddContextTarget(msg)
	b := Binding{}
	if dyn {
		b.Dynamic = true
		b.Service = kernel.Service(pidOrService)
		b.WellKnown = core.ContextID(ctx)
	} else {
		b.Pair = core.ContextPair{Server: kernel.PID(pidOrService), Ctx: core.ContextID(ctx)}
	}
	key := s.leases.Borrow(p, strings.Trim(name[index:], "[]"))
	if err := s.define(key.Name, b); err != nil {
		return core.ErrorReplyMsg(err)
	}
	s.invalidateName(p, key.Name)
	return core.OkReply()
}

// handleDelete implements OpDeleteContextName. Deleting a name
// invalidates its lease holders before the reply (lease.go).
func (s *Server) handleDelete(p *kernel.Process, msg *proto.Message) *proto.Message {
	name, index, err := proto.CSName(msg)
	if err != nil {
		return core.ErrorReplyMsg(err)
	}
	key := s.leases.Borrow(p, strings.Trim(name[index:], "[]"))
	s.mu.Lock()
	e, ok := s.index.Get(key.Name)
	if !ok {
		s.mu.Unlock()
		return core.ErrorReplyMsg(fmt.Errorf("prefix %q: %w", key.Name, proto.ErrNotFound))
	}
	s.index.Delete(key.Name)
	s.unbound(&key, e.slot)
	s.mu.Unlock()
	s.invalidateName(p, key.Name)
	return core.OkReply()
}

// handleInverse implements OpGetContextName for the prefix server: given
// a (server-pid, context-id) pair (F[1], F[0]), return a prefix that
// names it, in bracketed syntax. As §6 observes this inverts a
// many-to-one mapping: the first matching (non-dynamic) prefix in sorted
// order is returned, and there may be none. One ordered walk of the
// published table finds it, with no lock: the query is rare and the
// table small (PROTOCOL.md §14.1), so no index is kept for it.
func (s *Server) handleInverse(msg *proto.Message) *proto.Message {
	target := core.ContextPair{Server: kernel.PID(msg.F[1]), Ctx: core.ContextID(msg.F[0])}
	found, ok := "", false
	s.index.Walk(func(name string, e tableEntry) bool {
		if pair, static := e.pair(); static && pair == target {
			found, ok = name, true
		}
		return !ok
	})
	if !ok {
		return core.ErrorReplyMsg(proto.ErrNotFound)
	}
	reply := core.OkReply()
	reply.Segment = []byte(Quote(found))
	return reply
}
