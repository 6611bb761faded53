package prefix

// Replication adapter (PROTOCOL.md §11): a prefix server becomes a member
// of a read-only replication group by fronting it with a ReplicaService.
// Every member's table is seeded identically at boot, and a re-created
// member takes the leader's by snapshot. A request that would change this
// server's own table — a bracket-less add or delete-context-name (§5.7),
// or a write-mode open of its context directory (§5.6) — is refused with
// NoPermission on any member. Every other request — prefix forwards,
// directory reads, inverse queries — is served by the member-local table
// directly, on any member, since all members hold the same table.

import (
	"encoding/binary"
	"errors"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/proto"
	"repro/internal/replica"
)

// ReplicaService fronts a member-local prefix server (built with New, not
// Start — the replica process is the serving process) as a
// replication-group state machine.
type ReplicaService struct {
	s *Server
}

// NewReplicaService builds the front over the member-local server.
func NewReplicaService(s *Server) *ReplicaService { return &ReplicaService{s: s} }

// tableMutation reports whether msg would change this server's own
// table. Bracketed requests are destined for another server's name space
// and are forwarded along the binding like any other CSname.
func tableMutation(msg *proto.Message) bool {
	writes := msg.Op == proto.OpAddContextName || msg.Op == proto.OpDeleteContextName ||
		msg.Op == proto.OpCreateInstance && proto.OpenMode(msg)&(proto.ModeWrite|proto.ModeCreate|proto.ModeAppend|proto.ModeTruncate) != 0
	if !writes {
		return false
	}
	name, index, err := proto.CSName(msg)
	if err != nil {
		return false
	}
	return index >= len(name) || name[index] != Marker
}

// Serve implements replica.Service.
func (rs *ReplicaService) Serve(p *kernel.Process, r *replica.Replica, msg *proto.Message, from kernel.PID) {
	if tableMutation(msg) {
		_ = p.Reply(proto.NewReply(proto.ReplyNoPermission), from)
		return
	}
	rs.s.serveOne(p, msg, from)
}

// Snapshot implements replica.Service: the prefix table, canonically
// encoded in sorted name order. Runtime state (open instances, rebind
// tracking, stats) is member-local and not part of the replicated state.
func (rs *ReplicaService) Snapshot() []byte {
	// The radix walk visits one immutable snapshot in sorted name order,
	// so the canonical encoding falls straight out — no lock, no sort.
	s := rs.s
	names := make([]string, 0, s.index.Len())
	binds := make([]Binding, 0, s.index.Len())
	s.index.Walk(func(n string, e tableEntry) bool {
		names = append(names, n)
		binds = append(binds, e.binding())
		return true
	})
	var buf []byte
	var tmp [binary.MaxVarintLen64]byte
	u64 := func(x uint64) { buf = append(buf, tmp[:binary.PutUvarint(tmp[:], x)]...) }
	str := func(v string) { u64(uint64(len(v))); buf = append(buf, v...) }
	u64(uint64(len(names)))
	for i, n := range names {
		b := binds[i]
		str(n)
		if b.Dynamic {
			u64(1)
			u64(uint64(b.Service))
			u64(uint64(b.WellKnown))
		} else {
			u64(0)
			u64(uint64(b.Pair.Server))
			u64(uint64(b.Pair.Ctx))
		}
	}
	return buf
}

// Restore implements replica.Service.
func (rs *ReplicaService) Restore(p *kernel.Process, data []byte) error {
	bad := errors.New("prefix: corrupt table snapshot")
	u64 := func() (uint64, bool) {
		v, n := binary.Uvarint(data)
		if n <= 0 {
			return 0, false
		}
		data = data[n:]
		return v, true
	}
	str := func() (string, bool) {
		n, ok := u64()
		if !ok || uint64(len(data)) < n {
			return "", false
		}
		v := string(data[:n])
		data = data[n:]
		return v, true
	}
	cnt, ok := u64()
	if !ok {
		return bad
	}
	names := make([]string, 0, cnt)
	binds := make([]Binding, 0, cnt)
	for i := uint64(0); i < cnt; i++ {
		name, ok1 := str()
		dyn, ok2 := u64()
		a, ok3 := u64()
		b, ok4 := u64()
		if !(ok1 && ok2 && ok3 && ok4) {
			return bad
		}
		bind := Binding{}
		if dyn == 1 {
			bind.Dynamic = true
			bind.Service = kernel.Service(a)
			bind.WellKnown = core.ContextID(b)
		} else {
			bind.Pair = core.ContextPair{Server: kernel.PID(a), Ctx: core.ContextID(b)}
		}
		names = append(names, name)
		binds = append(binds, bind)
	}
	if len(data) != 0 {
		return bad
	}
	s := rs.s
	s.mu.Lock()
	defer s.mu.Unlock()
	// Install the snapshot with one root swap (the index pointer itself
	// is stable for lock-free readers): a resolution beside the install
	// finds the old table or the new one, never a half-empty one.
	var oldNames []string
	var old []tableEntry
	s.index.Walk(func(n string, e tableEntry) bool {
		oldNames, old = append(oldNames, n), append(old, e)
		return true
	})
	base := uint32(len(s.groups))
	entry := func(i int) tableEntry { return newEntry(binds[i], base+uint32(i)) }
	if s.index.Load(names, entry) != nil {
		return bad
	}
	// Holder groups are parked and re-adopted by name, so invalidation
	// identity survives the install.
	for i, n := range oldNames {
		s.unbound(n, old[i])
	}
	s.groups = append(s.groups, make([]kernel.PID, len(names))...)
	for i, n := range names {
		s.bound(n, entry(i))
	}
	s.lastResolved = make(map[string]kernel.PID)
	return nil
}

var _ replica.Service = (*ReplicaService)(nil)
