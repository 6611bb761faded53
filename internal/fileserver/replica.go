package fileserver

// Replication adapter (PROTOCOL.md §11): a file server becomes a member
// of a read-only replication group by fronting it with a ReplicaService.
// The front is the pid clients talk to (the rig registers it as the
// storage service); the member-local FileServer behind it keeps its normal
// serving team and I/O path. Every member's volume is seeded identically
// at boot, and a re-created member takes the leader's by snapshot. The
// front routes:
//
//   - a mutation — remove, rename, link, add/delete context name, modify,
//     or an open with write, create, append or truncate mode — is refused
//     with NoPermission on any member, before leadership is consulted,
//     including one whose name leads out of the volume;
//   - context mapping is proxied through the local server with the reply's
//     server pid rewritten to the front, so cached context pairs keep
//     naming the group;
//   - everything else (opens, instance I/O setup, queries) is forwarded to
//     the local server on the leader and to the leader's front on
//     followers.
//
// Descriptor mtimes are server-local virtual times and may differ across
// members; the replicated invariant is the name-space structure and file
// bytes, which the snapshot codec encodes canonically (nodes and directory
// entries in sorted order).

import (
	"encoding/binary"
	"errors"
	"sort"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/proto"
	"repro/internal/replica"
	"repro/internal/vtime"
)

// --- uvarint encoding helpers (snapshot codec) ---

type enc struct{ b []byte }

func (e *enc) u64(x uint64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], x)
	e.b = append(e.b, tmp[:n]...)
}

func (e *enc) str(s string) {
	e.u64(uint64(len(s)))
	e.b = append(e.b, s...)
}

func (e *enc) bytes(p []byte) {
	e.u64(uint64(len(p)))
	e.b = append(e.b, p...)
}

type dec struct {
	b   []byte
	bad bool
}

func (d *dec) u64() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.bad = true
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *dec) take() []byte {
	n := d.u64()
	if d.bad || uint64(len(d.b)) < n {
		d.bad = true
		return nil
	}
	out := d.b[:n]
	d.b = d.b[n:]
	return out
}

func (d *dec) str() string { return string(d.take()) }

// --- volume snapshot codec ---

// encode serializes the volume canonically: nodes in i-node order,
// directory entries and well-known aliases in sorted order. Two volumes
// with the same name-space structure and file contents encode to the same
// bytes without mtimes, which are server-local (see the package note
// above) and written as zero unless times is set.
func (v *volume) encode(times bool) []byte {
	v.mu.Lock()
	defer v.mu.Unlock()
	e := &enc{}
	ids := make([]ino, 0, len(v.nodes))
	for id := range v.nodes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	e.u64(uint64(len(ids)))
	for _, id := range ids {
		n := v.nodes[id]
		e.u64(uint64(n.id))
		e.u64(uint64(n.kind))
		e.u64(uint64(n.parent))
		e.str(n.name)
		e.str(n.owner)
		e.u64(uint64(n.perms))
		mtime := n.mtime
		if !times {
			mtime = 0
		}
		e.u64(uint64(mtime))
		e.u64(uint64(n.nlink))
		if n.kind == kindDir {
			e.u64(uint64(len(n.entries)))
			for _, de := range n.entries {
				e.str(de.name)
				if de.child == nil {
					e.u64(1)
					e.u64(uint64(de.remote.Server))
					e.u64(uint64(de.remote.Ctx))
				} else {
					e.u64(0)
					e.u64(uint64(de.child.id))
				}
			}
		} else {
			e.bytes(n.data)
		}
	}
	wks := make([]core.ContextID, 0, len(v.wellKnown))
	for ctx := range v.wellKnown {
		wks = append(wks, ctx)
	}
	sort.Slice(wks, func(i, j int) bool { return wks[i] < wks[j] })
	e.u64(uint64(len(wks)))
	for _, ctx := range wks {
		e.u64(uint64(ctx))
		e.u64(uint64(v.wellKnown[ctx]))
	}
	e.u64(uint64(v.next))
	return e.b
}

// decodeVolume parses an encoded volume image. Entries name their
// children by i-node number, and a child may follow its directory in the
// image, so the pointers are linked once every node has been read; an
// image whose entries are out of name order or name no node is corrupt.
func decodeVolume(data []byte) (map[ino]*node, ino, map[core.ContextID]ino, error) {
	d := &dec{b: data}
	cnt := d.u64()
	nodes := make(map[ino]*node, cnt)
	type link struct {
		e     *dirent
		child ino
	}
	var links []link
	for i := uint64(0); i < cnt && !d.bad; i++ {
		n := &node{}
		n.id = ino(d.u64())
		n.kind = nodeKind(d.u64())
		n.parent = ino(d.u64())
		n.name = d.str()
		n.owner = d.str()
		n.perms = uint16(d.u64())
		n.mtime = vtime.Time(d.u64())
		n.nlink = int(d.u64())
		if n.kind == kindDir {
			m := d.u64()
			if m > uint64(len(d.b)) {
				d.bad = true
				break
			}
			n.entries = make([]dirent, m)
			for j := range n.entries {
				e := &n.entries[j]
				e.name = d.str()
				if j > 0 && e.name <= n.entries[j-1].name {
					d.bad = true
				}
				if d.u64() == 1 {
					e.remote.Server = kernel.PID(d.u64())
					e.remote.Ctx = core.ContextID(d.u64())
				} else {
					links = append(links, link{e, ino(d.u64())})
				}
			}
		} else {
			n.data = append([]byte(nil), d.take()...)
		}
		nodes[n.id] = n
	}
	wkCnt := d.u64()
	wk := make(map[core.ContextID]ino, wkCnt)
	for i := uint64(0); i < wkCnt && !d.bad; i++ {
		ctx := core.ContextID(d.u64())
		wk[ctx] = ino(d.u64())
	}
	next := ino(d.u64())
	for _, l := range links {
		if l.e.child = nodes[l.child]; l.e.child == nil {
			d.bad = true
		}
	}
	if d.bad || len(d.b) != 0 {
		return nil, 0, nil, errors.New("fileserver: corrupt volume snapshot")
	}
	return nodes, next, wk, nil
}

// restoreVolume replaces the volume's state with a decoded snapshot and
// drops every kept listing and buffered page (both describe the old
// contents).
func (fs *FileServer) restoreVolume(data []byte) error {
	nodes, next, wk, err := decodeVolume(data)
	if err != nil {
		return err
	}
	v := fs.vol
	v.mu.Lock()
	v.nodes, v.next, v.wellKnown = nodes, next, wk
	clear(v.listings)
	v.mu.Unlock()
	fs.cache.clear()
	return nil
}

// --- the replicated front ---

// ReplicaService fronts a member-local FileServer as a read-only
// replication-group member (see the note above for the routing table).
type ReplicaService struct {
	fs *FileServer
}

// NewReplicaService builds the front over the member-local server.
func NewReplicaService(fs *FileServer) *ReplicaService {
	return &ReplicaService{fs: fs}
}

// mutation reports whether msg would change the volume.
func mutation(msg *proto.Message) bool {
	switch msg.Op {
	case proto.OpRemoveObject, proto.OpRenameObject, proto.OpLinkObject,
		proto.OpAddContextName, proto.OpDeleteContextName, proto.OpModifyObject:
		return true
	case proto.OpCreateInstance:
		return proto.OpenMode(msg)&(proto.ModeWrite|proto.ModeCreate|proto.ModeAppend|proto.ModeTruncate) != 0
	}
	return false
}

// Serve implements replica.Service.
func (rs *ReplicaService) Serve(p *kernel.Process, r *replica.Replica, msg *proto.Message, from kernel.PID) {
	switch {
	case mutation(msg):
		_ = p.Reply(proto.NewReply(proto.ReplyNoPermission), from)
	case !r.Leading():
		// A follower keeps the service available by passing the whole
		// transaction to the live leader's front (§5.4 forwarding); during
		// a leaderless window the client gets NotLeader, retries and
		// re-resolves the name by GetPid.
		if lead := r.LeaderHint(); lead != kernel.NilPID && lead != p.PID() {
			if err := p.Forward(msg, from, lead); err == nil {
				return
			}
		}
		_ = p.Reply(proto.NewReply(proto.ReplyNotLeader), from)
	case msg.Op == proto.OpMapContext:
		rs.proxyMapContext(p, msg, from)
	default:
		rs.forwardLocal(p, msg, from)
	}
}

// forwardLocal hands the pending transaction to the member-local server.
func (rs *ReplicaService) forwardLocal(p *kernel.Process, msg *proto.Message, from kernel.PID) {
	if err := p.Forward(msg, from, rs.fs.PID()); err != nil {
		_ = p.Reply(core.ErrorReplyMsg(err), from)
	}
}

// proxyMapContext resolves a context mapping through the local server and
// rewrites a pair naming the local server to name the front instead, so
// clients cache the replicated service, not one member (§5.3).
func (rs *ReplicaService) proxyMapContext(p *kernel.Process, msg *proto.Message, from kernel.PID) {
	rep, err := p.Send(msg, rs.fs.PID())
	if err != nil {
		_ = p.Reply(core.ErrorReplyMsg(err), from)
		return
	}
	if rep.Op == proto.ReplyOK {
		if pid, ctx := proto.GetMapContextReply(rep); pid == uint32(rs.fs.PID()) {
			proto.SetMapContextReply(rep, uint32(p.PID()), ctx)
		}
	}
	_ = p.Reply(rep, from)
}

// Snapshot implements replica.Service.
func (rs *ReplicaService) Snapshot() []byte { return rs.fs.vol.encode(true) }

// Replicated is the image replica.Safety compares: the snapshot without
// mtimes.
func (rs *ReplicaService) Replicated() []byte { return rs.fs.vol.encode(false) }

// Restore implements replica.Service.
func (rs *ReplicaService) Restore(p *kernel.Process, data []byte) error {
	return rs.fs.restoreVolume(data)
}

var _ replica.Service = (*ReplicaService)(nil)
