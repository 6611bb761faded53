package fileserver

// The volume image (PROTOCOL.md §11): a replicated file service is
// several read-only servers seeded identically, and what says they still
// agree is their images. An image holds the name-space structure and the
// file bytes in a canonical order — nodes in i-node order, directory
// entries and well-known aliases sorted — and no mtimes, which are
// server-local virtual times: two servers seeded by the same sequence at
// different times have equal images.

import (
	"encoding/binary"
	"sort"

	"repro/internal/core"
)

// enc appends uvarint-framed fields to an image.
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

// Image returns the server's volume image.
func (fs *FileServer) Image() []byte {
	v := fs.vol
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
		e.u64(uint64(n.nlink))
		if n.kind != kindDir {
			e.u64(uint64(n.size))
			at := len(e.b)
			e.b = append(e.b, make([]byte, n.size)...)
			v.store.readAt(n, 0, e.b[at:])
			continue
		}
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
