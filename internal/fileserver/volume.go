// Package fileserver implements a V-System network file server: a
// hierarchical name space where the directories that define the naming of
// files live on the same server (and the same storage) as the files
// themselves — the arrangement the paper's distributed model favours
// (§2.2).
//
// Directories are contexts: a context identifier is the i-node number of a
// directory, so mapping a context id to a starting point for relative
// pathnames is an internal table lookup (§6). File names are stored in
// directory entries separate from the file descriptions, joined on demand
// when descriptors are fabricated for query operations and context
// directories (§5.6). Directory entries may also be cross-server links —
// pointers to contexts on other servers — which the name-mapping procedure
// follows by forwarding (§5.4, Figure 4).
package fileserver

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/vio"
	"repro/internal/vtime"
)

// ino is an i-node number. The root directory is always i-node 0, so
// core.CtxDefault names the root context.
type ino uint32

const rootIno ino = 0

// nodeKind discriminates i-node types.
type nodeKind uint8

const (
	kindFile nodeKind = iota + 1
	kindDir
)

// dirent is one directory entry: a name bound to a local i-node, or, when
// child is nil, to a context on another server.
type dirent struct {
	name   string
	child  *node
	remote core.ContextPair
}

// node is one i-node. The narrow fields sit together so that the struct
// stays in the 112-byte size class: a volume is mostly nodes.
type node struct {
	id     ino
	parent ino
	kind   nodeKind
	perms  uint16
	size   uint32 // a file's length in bytes
	// nlink counts directory entries binding this file; files with
	// several names make the inverse mapping many-to-one (§6).
	nlink int
	pages []uint32 // a file's bytes, in the volume's page store
	// entries is a directory's bindings in name order: a lookup is a
	// binary search, the context directory a single pass (§5.6), and the
	// child is at hand without a second lookup in the i-node table.
	entries []dirent
	name    string // a name within parent, for the inverse mapping (§6)
	owner   string
	mtime   vtime.Time
}

// volume is the in-memory file system state. It implements
// core.ContextStore so directories act as contexts.
type volume struct {
	mu        sync.Mutex
	nodes     map[ino]*node
	next      ino
	wellKnown map[core.ContextID]ino
	// listings holds each listed directory's full context directory, as
	// fabricated, until a change drops it (changed). A cached stream is
	// shared by every instance opened on it and never written: a directory
	// instance routes its writes to modify.
	listings map[ino]listing
	store    pageStore
}

// listing is a directory's encoded context directory and its record count.
type listing struct {
	stream []byte
	count  int
}

func newVolume() *volume {
	v := &volume{
		nodes:     make(map[ino]*node),
		wellKnown: make(map[core.ContextID]ino),
		listings:  make(map[ino]listing),
	}
	v.nodes[rootIno] = &node{
		id:    rootIno,
		kind:  kindDir,
		perms: proto.PermRead | proto.PermWrite,
	}
	v.next = rootIno
	return v
}

// find returns the index of name among the directory's entries and
// whether it is bound; unbound, the index is where it would be inserted.
func (n *node) find(name string) (int, bool) {
	lo, hi := 0, len(n.entries)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if n.entries[mid].name < name {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(n.entries) && n.entries[lo].name == name
}

func (v *volume) dir(ctx core.ContextID) (*node, error) {
	n, ok := v.nodes[ino(ctx)]
	if !ok || n.kind != kindDir {
		return nil, fmt.Errorf("%w: %#x", proto.ErrBadContext, uint32(ctx))
	}
	return n, nil
}

// NormalizeContext implements core.ContextStore: the default context is
// the root directory, well-known ids map through the configured alias
// table, and any other id must be a directory i-node.
func (v *volume) NormalizeContext(ctx core.ContextID) (core.ContextID, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if core.IsWellKnown(ctx) {
		concrete, ok := v.wellKnown[ctx]
		if !ok {
			return 0, fmt.Errorf("%w: well-known %#x not configured", proto.ErrBadContext, uint32(ctx))
		}
		ctx = core.ContextID(concrete)
	}
	if _, err := v.dir(ctx); err != nil {
		return 0, err
	}
	return ctx, nil
}

// LookupComponent implements core.ContextStore.
func (v *volume) LookupComponent(ctx core.ContextID, component string) (core.Entry, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	d, err := v.dir(ctx)
	if err != nil {
		return core.Entry{}, err
	}
	if component == ".." {
		return core.ContextEntry(core.ContextID(d.parent)), nil
	}
	i, ok := d.find(component)
	if !ok {
		// Bare: interpret names the component in its own error, and an
		// unbound last component (a create) is no error at all.
		return core.Entry{}, proto.ErrNotFound
	}
	child := d.entries[i].child
	if child == nil {
		return core.RemoteEntry(d.entries[i].remote), nil
	}
	if child.kind == kindDir {
		return core.ContextEntry(core.ContextID(child.id)), nil
	}
	return core.ObjectEntry(proto.TagFile, uint32(child.id)), nil
}

// setWellKnown configures the directory a well-known context id denotes.
func (v *volume) setWellKnown(ctx core.ContextID, dir ino) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.wellKnown[ctx] = dir
}

// dirFor returns the directory ctx names for a new binding of name,
// refusing a name no object may take. With v.mu held.
func (v *volume) dirFor(ctx core.ContextID, name string) (*node, error) {
	if name == "" || name == "." || name == ".." {
		return nil, fmt.Errorf("%w: bad name %q", proto.ErrBadArgs, name)
	}
	return v.dir(ctx)
}

// insert binds name in directory d to e's object, refusing a duplicate,
// and drops the listing that shows it. With v.mu held. The entry keeps
// name: callers pass a copy, never a view of a request (proto.CSName).
func (v *volume) insert(d *node, name string, e dirent, now vtime.Time) error {
	i, dup := d.find(name)
	if dup {
		return fmt.Errorf("%q: %w", name, proto.ErrDuplicateName)
	}
	e.name = name
	d.entries = slices.Insert(d.entries, i, e)
	d.mtime = now
	v.changed(d)
	return nil
}

// create makes an empty file or directory named name in ctx. A refused
// create takes no i-node number: the numbers are object ids on the wire.
func (v *volume) create(kind nodeKind, ctx core.ContextID, name, owner string, now vtime.Time) (*node, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	d, err := v.dirFor(ctx, name)
	if err != nil {
		return nil, err
	}
	name = strings.Clone(name)
	n := &node{id: v.next + 1, kind: kind, parent: d.id, name: name, owner: owner,
		perms: proto.PermRead | proto.PermWrite, mtime: now, nlink: 1}
	if err := v.insert(d, name, dirent{child: n}, now); err != nil {
		return nil, err
	}
	v.next = n.id
	v.nodes[n.id] = n
	return n, nil
}

// addAlias binds an additional name in ctx for an existing file — a
// same-server hard link. Directories cannot be aliased (no cycles).
func (v *volume) addAlias(ctx core.ContextID, name string, id uint32, now vtime.Time) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	d, err := v.dirFor(ctx, name)
	if err != nil {
		return err
	}
	n, ok := v.nodes[ino(id)]
	if !ok {
		return fmt.Errorf("%w: i-node %d", proto.ErrNotFound, id)
	}
	if n.kind != kindFile {
		return fmt.Errorf("%w: only files can be aliased", proto.ErrIllegalRequest)
	}
	if err := v.insert(d, strings.Clone(name), dirent{child: n}, now); err != nil {
		return err
	}
	n.nlink++
	v.changed(n)
	return nil
}

// addLink binds name in ctx to a context on another server (Figure 4's
// curved arrow). A name no lookup could reach — "", "." or ".." — is
// refused, as dirFor refuses it for every other binding.
func (v *volume) addLink(ctx core.ContextID, name string, target core.ContextPair, now vtime.Time) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	d, err := v.dirFor(ctx, name)
	if err != nil {
		return err
	}
	return v.insert(d, strings.Clone(name), dirent{remote: target}, now)
}

// remove unbinds name from ctx, deleting the object it names. Directories
// must be empty; removing a cross-server link removes only the binding —
// the remote objects are unaffected, exactly because the name lives here
// and the objects live there.
func (v *volume) remove(ctx core.ContextID, name string, now vtime.Time) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	d, err := v.dir(ctx)
	if err != nil {
		return err
	}
	i, ok := d.find(name)
	if !ok {
		return fmt.Errorf("%q: %w", name, proto.ErrNotFound)
	}
	if child := d.entries[i].child; child != nil {
		if child.kind == kindDir && len(child.entries) > 0 {
			return fmt.Errorf("%q: %w", name, proto.ErrNotEmpty)
		}
		// Its other names, if any, list its link count.
		v.changed(child)
		child.nlink--
		if child.nlink <= 0 {
			// Last name gone: the object dies with it.
			v.store.release(child)
			delete(v.nodes, child.id)
		}
	}
	d.entries = slices.Delete(d.entries, i, i+1)
	d.mtime = now
	v.changed(d)
	return nil
}

// removeByIno deletes an object by its low-level identifier, unbinding it
// from its parent directory (baseline-model support).
func (v *volume) removeByIno(id uint32, now vtime.Time) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	n, ok := v.nodes[ino(id)]
	if !ok || n.id == rootIno {
		return fmt.Errorf("%w: i-node %d", proto.ErrNotFound, id)
	}
	if n.kind == kindDir && len(n.entries) > 0 {
		return fmt.Errorf("i-node %d: %w", id, proto.ErrNotEmpty)
	}
	if n.nlink > 1 {
		// The recorded (parent, name) identifies only one of several
		// bindings; removal by UID is ambiguous (§6's many-to-one
		// problem seen from the baseline's side).
		return fmt.Errorf("i-node %d has %d names: %w", id, n.nlink, proto.ErrIllegalRequest)
	}
	parent, i := v.binder(n)
	if parent == nil {
		// The one name left is an alias: the recorded name was removed or
		// rebound, so unbinding it would miss this object or hit another.
		return fmt.Errorf("i-node %d: %w: its recorded name no longer names it", id, proto.ErrIllegalRequest)
	}
	parent.entries = slices.Delete(parent.entries, i, i+1)
	parent.mtime = now
	v.changed(parent)
	delete(v.listings, n.id)
	v.store.release(n)
	delete(v.nodes, n.id)
	return nil
}

// rename moves oldName in oldCtx to newName in newCtx (both directories
// on this server).
func (v *volume) rename(oldCtx core.ContextID, oldName string, newCtx core.ContextID, newName string, now vtime.Time) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	to, err := v.dirFor(newCtx, newName)
	if err != nil {
		return err
	}
	from, err := v.dir(oldCtx)
	if err != nil {
		return err
	}
	i, ok := from.find(oldName)
	if !ok {
		return fmt.Errorf("%q: %w", oldName, proto.ErrNotFound)
	}
	if _, dup := to.find(newName); dup {
		return fmt.Errorf("%q: %w", newName, proto.ErrDuplicateName)
	}
	e := from.entries[i]
	newName = strings.Clone(newName)
	e.name = newName
	from.entries = slices.Delete(from.entries, i, i+1)
	// Found only now: from and to may be one directory.
	j, _ := to.find(newName)
	to.entries = slices.Insert(to.entries, j, e)
	if child := e.child; child != nil {
		child.parent = to.id
		child.name = newName
		child.mtime = now
		v.changed(child)
	}
	from.mtime = now
	to.mtime = now
	v.changed(from)
	v.changed(to)
	return nil
}

// file returns the file with i-node number id. With v.mu held.
func (v *volume) file(id uint32) (*node, error) {
	n, ok := v.nodes[ino(id)]
	if !ok || n.kind != kindFile {
		return nil, fmt.Errorf("%w: i-node %d", proto.ErrNotFound, id)
	}
	return n, nil
}

// filePerms returns the permission bits of the file with the given
// i-node number, validating that it exists and is a file.
func (v *volume) filePerms(id uint32) (uint16, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	n, err := v.file(id)
	if err != nil {
		return 0, err
	}
	return n.perms, nil
}

// readAt copies file bytes at off into buf, returning the count and the
// file's length.
func (v *volume) readAt(id uint32, off int64, buf []byte) (int, int, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	n, err := v.file(id)
	if err != nil {
		return 0, 0, err
	}
	if off >= int64(n.size) {
		return 0, int(n.size), proto.ErrEndOfFile
	}
	return v.store.readAt(n, int(off), buf), int(n.size), nil
}

// writeAt stores bytes into a file at off, growing it as needed up to
// vio.MaxFileSize.
func (v *volume) writeAt(id uint32, off int64, data []byte, now vtime.Time) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("%w: negative offset", proto.ErrBadArgs)
	}
	if err := vio.CheckStored(off + int64(len(data))); err != nil {
		return 0, err
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	n, err := v.file(id)
	if err != nil {
		return 0, err
	}
	n.mtime = now
	v.changed(n)
	return v.store.writeAt(n, int(off), data), nil
}

// truncate empties a file.
func (v *volume) truncate(id uint32, now vtime.Time) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	n, err := v.file(id)
	if err != nil {
		return err
	}
	v.store.release(n)
	n.mtime = now
	v.changed(n)
	return nil
}

// size returns the current length of a file.
func (v *volume) size(id uint32) (int, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	n, err := v.file(id)
	if err != nil {
		return 0, err
	}
	return int(n.size), nil
}

// snapshot copies out a file's contents (program loading).
func (v *volume) snapshot(id uint32) ([]byte, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	n, err := v.file(id)
	if err != nil {
		return nil, err
	}
	out := make([]byte, n.size)
	v.store.readAt(n, 0, out)
	return out, nil
}

// describe fabricates a descriptor for the object the entry binds — names
// and descriptions are stored separately and joined on demand (§5.6).
func (e *dirent) describe() proto.Descriptor {
	n := e.child
	if n == nil {
		return proto.Descriptor{
			Tag:          proto.TagLink,
			Name:         e.name,
			Perms:        proto.PermRead,
			TypeSpecific: [2]uint32{uint32(e.remote.Server), uint32(e.remote.Ctx)},
		}
	}
	d := proto.Descriptor{
		ObjectID: uint32(n.id),
		Name:     e.name,
		Owner:    n.owner,
		Perms:    n.perms,
		Modified: uint64(n.mtime),
	}
	if n.kind == kindDir {
		d.Tag = proto.TagDirectory
		d.Size = uint32(len(n.entries))
	} else {
		d.Tag = proto.TagFile
		d.Size = n.size
		d.TypeSpecific[0] = uint32(n.nlink)
	}
	return d
}

// encodedSize is the encoded size of the record describe fabricates,
// without fabricating it: its strings are the entry's name and, for a
// local object, the owner.
func (e *dirent) encodedSize() int {
	rec := proto.Descriptor{Name: e.name}
	if e.child != nil {
		rec.Owner = e.child.owner
	}
	return rec.EncodedSize()
}

// describe fabricates the descriptor of the object named `name` in ctx.
func (v *volume) describe(ctx core.ContextID, name string) (proto.Descriptor, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	d, err := v.dir(ctx)
	if err != nil {
		return proto.Descriptor{}, err
	}
	if name == "" {
		self := dirent{name: d.name, child: d}
		return self.describe(), nil
	}
	i, ok := d.find(name)
	if !ok {
		return proto.Descriptor{}, fmt.Errorf("%q: %w", name, proto.ErrNotFound)
	}
	return d.entries[i].describe(), nil
}

// listing returns the context directory of ctx: the encoded description
// record of each binding whose name matches pattern, in name order, and
// the number of records. The full directory (pattern "") is fabricated
// once per change and kept, so the stream it returns is shared and must
// not be written; a pattern's is fabricated per call.
func (v *volume) listing(ctx core.ContextID, pattern string) ([]byte, int, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	d, err := v.dir(ctx)
	if err != nil {
		return nil, 0, err
	}
	if pattern != "" {
		stream, count := d.fabricate(pattern)
		return stream, count, nil
	}
	l, ok := v.listings[d.id]
	if !ok {
		l.stream, l.count = d.fabricate("")
		v.listings[d.id] = l
	}
	return l.stream, l.count, nil
}

// fabricate encodes the records of the directory's bindings that match
// pattern into one exactly-sized stream, returning it and the count.
func (d *node) fabricate(pattern string) ([]byte, int) {
	size, count := 0, 0
	for i := range d.entries {
		if core.MatchName(pattern, d.entries[i].name) {
			size += d.entries[i].encodedSize()
			count++
		}
	}
	buf := make([]byte, 0, size)
	for i := range d.entries {
		if core.MatchName(pattern, d.entries[i].name) {
			rec := d.entries[i].describe()
			buf = rec.AppendEncoded(buf)
		}
	}
	return buf, count
}

// changed drops every kept listing a change to n shows in, with v.mu
// held: n's own, and that of the directory binding it — or, when n is a
// file with several names or its recorded name no longer binds it, every
// listing, as the entries binding it are not recorded.
func (v *volume) changed(n *node) {
	delete(v.listings, n.id)
	if n.id == rootIno {
		return
	}
	if parent, _ := v.binder(n); parent != nil && n.nlink == 1 {
		delete(v.listings, parent.id)
		return
	}
	clear(v.listings)
}

// binder returns the directory whose entry i is n's recorded name (parent,
// name), or nil when that entry no longer binds n.
func (v *volume) binder(n *node) (*node, int) {
	parent, ok := v.nodes[n.parent]
	if !ok {
		return nil, 0
	}
	i, ok := parent.find(n.name)
	if !ok || parent.entries[i].child != n {
		return nil, 0
	}
	return parent, i
}

// modify applies the modifiable fields of a written descriptor to the
// object it names in ctx: owner and permission bits; other fields are
// ignored, as servers are free to do (§5.5).
func (v *volume) modify(ctx core.ContextID, rec proto.Descriptor, now vtime.Time) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	d, err := v.dir(ctx)
	if err != nil {
		return err
	}
	i, ok := d.find(rec.Name)
	if !ok {
		return fmt.Errorf("%q: %w", rec.Name, proto.ErrNotFound)
	}
	n := d.entries[i].child
	if n == nil {
		return fmt.Errorf("%q: %w: cannot modify a remote link's description here", rec.Name, proto.ErrIllegalRequest)
	}
	n.perms = rec.Perms
	if rec.Owner != "" {
		n.owner = rec.Owner
	}
	n.mtime = now
	v.changed(n)
	return nil
}

// pathOf reconstructs the pathname of a directory context by walking
// parent pointers — the inverse mapping, with all the §6 caveats (it
// returns *a* name, which may not be the one the client used).
func (v *volume) pathOf(ctx core.ContextID) (string, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	n, ok := v.nodes[ino(ctx)]
	if !ok {
		return "", fmt.Errorf("%w: %#x", proto.ErrBadContext, uint32(ctx))
	}
	if n.id == rootIno {
		return "/", nil
	}
	var parts []string
	for n.id != rootIno {
		parent, ok := v.nodes[n.parent]
		if !ok {
			return "", fmt.Errorf("%w: orphaned context", proto.ErrNotFound)
		}
		parts = append(parts, n.name)
		n = parent
	}
	var b []byte
	for i := len(parts) - 1; i >= 0; i-- {
		b = append(b, core.Separator)
		b = append(b, parts[i]...)
	}
	return string(b), nil
}

var _ core.ContextStore = (*volume)(nil)
