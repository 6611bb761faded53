package fileserver

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/proto"
	"repro/internal/raceflag"
	"repro/internal/vtime"
)

// The reference model of a volume's name space: a directory is a hash map
// from name to (i-node number | remote pair), a listing is that map's
// keys put through sort.Strings, and a child is found by a second lookup
// in the i-node table — the structure the ordered entry slices replaced,
// kept here as the oracle they are checked against.

type modelEntry struct {
	child  ino
	remote *core.ContextPair
}

type modelNode struct {
	kind   nodeKind
	parent ino
	name   string
	owner  string
	perms  uint16
	nlink  int
	data   []byte // a file's bytes
	mtime  vtime.Time
	names  map[string]modelEntry
}

type model struct {
	nodes map[ino]*modelNode
	next  ino
}

func newModel() *model {
	return &model{nodes: map[ino]*modelNode{rootIno: {kind: kindDir, perms: proto.PermRead | proto.PermWrite, names: map[string]modelEntry{}}}}
}

func (m *model) dir(ctx core.ContextID) (*modelNode, error) {
	n, ok := m.nodes[ino(ctx)]
	if !ok || n.kind != kindDir {
		return nil, proto.ErrBadContext
	}
	return n, nil
}

func badName(name string) bool { return name == "" || name == "." || name == ".." }

func (m *model) create(kind nodeKind, ctx core.ContextID, name string, now vtime.Time) error {
	if badName(name) {
		return proto.ErrBadArgs
	}
	d, err := m.dir(ctx)
	if err != nil {
		return err
	}
	if _, dup := d.names[name]; dup {
		return proto.ErrDuplicateName
	}
	m.next++
	n := &modelNode{kind: kind, parent: ino(ctx), name: name, owner: "o", perms: proto.PermRead | proto.PermWrite, nlink: 1, mtime: now}
	if kind == kindDir {
		n.names = map[string]modelEntry{}
	}
	m.nodes[m.next] = n
	d.names[name] = modelEntry{child: m.next}
	d.mtime = now
	return nil
}

func (m *model) addAlias(ctx core.ContextID, name string, id uint32, now vtime.Time) error {
	if badName(name) {
		return proto.ErrBadArgs
	}
	d, err := m.dir(ctx)
	if err != nil {
		return err
	}
	n, ok := m.nodes[ino(id)]
	switch {
	case !ok:
		return proto.ErrNotFound
	case n.kind != kindFile:
		return proto.ErrIllegalRequest
	}
	if _, dup := d.names[name]; dup {
		return proto.ErrDuplicateName
	}
	d.names[name] = modelEntry{child: ino(id)}
	n.nlink++
	d.mtime = now
	return nil
}

func (m *model) addLink(ctx core.ContextID, name string, target core.ContextPair, now vtime.Time) error {
	if badName(name) {
		return proto.ErrBadArgs
	}
	d, err := m.dir(ctx)
	if err != nil {
		return err
	}
	if _, dup := d.names[name]; dup {
		return proto.ErrDuplicateName
	}
	d.names[name] = modelEntry{remote: &target}
	d.mtime = now
	return nil
}

func (m *model) remove(ctx core.ContextID, name string, now vtime.Time) error {
	d, err := m.dir(ctx)
	if err != nil {
		return err
	}
	e, ok := d.names[name]
	if !ok {
		return proto.ErrNotFound
	}
	if e.remote == nil {
		child := m.nodes[e.child]
		if child.kind == kindDir && len(child.names) > 0 {
			return proto.ErrNotEmpty
		}
		if child.nlink--; child.nlink <= 0 {
			delete(m.nodes, e.child)
		}
	}
	delete(d.names, name)
	d.mtime = now
	return nil
}

func (m *model) removeByIno(id uint32, now vtime.Time) error {
	n, ok := m.nodes[ino(id)]
	switch {
	case !ok || ino(id) == rootIno:
		return proto.ErrNotFound
	case n.kind == kindDir && len(n.names) > 0:
		return proto.ErrNotEmpty
	case n.nlink > 1:
		return proto.ErrIllegalRequest
	}
	// The recorded (parent, name) must still be a binding of this object:
	// once an alias outlives the name it was made from, it is not.
	parent, ok := m.nodes[n.parent]
	if !ok {
		return proto.ErrIllegalRequest
	}
	if e, ok := parent.names[n.name]; !ok || e.remote != nil || e.child != ino(id) {
		return proto.ErrIllegalRequest
	}
	delete(parent.names, n.name)
	parent.mtime = now
	delete(m.nodes, ino(id))
	return nil
}

func (m *model) rename(oldCtx core.ContextID, oldName string, newCtx core.ContextID, newName string, now vtime.Time) error {
	if badName(newName) {
		return proto.ErrBadArgs
	}
	from, err := m.dir(oldCtx)
	if err != nil {
		return err
	}
	to, err := m.dir(newCtx)
	if err != nil {
		return err
	}
	e, ok := from.names[oldName]
	if !ok {
		return proto.ErrNotFound
	}
	if _, dup := to.names[newName]; dup {
		return proto.ErrDuplicateName
	}
	delete(from.names, oldName)
	to.names[newName] = e
	if e.remote == nil {
		child := m.nodes[e.child]
		child.parent, child.name, child.mtime = ino(newCtx), newName, now
	}
	from.mtime, to.mtime = now, now
	return nil
}

func (m *model) write(id uint32, off int, data []byte, now vtime.Time) error {
	f, ok := m.nodes[ino(id)]
	if !ok || f.kind != kindFile {
		return proto.ErrNotFound
	}
	if end := off + len(data); end > len(f.data) {
		f.data = append(f.data, make([]byte, end-len(f.data))...)
	}
	copy(f.data[off:], data)
	f.mtime = now
	return nil
}

func (m *model) truncate(id uint32, now vtime.Time) error {
	f, ok := m.nodes[ino(id)]
	if !ok || f.kind != kindFile {
		return proto.ErrNotFound
	}
	f.data, f.mtime = nil, now
	return nil
}

// modify is a written-back description record: the perms always, the
// owner unless the record's is empty.
func (m *model) modify(ctx core.ContextID, rec proto.Descriptor, now vtime.Time) error {
	d, err := m.dir(ctx)
	if err != nil {
		return err
	}
	e, ok := d.names[rec.Name]
	switch {
	case !ok:
		return proto.ErrNotFound
	case e.remote != nil:
		return proto.ErrIllegalRequest
	}
	n := m.nodes[e.child]
	n.perms, n.mtime = rec.Perms, now
	if rec.Owner != "" {
		n.owner = rec.Owner
	}
	return nil
}

// list is the reference context directory: the names through
// sort.Strings, each joined with its description by a second lookup.
func (m *model) list(ctx core.ContextID) []proto.Descriptor {
	d := m.nodes[ino(ctx)]
	names := make([]string, 0, len(d.names))
	for name := range d.names {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]proto.Descriptor, 0, len(names))
	for _, name := range names {
		e := d.names[name]
		if e.remote != nil {
			out = append(out, proto.Descriptor{Tag: proto.TagLink, Name: name, Perms: proto.PermRead,
				TypeSpecific: [2]uint32{uint32(e.remote.Server), uint32(e.remote.Ctx)}})
			continue
		}
		n := m.nodes[e.child]
		rec := proto.Descriptor{ObjectID: uint32(e.child), Name: name, Owner: n.owner,
			Perms: n.perms, Modified: uint64(n.mtime)}
		if n.kind == kindDir {
			rec.Tag, rec.Size = proto.TagDirectory, uint32(len(n.names))
		} else {
			rec.Tag, rec.Size, rec.TypeSpecific[0] = proto.TagFile, uint32(len(n.data)), uint32(n.nlink)
		}
		out = append(out, rec)
	}
	return out
}

func (m *model) lookup(ctx core.ContextID, name string) (core.Entry, error) {
	d := m.nodes[ino(ctx)]
	if name == ".." {
		return core.ContextEntry(core.ContextID(d.parent)), nil
	}
	e, ok := d.names[name]
	switch {
	case !ok:
		return core.Entry{}, proto.ErrNotFound
	case e.remote != nil:
		return core.RemoteEntry(*e.remote), nil
	case m.nodes[e.child].kind == kindDir:
		return core.ContextEntry(core.ContextID(e.child)), nil
	}
	return core.ObjectEntry(proto.TagFile, uint32(e.child)), nil
}

// errClass reduces an error to the standard failure it wraps, so the
// volume's decorated errors compare with the model's bare ones.
func errClass(err error) error {
	for _, class := range []error{proto.ErrBadArgs, proto.ErrBadContext, proto.ErrNotFound,
		proto.ErrDuplicateName, proto.ErrNotEmpty, proto.ErrIllegalRequest} {
		if errors.Is(err, class) {
			return class
		}
	}
	return err
}

// modelNames is the pool random operations draw names from: shared
// prefixes and neighbours, so insertion points fall at the front, the
// middle and the end of a directory, plus the three names no entry may
// have.
var modelNames = []string{"a", "aa", "ab", "b", "ba", "c", "m", "mm", "x", "y", "z", "zz", "0", "~", "", ".", ".."}

// TestVolumeAgainstMapModel drives the volume and the reference model
// with the same seeded random operations and requires them to agree on
// every result, every context directory, every file's bytes and every
// lookup. Every directory is listed after every step through the volume's
// kept listings, so a change that fails to drop one fails at that step;
// every file is read whole after every step; lookups are compared every
// 16th. Writes land at any offset — unaligned, across a page boundary,
// past the end leaving a gap — and a removed file's pages are taken by
// the next file written, whose gap must read as zeros.
func TestVolumeAgainstMapModel(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			fs, _ := startFS(t)
			rng := rand.New(rand.NewSource(seed))
			m := newModel()
			name := func() string { return modelNames[rng.Intn(len(modelNames))] }
			// node draws an i-node number: mostly a live one of the wanted
			// kind (0 for any), sometimes one that never existed.
			node := func(kind nodeKind) ino {
				var ids []ino
				for id, n := range m.nodes {
					if kind == 0 || n.kind == kind {
						ids = append(ids, id)
					}
				}
				if len(ids) == 0 || rng.Intn(16) == 0 {
					return m.next + 5
				}
				sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
				return ids[rng.Intn(len(ids))]
			}
			dir := func() core.ContextID { return core.ContextID(node(kindDir)) }

			// write draws where a write lands and what it carries.
			write := func(id uint32) (int, []byte) {
				var size int
				if f, ok := m.nodes[ino(id)]; ok {
					size = len(f.data)
				}
				var off int
				switch rng.Intn(4) { // a fourth of writes start at 0
				case 0:
					off = rng.Intn(size + 1)
				case 1:
					// Past the end: the bytes between read as zeros.
					off = size + 1 + rng.Intn(2*pageSize)
				case 2:
					// Just before a page boundary, so most writes straddle it.
					off = (1+rng.Intn(4))*pageSize - 1 - rng.Intn(8)
				}
				data := make([]byte, rng.Intn(3*pageSize))
				rng.Read(data)
				return off, data
			}

			for step := 1; step <= 400; step++ {
				now := vtime.Time(step)
				var what string
				var got, want error
				switch op := rng.Intn(25); {
				case op < 5:
					d, n := dir(), name()
					what = fmt.Sprintf("createFile(%d, %q)", d, n)
					_, got = fs.vol.create(kindFile, d, n, "o", now)
					want = m.create(kindFile, d, n, now)
				case op < 8:
					d, n := dir(), name()
					what = fmt.Sprintf("mkdir(%d, %q)", d, n)
					_, got = fs.vol.create(kindDir, d, n, "o", now)
					want = m.create(kindDir, d, n, now)
				case op < 10:
					d, n, id := dir(), name(), uint32(node(0))
					what = fmt.Sprintf("addAlias(%d, %q, %d)", d, n, id)
					got = fs.vol.addAlias(d, n, id, now)
					want = m.addAlias(d, n, id, now)
				case op < 11:
					d, n := dir(), name()
					target := core.ContextPair{Server: kernel.PID(rng.Intn(9) + 1), Ctx: core.ContextID(rng.Intn(9))}
					what = fmt.Sprintf("addLink(%d, %q)", d, n)
					got = fs.vol.addLink(d, n, target, now)
					want = m.addLink(d, n, target, now)
				case op < 14:
					from, to, o, n := dir(), dir(), name(), name()
					if rng.Intn(2) == 0 {
						to = from
					}
					what = fmt.Sprintf("rename(%d, %q, %d, %q)", from, o, to, n)
					got = fs.vol.rename(from, o, to, n, now)
					want = m.rename(from, o, to, n, now)
				case op < 17:
					d, n := dir(), name()
					what = fmt.Sprintf("remove(%d, %q)", d, n)
					got = fs.vol.remove(d, n, now)
					want = m.remove(d, n, now)
				case op < 18:
					id := uint32(node(0))
					what = fmt.Sprintf("removeByIno(%d)", id)
					got = fs.vol.removeByIno(id, now)
					want = m.removeByIno(id, now)
				case op < 21:
					id := uint32(node(kindFile))
					off, data := write(id)
					what = fmt.Sprintf("writeAt(%d, %d, %d bytes)", id, off, len(data))
					_, got = fs.vol.writeAt(id, int64(off), data, now)
					want = m.write(id, off, data, now)
				case op < 22:
					// The file's pages go to the free list; a new file under
					// its name takes them back, with a gap before its bytes.
					id := uint32(node(kindFile))
					what = fmt.Sprintf("removeByIno(%d), then a new file with a gap", id)
					var d core.ContextID
					var n string
					if f, ok := m.nodes[ino(id)]; ok {
						d, n = core.ContextID(f.parent), f.name
					}
					got = fs.vol.removeByIno(id, now)
					want = m.removeByIno(id, now)
					if got != nil || want != nil {
						break
					}
					if _, err := fs.vol.create(kindFile, d, n, "o", now); err != nil {
						t.Fatalf("step %d %s: createFile(%d, %q): %v", step, what, d, n, err)
					}
					if err := m.create(kindFile, d, n, now); err != nil {
						t.Fatalf("step %d %s: model createFile(%d, %q): %v", step, what, d, n, err)
					}
					data := make([]byte, 1+rng.Intn(pageSize))
					rng.Read(data)
					off := 1 + rng.Intn(2*pageSize)
					_, got = fs.vol.writeAt(uint32(m.next), int64(off), data, now)
					want = m.write(uint32(m.next), off, data, now)
				case op < 23:
					id := uint32(node(kindFile))
					what = fmt.Sprintf("truncate(%d)", id)
					got = fs.vol.truncate(id, now)
					want = m.truncate(id, now)
				case op < 24:
					d := dir()
					rec := proto.Descriptor{Name: name(), Perms: uint16(rng.Intn(8))}
					if rng.Intn(2) == 0 {
						rec.Owner = modelNames[rng.Intn(6)]
					}
					what = fmt.Sprintf("modify(%d, %+v)", d, rec)
					got = fs.vol.modify(d, rec, now)
					want = m.modify(d, rec, now)
				default:
					// Taking an image reads the volume and changes
					// nothing the model can see.
					what = "Image"
					fs.Image()
				}
				if errClass(got) != want {
					t.Fatalf("step %d %s: volume says %v, model says %v", step, what, got, want)
				}
				compareWithModel(t, fs.vol, m, fmt.Sprintf("step %d %s", step, what), step%16 == 0)
			}
		})
	}
}

func compareWithModel(t *testing.T, v *volume, m *model, when string, lookups bool) {
	t.Helper()
	if len(v.nodes) != len(m.nodes) || v.next != m.next {
		t.Fatalf("%s: i-node table has %d nodes, next %d; model %d, next %d", when, len(v.nodes), v.next, len(m.nodes), m.next)
	}
	for id, n := range m.nodes {
		if n.kind != kindFile {
			continue
		}
		// One byte more than the model holds, so a longer file shows.
		buf := make([]byte, len(n.data)+1)
		got, length, err := v.readAt(uint32(id), 0, buf)
		size, sizeErr := v.size(uint32(id))
		wantErr := error(nil)
		if len(n.data) == 0 {
			wantErr = proto.ErrEndOfFile
		}
		if err != wantErr || sizeErr != nil || length != len(n.data) || size != len(n.data) || !bytes.Equal(buf[:got], n.data) {
			t.Fatalf("%s: file %d reads %d of %d bytes (size %d), %v; model holds %d", when, id, got, length, size, err, len(n.data))
		}
	}
	for id, n := range m.nodes {
		if n.kind != kindDir {
			continue
		}
		ctx := core.ContextID(id)
		stream, count, err := v.listing(ctx, "")
		if err != nil {
			t.Fatalf("%s: listing(%d): %v", when, id, err)
		}
		got, err := proto.DecodeDescriptors(stream)
		want := m.list(ctx)
		if err != nil || count != len(want) || len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: list(%d)\n got %+v\nwant %+v", when, id, got, want)
		}
		if !lookups {
			continue
		}
		bound := make(map[string]proto.Descriptor, len(want))
		for _, rec := range want {
			bound[rec.Name] = rec
		}
		for _, name := range modelNames {
			e, err := v.LookupComponent(ctx, name)
			wantE, wantErr := m.lookup(ctx, name)
			if errClass(err) != wantErr || !reflect.DeepEqual(e, wantE) {
				t.Fatalf("%s: LookupComponent(%d, %q) = %+v, %v; model %+v, %v", when, id, name, e, err, wantE, wantErr)
			}
			rec, err := v.describe(ctx, name)
			if wantRec, ok := bound[name]; ok {
				if err != nil || rec != wantRec {
					t.Fatalf("%s: describe(%d, %q) = %+v, %v; want %+v", when, id, name, rec, err, wantRec)
				}
			} else if name == "" {
				// The empty name describes the directory itself.
				if err != nil || rec.ObjectID != uint32(id) || rec.Tag != proto.TagDirectory || rec.Size != uint32(len(want)) {
					t.Fatalf("%s: describe(%d, \"\") = %+v, %v", when, id, rec, err)
				}
			} else if errClass(err) != proto.ErrNotFound {
				t.Fatalf("%s: describe(%d, %q) of an unbound name: %+v, %v", when, id, name, rec, err)
			}
		}
	}
}

// TestListAllocatesOnlyItsResult: fabricating a context directory is one
// pass over the directory's entries encoded into one exactly-sized
// stream — no descriptor slice, no name list, no sort, no per-entry
// lookups that allocate. The full directory is kept until a change: an
// unchanged repeat allocates nothing, a write to a listed file makes the
// next one fabricate again, and a pattern selects what is encoded, every
// time.
func TestListAllocatesOnlyItsResult(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("AllocsPerRun counts the race detector's own allocations")
	}
	fs, _ := startFS(t)
	ctx, err := fs.MkdirAll("/d", "o")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := fs.vol.create(kindFile, ctx, fmt.Sprintf("f%03d", i), "o", 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := fs.vol.create(kindDir, ctx, "sub", "o", 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.vol.addLink(ctx, "far", core.ContextPair{Server: 7, Ctx: 1}, 0); err != nil {
		t.Fatal(err)
	}
	first, err := fs.vol.LookupComponent(ctx, "f000")
	if err != nil {
		t.Fatal(err)
	}
	var (
		stream []byte
		count  int
		now    vtime.Time
	)
	written := []byte{'x'}
	if allocs := testing.AllocsPerRun(100, func() {
		now++
		_, _ = fs.vol.writeAt(first.Object.ID, 0, written, now)
		stream, count, _ = fs.vol.listing(ctx, "")
	}); allocs != 1 {
		t.Fatalf("directory of %d entries after a change: %v allocs, want 1", count, allocs)
	}
	got, err := proto.DecodeDescriptors(stream)
	if err != nil || count != 102 || len(got) != 102 || cap(stream) != len(stream) ||
		got[0].Name != "f000" || got[0].Modified != uint64(now) || got[0].Size != 1 ||
		got[100].Name != "far" || got[100].Tag != proto.TagLink || got[101].Name != "sub" {
		t.Fatalf("directory = %d records (count %d, %d bytes, cap %d), %v", len(got), count, len(stream), cap(stream), err)
	}
	if allocs := testing.AllocsPerRun(100, func() { stream, count, _ = fs.vol.listing(ctx, "") }); allocs != 0 || count != 102 {
		t.Fatalf("unchanged directory of %d entries: %v allocs, want 0", count, allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { stream, count, _ = fs.vol.listing(ctx, "f09?") }); allocs != 1 {
		t.Fatalf("pattern f09?: %v allocs, want 1", allocs)
	}
	if got, _ := proto.DecodeDescriptors(stream); count != 10 || len(got) != 10 || got[0].Name != "f090" || got[9].Name != "f099" {
		t.Fatalf("pattern f09? = %d records (count %d)", len(got), count)
	}
}
