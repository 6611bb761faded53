package core

import (
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/kernel"
	"repro/internal/proto"
	"repro/internal/vio"
)

// OpenInstance registers inst in reg under the name it was opened by and
// answers the open request msg, in msg itself (proto.AnswerIn), as every
// CSNH server does: the instance parameters and the pid of the server
// implementing it — a team's receptionist, the address instance
// operations go to (§3.2). A failure is a fresh message. name may be a
// view of msg: the registry keeps a copy, made before the answer.
func OpenInstance(msg *proto.Message, reg *vio.Registry, owner kernel.PID, inst vio.Instance, name string) *proto.Message {
	info, err := reg.Open(inst, name)
	if err != nil {
		return ErrorReplyMsg(err)
	}
	reply := proto.AnswerIn(msg, proto.ReplyOK)
	proto.SetInstanceInfo(reply, info)
	proto.SetInstanceOwner(reply, uint32(owner))
	return reply
}

// OpenDirectory answers the directory open msg (§5.6), as OpenInstance
// does, from context ctx's directory stream: the count records the
// pattern selected and stream encodes are charged to the serving process
// p at DescriptorFabricateCost each — before the instance exists, and
// only those — and opened as a context directory whose written-back
// records go to modify with ctx (nil: read-only).
func OpenDirectory(p *kernel.Process, msg *proto.Message, reg *vio.Registry, owner kernel.PID, stream []byte, count int, name string, ctx ContextID, modify vio.WriteBack) *proto.Message {
	p.ChargeCompute(time.Duration(count) * p.Kernel().Model().DescriptorFabricateCost)
	return OpenInstance(msg, reg, owner, vio.NewDirectoryInstance(stream, uint32(ctx), modify), name)
}

// AnswerDescriptor answers the query request msg with d, encoded into
// msg's own segment (proto.AnswerIn). The handler must have read all it
// needs of the request. A string of d that is a view of msg's segment
// (proto.CSName) is copied out first: the record is written over it.
func AnswerDescriptor(msg *proto.Message, d proto.Descriptor) *proto.Message {
	if proto.Borrows(msg, d.Name) || proto.Borrows(msg, d.Owner) {
		d.Name, d.Owner = strings.Clone(d.Name), strings.Clone(d.Owner)
	}
	reply := proto.AnswerIn(msg, proto.ReplyOK)
	reply.Segment = d.AppendEncoded(reply.Segment)
	return reply
}

// FlatKind is what is particular to one flat server; the protocol half is
// Flat's.
type FlatKind[T any] struct {
	// Tag is the descriptor tag of the objects' bindings.
	Tag proto.DescriptorTag
	// Ctx is the context the objects are bound in.
	Ctx ContextID
	// Describe fabricates an object's description record. It runs with
	// Mu held.
	Describe func(*T) proto.Descriptor
	// Open is the server's own rule for a non-directory
	// OpCreateInstance: which names open, which create. Nil means the
	// objects cannot be opened.
	Open func(req *Request, res *Resolution, mode uint32) *proto.Message
	// Order returns the ids a directory lists, in listing order, with Mu
	// held; a stale id is skipped. Nil lists every object by ascending
	// id; ByName is the other ready-made order.
	Order func() []uint32

	// The operations of an open object, each run with Mu held; a kind
	// with an Open rule sets Size, Read and Write. Size is the byte count
	// an instance reports. Read and Write serve a block at byte offset
	// off, charging waits to the serving process p. Release, if set,
	// closes an instance opened with mode.
	Size    func(*T) int
	Read    func(p *kernel.Process, obj *T, off int64, buf []byte) (int, error)
	Write   func(p *kernel.Process, obj *T, off int64, data []byte) (int, error)
	Release func(obj *T, mode uint32)
}

// Flat is the CSNH server of a flat context of objects — the shape of the
// terminal, program, print, Internet, mail, pipe and time servers (§6): a
// table of objects under server-assigned ids, each bound by one name in
// one context of a MapStore, opened through a vio.Registry. It
// gives the standard answers (context directory, query, remove, the
// instance operations); a server adds its object type and FlatKind, and
// embeds the Flat so that its own HandleNamed or HandleOp, if it needs
// one, overrides the promoted one.
type Flat[T any] struct {
	*Server
	Store *MapStore
	reg   *vio.Registry

	// Mu guards the table and the state of the objects in it: every
	// instance operation runs with it held. Store.Bind and Unbind run
	// outside it.
	Mu   sync.Mutex
	objs map[uint32]*T
	next uint32

	kind FlatKind[T]
}

// NewFlat creates the server process on host and assembles a flat server
// around it, served by that one process; h is the embedding server. The
// caller may add contexts to Store before StartService makes the server
// reachable.
func NewFlat[T any](host *kernel.Host, name string, h Handler, kind FlatKind[T]) (*Flat[T], error) {
	proc, err := host.NewProcess(name)
	if err != nil {
		return nil, err
	}
	f := &Flat[T]{Store: NewMapStore(), reg: vio.NewRegistry(), objs: make(map[uint32]*T), kind: kind}
	f.Server = NewServer(proc, f.Store, h, 1)
	return f, nil
}

// Get returns the object with the given id, or nil. The caller holds Mu.
func (f *Flat[T]) Get(id uint32) *T { return f.objs[id] }

// ByName returns the objects' ids in the order of the names bound to
// them — the Order of a server whose directory lists by name.
func (f *Flat[T]) ByName() []uint32 {
	names, _ := f.Store.Names(f.kind.Ctx) // a context never added lists nothing
	ids := make([]uint32, 0, len(names))
	for _, n := range names {
		if e, err := f.Store.Lookup(f.kind.Ctx, n); err == nil && e.Kind == EntryObject {
			ids = append(ids, e.Object.ID)
		}
	}
	return ids
}

// NewID allocates the next object id. Ids are never reused (§4.3).
func (f *Flat[T]) NewID() uint32 {
	f.Mu.Lock()
	defer f.Mu.Unlock()
	f.next++
	return f.next
}

// Add enters obj in the table under id and binds name to it; a refused
// bind (a duplicate or empty name) leaves no object behind. The store
// keeps name (MapStore.Bind).
func (f *Flat[T]) Add(id uint32, name string, obj *T) error {
	f.Mu.Lock()
	f.objs[id] = obj
	f.Mu.Unlock()
	err := f.Store.Bind(f.kind.Ctx, name, ObjectEntry(f.kind.Tag, id))
	if err != nil {
		f.Mu.Lock()
		delete(f.objs, id)
		f.Mu.Unlock()
	}
	return err
}

// Remove takes object id out of the table and unbinds name, returning
// the object.
func (f *Flat[T]) Remove(id uint32, name string) (*T, error) {
	f.Mu.Lock()
	obj := f.objs[id]
	delete(f.objs, id)
	f.Mu.Unlock()
	if obj == nil {
		return nil, proto.ErrNotFound
	}
	return obj, f.Store.Unbind(f.kind.Ctx, name)
}

// OpenObject answers the open request msg (OpenInstance): object id,
// asked for in mode, as an instance granting flags (proto.ModeRead,
// proto.ModeWrite); opened, if set, runs with Mu held on the object
// found, and an error it returns refuses the open.
func (f *Flat[T]) OpenObject(msg *proto.Message, id uint32, name string, mode, flags uint32, opened func(*T) error) *proto.Message {
	f.Mu.Lock()
	obj := f.objs[id]
	var err error
	if obj == nil {
		err = proto.ErrNotFound
	} else if opened != nil {
		err = opened(obj)
	}
	f.Mu.Unlock()
	if err != nil {
		return ErrorReplyMsg(err)
	}
	return OpenInstance(msg, f.reg, f.PID(), &flatInstance[T]{f: f, obj: obj, mode: mode, flags: flags}, name)
}

// flatInstance is an open object of a flat server: each operation takes
// Mu and calls its kind's.
type flatInstance[T any] struct {
	f           *Flat[T]
	obj         *T
	mode, flags uint32
}

func (i *flatInstance[T]) Info() proto.InstanceInfo {
	i.f.Mu.Lock()
	defer i.f.Mu.Unlock()
	return proto.InstanceInfo{SizeBytes: uint32(i.f.kind.Size(i.obj)), BlockSize: vio.DefaultBlockSize, Flags: i.flags}
}

func (i *flatInstance[T]) ReadAt(p *kernel.Process, off int64, buf []byte) (int, error) {
	i.f.Mu.Lock()
	defer i.f.Mu.Unlock()
	return i.f.kind.Read(p, i.obj, off, buf)
}

func (i *flatInstance[T]) WriteAt(p *kernel.Process, off int64, data []byte) (int, error) {
	i.f.Mu.Lock()
	defer i.f.Mu.Unlock()
	return i.f.kind.Write(p, i.obj, off, data)
}

func (i *flatInstance[T]) Release() error {
	if i.f.kind.Release != nil {
		i.f.Mu.Lock()
		defer i.f.Mu.Unlock()
		i.f.kind.Release(i.obj, i.mode)
	}
	return nil
}

// ReadBytes is the read of an object whose bytes are data: a copy from
// off, end-of-file past the end.
func ReadBytes(data []byte, off int64, buf []byte) (int, error) {
	if off >= int64(len(data)) {
		return 0, proto.ErrEndOfFile
	}
	return copy(buf, data[off:]), nil
}

// HandleNamed implements Handler with the standard answers.
func (f *Flat[T]) HandleNamed(req *Request, res *Resolution) *proto.Message {
	switch req.Msg.Op {
	case proto.OpCreateInstance:
		mode := proto.OpenMode(req.Msg)
		if mode&proto.ModeDirectory != 0 {
			return f.openDirectory(req, res)
		}
		if f.kind.Open == nil {
			return ErrorReplyMsg(proto.ErrModeNotSupported)
		}
		return f.kind.Open(req, res, mode)

	case proto.OpQueryObject:
		if res.Entry == nil || res.Entry.Kind != EntryObject {
			return ErrorReplyMsg(proto.ErrNotFound)
		}
		f.Mu.Lock()
		obj := f.objs[res.Entry.Object.ID]
		var d proto.Descriptor
		if obj != nil {
			d = f.kind.Describe(obj)
		}
		f.Mu.Unlock()
		if obj == nil {
			return ErrorReplyMsg(proto.ErrNotFound)
		}
		req.Proc().ChargeCompute(req.Proc().Kernel().Model().DescriptorFabricateCost)
		return AnswerDescriptor(req.Msg, d)

	case proto.OpRemoveObject:
		if res.Entry == nil || res.Entry.Kind != EntryObject {
			return ErrorReplyMsg(proto.ErrNotFound)
		}
		if _, err := f.Remove(res.Entry.Object.ID, res.Last); err != nil {
			return ErrorReplyMsg(err)
		}
		return OkReply()

	default:
		return ErrorReplyMsg(proto.ErrIllegalRequest)
	}
}

// HandleOp implements Handler: the registry's instance operations.
func (f *Flat[T]) HandleOp(req *Request) *proto.Message {
	if reply := f.reg.HandleOp(req.Proc(), req.Msg, req.From); reply != nil {
		return reply
	}
	return ErrorReplyMsg(proto.ErrIllegalRequest)
}

// openDirectory answers a directory open: the name must denote a context
// and the pattern must lie inside the segment.
func (f *Flat[T]) openDirectory(req *Request, res *Resolution) *proto.Message {
	ctx, err := res.ContextOf()
	if err != nil {
		return ErrorReplyMsg(err)
	}
	pattern, err := proto.DirPattern(req.Msg)
	if err != nil {
		return ErrorReplyMsg(err)
	}
	var records []proto.Descriptor
	if ctx == f.kind.Ctx {
		records = f.describeAll()
	} else {
		records = f.describeContexts(ctx)
	}
	records = FilterRecords(records, pattern)
	return OpenDirectory(req.Proc(), req.Msg, f.reg, f.PID(), proto.EncodeDescriptors(records), len(records), res.Name, ctx, nil)
}

// describeAll snapshots the objects' records in listing order.
func (f *Flat[T]) describeAll() []proto.Descriptor {
	f.Mu.Lock()
	defer f.Mu.Unlock()
	var ids []uint32
	if f.kind.Order != nil {
		ids = f.kind.Order()
	} else {
		ids = make([]uint32, 0, len(f.objs))
		for id := range f.objs {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	}
	records := make([]proto.Descriptor, 0, len(ids))
	for _, id := range ids {
		if obj := f.objs[id]; obj != nil {
			records = append(records, f.kind.Describe(obj))
		}
	}
	return records
}

// describeContexts lists a context above the objects' own — a root whose
// names are the sub-contexts the server added to Store.
func (f *Flat[T]) describeContexts(ctx ContextID) []proto.Descriptor {
	names, _ := f.Store.Names(ctx) // ctx is where the name resolved: it exists
	records := make([]proto.Descriptor, 0, len(names))
	for _, n := range names {
		if e, err := f.Store.Lookup(ctx, n); err == nil && e.Kind == EntryContext {
			records = append(records, proto.Descriptor{Tag: proto.TagDirectory, Name: n, ObjectID: uint32(e.Local)})
		}
	}
	return records
}
