package fileserver

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/proto"
	"repro/internal/vio"
	"repro/internal/vtime"
)

// Option configures a file server.
type Option func(*FileServer)

// WithReadAhead controls sequential read-ahead in the server's buffer
// cache (on by default). The E3 experiment compares both settings.
func WithReadAhead(on bool) Option {
	return func(fs *FileServer) { fs.readAhead = on }
}

// WithTeam sets the server-team size — the number of serving processes
// (§3.1), an option of the file server alone. The default 1 is the
// calibrated single-process baseline; with n > 1 a receptionist forwards
// each request to one of n workers, so one client's disk wait overlaps
// other requests' compute.
func WithTeam(n int) Option {
	return func(fs *FileServer) { fs.teamSize = n }
}

// WithReadOnly makes the server refuse every mutation of its volume with
// NoPermission (mutation), as each member of a replicated file service
// does (PROTOCOL.md §11.3). Reads, opens for reading and context mapping
// are served as usual, and a name that leads out of the volume is passed
// on to the server holding it, which decides.
func WithReadOnly() Option {
	return func(fs *FileServer) { fs.readOnly = true }
}

// mutation reports whether msg would change a volume: a remove by name or
// identifier, rename, link, context-name change or modify, or an open
// (by name or identifier) to write, create, append or truncate. An open
// by identifier is judged by the mode openFileInstance would read from
// it.
func mutation(msg *proto.Message) bool {
	switch msg.Op {
	case proto.OpRemoveObject, proto.OpRemoveByUID, proto.OpRenameObject, proto.OpLinkObject,
		proto.OpAddContextName, proto.OpDeleteContextName, proto.OpModifyObject:
		return true
	case proto.OpCreateInstance, proto.OpOpenByUID:
		return proto.OpenMode(msg)&(proto.ModeWrite|proto.ModeCreate|proto.ModeAppend|proto.ModeTruncate) != 0
	}
	return false
}

// FileServer is a CSNH server implementing files and directories.
type FileServer struct {
	srv       *core.Server
	proc      *kernel.Process
	vol       *volume
	disk      *disk.Disk
	cache     *blockCache
	reg       *vio.Registry
	readAhead bool
	readOnly  bool
	teamSize  int
	hits      *metrics.Counter // buffer-cache hits, the fs_cache_hits_total series
	misses    *metrics.Counter // and misses
	// writeBack applies a record written into any directory the server
	// opened (its instance carries the context): one function, made once.
	writeBack vio.WriteBack
}

// Start spawns a file server process on host and runs it.
func Start(host *kernel.Host, name string, opts ...Option) (*FileServer, error) {
	proc, err := host.NewProcess("fileserver[" + name + "]")
	if err != nil {
		return nil, err
	}
	model := host.Kernel().Model()
	fs := &FileServer{
		proc:      proc,
		vol:       newVolume(),
		disk:      disk.New(model.DiskPageTime),
		cache:     newBlockCache(defaultCachePages),
		reg:       vio.NewRegistry(),
		readAhead: true,
		teamSize:  1,
		hits:      host.Kernel().NewCounter("fs_cache_hits_total", metrics.Labels{Server: name}),
		misses:    host.Kernel().NewCounter("fs_cache_misses_total", metrics.Labels{Server: name}),
	}
	for _, opt := range opts {
		opt(fs)
	}
	fs.writeBack = func(p *kernel.Process, ctx uint32, rec proto.Descriptor) error {
		return fs.vol.modify(core.ContextID(ctx), rec, p.Now())
	}
	fs.srv = core.NewServer(proc, fs.vol, fs, fs.teamSize)
	if err := fs.srv.Start(); err != nil {
		return nil, err
	}
	return fs, nil
}

// PID returns the server's process identifier.
func (fs *FileServer) PID() kernel.PID { return fs.proc.PID() }

// Proc returns the server process.
func (fs *FileServer) Proc() *kernel.Process { return fs.proc }

// RootPair returns the fully-qualified pair of the server's root context.
func (fs *FileServer) RootPair() core.ContextPair { return fs.srv.Pair(core.CtxDefault) }

// Disk exposes the simulated disk (for experiment statistics).
func (fs *FileServer) Disk() *disk.Disk { return fs.disk }

// --- boot-time seeding (used by the rig and examples) ---

// MkdirAll creates the directory path (like "/users/mann") and returns
// its context id.
func (fs *FileServer) MkdirAll(path, owner string) (core.ContextID, error) {
	ctx := core.ContextID(rootIno)
	for _, comp := range strings.Split(path, string(core.Separator)) {
		if comp == "" {
			continue
		}
		e, err := fs.vol.LookupComponent(ctx, comp)
		switch {
		case err == nil && e.Kind == core.EntryContext:
			ctx = e.Local
			continue
		case err == nil:
			return 0, fmt.Errorf("%q: %w", comp, proto.ErrNotAContext)
		case !core.IsNotFound(err):
			return 0, err
		}
		n, err := fs.vol.create(kindDir, ctx, comp, owner, fs.proc.Now())
		if err != nil {
			return 0, err
		}
		ctx = core.ContextID(n.id)
	}
	return ctx, nil
}

// WriteFile creates (or replaces) the file at path with contents.
func (fs *FileServer) WriteFile(path, owner string, contents []byte) error {
	dir, base := splitPath(path)
	ctx, err := fs.MkdirAll(dir, owner)
	if err != nil {
		return err
	}
	e, err := fs.vol.LookupComponent(ctx, base)
	var id uint32
	switch {
	case err == nil && e.Kind == core.EntryObject:
		id = e.Object.ID
		if err := fs.vol.truncate(id, fs.proc.Now()); err != nil {
			return err
		}
		fs.cache.invalidate(id)
	case err == nil:
		return fmt.Errorf("%q: %w", base, proto.ErrDuplicateName)
	case core.IsNotFound(err):
		n, err := fs.vol.create(kindFile, ctx, base, owner, fs.proc.Now())
		if err != nil {
			return err
		}
		id = uint32(n.id)
	default:
		return err
	}
	_, err = fs.vol.writeAt(id, 0, contents, fs.proc.Now())
	return err
}

// AddLink binds a name in the directory at dirPath to a context on
// another server.
func (fs *FileServer) AddLink(dirPath, name string, target core.ContextPair) error {
	ctx, err := fs.MkdirAll(dirPath, "")
	if err != nil {
		return err
	}
	return fs.vol.addLink(ctx, name, target, fs.proc.Now())
}

// SetWellKnown maps a well-known context id (home directory, standard
// programs, ...) to the directory at path.
func (fs *FileServer) SetWellKnown(ctx core.ContextID, path string) error {
	dir, err := fs.MkdirAll(path, "")
	if err != nil {
		return err
	}
	fs.vol.setWellKnown(ctx, ino(dir))
	return nil
}

func splitPath(path string) (dir, base string) {
	i := strings.LastIndexByte(path, byte(core.Separator))
	if i < 0 {
		return "", path
	}
	return path[:i], path[i+1:]
}

// --- protocol handler ---

// HandleNamed implements core.Handler for CSname operations that resolved
// on this server.
func (fs *FileServer) HandleNamed(req *core.Request, res *core.Resolution) *proto.Message {
	if fs.readOnly && mutation(req.Msg) {
		return proto.NewReply(proto.ReplyNoPermission)
	}
	switch req.Msg.Op {
	case proto.OpCreateInstance:
		return fs.handleOpen(req, res)
	case proto.OpQueryObject:
		return fs.handleQuery(req, res)
	case proto.OpModifyObject:
		return fs.handleModify(req, res)
	case proto.OpRemoveObject:
		return fs.handleRemove(req, res)
	case proto.OpRenameObject:
		return fs.handleRename(req, res)
	case proto.OpLinkObject:
		return fs.handleAlias(req, res)
	case proto.OpAddContextName:
		return fs.handleAddLink(req, res)
	case proto.OpDeleteContextName:
		return fs.handleRemove(req, res)
	case proto.OpLoadProgram:
		return fs.handleLoadProgram(req, res)
	default:
		return core.ErrorReplyMsg(proto.ErrIllegalRequest)
	}
}

// HandleOp implements core.Handler for non-name operations.
func (fs *FileServer) HandleOp(req *core.Request) *proto.Message {
	if fs.readOnly && mutation(req.Msg) {
		return proto.NewReply(proto.ReplyNoPermission)
	}
	if reply := fs.reg.HandleOp(req.Proc(), req.Msg, req.From); reply != nil {
		return reply
	}
	switch req.Msg.Op {
	case proto.OpGetContextName:
		path, err := fs.vol.pathOf(core.ContextID(req.Msg.F[0]))
		if err != nil {
			return core.ErrorReplyMsg(err)
		}
		reply := core.OkReply()
		reply.Segment = []byte(path)
		return reply
	case proto.OpOpenByUID:
		// Baseline support (§2.2 comparison): open by the low-level
		// identifier a centralized name server handed out, bypassing
		// name interpretation.
		return fs.openFileInstance(req.Proc(), req.Msg, req.Msg.F[3], "", proto.OpenMode(req.Msg))
	case proto.OpRemoveByUID:
		if err := fs.vol.removeByIno(req.Msg.F[3], req.Proc().Now()); err != nil {
			return core.ErrorReplyMsg(err)
		}
		return core.OkReply()
	default:
		return core.ErrorReplyMsg(proto.ErrIllegalRequest)
	}
}

func (fs *FileServer) handleOpen(req *core.Request, res *core.Resolution) *proto.Message {
	mode := proto.OpenMode(req.Msg)
	if mode&proto.ModeDirectory != 0 {
		ctx, ok := res.ResolvesToContext()
		switch {
		case ok:
		case res.Entry == nil && mode&proto.ModeCreate != 0:
			// Directory-mode create of an unbound name makes a new
			// context (the mkdir of the protocol).
			n, err := fs.vol.create(kindDir, res.Final, res.Last, "", req.Proc().Now())
			if err != nil {
				return core.ErrorReplyMsg(err)
			}
			ctx = core.ContextID(n.id)
		case res.Entry == nil:
			return core.ErrorReplyMsg(proto.ErrNotFound)
		case mode&proto.ModeCreate != 0:
			// The name is bound to a non-context object.
			return core.ErrorReplyMsg(proto.ErrDuplicateName)
		default:
			return core.ErrorReplyMsg(proto.ErrNotAContext)
		}
		pattern, err := proto.DirPattern(req.Msg)
		if err != nil {
			return core.ErrorReplyMsg(err)
		}
		return fs.openDirectoryInstance(req.Proc(), req.Msg, ctx, res.Name, pattern)
	}
	if _, isCtx := res.ResolvesToContext(); isCtx {
		return core.ErrorReplyMsg(fmt.Errorf("%w: opening a directory requires directory mode", proto.ErrModeNotSupported))
	}
	if res.Entry == nil {
		if mode&proto.ModeCreate == 0 {
			return core.ErrorReplyMsg(proto.ErrNotFound)
		}
		n, err := fs.vol.create(kindFile, res.Final, res.Last, "", req.Proc().Now())
		if err != nil {
			return core.ErrorReplyMsg(err)
		}
		return fs.openFileInstance(req.Proc(), req.Msg, uint32(n.id), res.Name, mode)
	}
	return fs.openFileInstance(req.Proc(), req.Msg, res.Entry.Object.ID, res.Name, mode)
}

// openFileInstance answers the open request msg with an instance of file
// id, in msg itself (core.OpenInstance).
func (fs *FileServer) openFileInstance(p *kernel.Process, msg *proto.Message, id uint32, name string, mode uint32) *proto.Message {
	perms, err := fs.vol.filePerms(id)
	if err != nil {
		return core.ErrorReplyMsg(err)
	}
	// Enforce the access-control bits of the file's description (§5.5):
	// they are exactly what the modify operation edits.
	if mode&proto.ModeRead != 0 && perms&proto.PermRead == 0 {
		return core.ErrorReplyMsg(proto.ErrNoPermission)
	}
	if mode&(proto.ModeWrite|proto.ModeAppend|proto.ModeTruncate) != 0 && perms&proto.PermWrite == 0 {
		return core.ErrorReplyMsg(proto.ErrNoPermission)
	}
	if mode&proto.ModeTruncate != 0 {
		if err := fs.vol.truncate(id, p.Now()); err != nil {
			return core.ErrorReplyMsg(err)
		}
		fs.cache.invalidate(id)
	}
	inst := &fileInstance{fs: fs, ino: id, mode: mode, prefetchBlock: -1}
	return core.OpenInstance(msg, fs.reg, fs.proc.PID(), inst, name)
}

// openDirectoryInstance answers the directory open msg with context ctx's
// listing, in msg itself (core.OpenDirectory).
func (fs *FileServer) openDirectoryInstance(p *kernel.Process, msg *proto.Message, ctx core.ContextID, name, pattern string) *proto.Message {
	stream, count, err := fs.vol.listing(ctx, pattern)
	if err != nil {
		return core.ErrorReplyMsg(err)
	}
	return core.OpenDirectory(p, msg, fs.reg, fs.proc.PID(), stream, count, name, ctx, fs.writeBack)
}

func (fs *FileServer) handleQuery(req *core.Request, res *core.Resolution) *proto.Message {
	model := req.Proc().Kernel().Model()
	req.Proc().ChargeCompute(model.DescriptorFabricateCost)
	var (
		d   proto.Descriptor
		err error
	)
	if ctx, ok := res.ResolvesToContext(); ok {
		d, err = fs.vol.describe(ctx, "")
	} else {
		d, err = fs.vol.describe(res.Final, res.Last)
	}
	if err != nil {
		return core.ErrorReplyMsg(err)
	}
	return core.AnswerDescriptor(req.Msg, d)
}

func (fs *FileServer) handleModify(req *core.Request, res *core.Resolution) *proto.Message {
	name, _, err := proto.CSName(req.Msg)
	if err != nil {
		return core.ErrorReplyMsg(err)
	}
	recBytes := req.Msg.Segment[len(name):]
	rec, _, err := proto.DecodeDescriptor(recBytes)
	if err != nil {
		return core.ErrorReplyMsg(err)
	}
	if res.Entry == nil {
		return core.ErrorReplyMsg(proto.ErrNotFound)
	}
	rec.Name = res.Last
	if err := fs.vol.modify(res.Final, rec, req.Proc().Now()); err != nil {
		return core.ErrorReplyMsg(err)
	}
	return core.OkReply()
}

func (fs *FileServer) handleRemove(req *core.Request, res *core.Resolution) *proto.Message {
	if res.Last == "" {
		return core.ErrorReplyMsg(fmt.Errorf("%w: cannot remove a context through itself", proto.ErrIllegalRequest))
	}
	if res.Entry == nil {
		return core.ErrorReplyMsg(proto.ErrNotFound)
	}
	if err := fs.vol.remove(res.Final, res.Last, req.Proc().Now()); err != nil {
		return core.ErrorReplyMsg(err)
	}
	return core.OkReply()
}

// secondName resolves the unbound name a rename or alias request carries
// after the first, in the same starting context. It must resolve within
// this server: a name cannot move to another server without its object.
func (fs *FileServer) secondName(req *core.Request, op string) (*core.Resolution, error) {
	newName, err := proto.RenameNewName(req.Msg)
	if err != nil {
		return nil, err
	}
	nres, fwd, err := core.Interpret(fs.vol, req.Proc(), newName, 0, core.ContextID(proto.CSNameContext(req.Msg)))
	switch {
	case err != nil:
		return nil, err
	case fwd != nil:
		return nil, fmt.Errorf("%w: %s across servers", proto.ErrIllegalRequest, op)
	case nres.Last == "":
		return nil, fmt.Errorf("%w: %s target is a context", proto.ErrBadArgs, op)
	case nres.Entry != nil:
		return nil, fmt.Errorf("%q: %w", nres.Last, proto.ErrDuplicateName)
	}
	return nres, nil
}

func (fs *FileServer) handleRename(req *core.Request, res *core.Resolution) *proto.Message {
	if res.Entry == nil {
		return core.ErrorReplyMsg(proto.ErrNotFound)
	}
	nres, err := fs.secondName(req, "rename")
	if err == nil {
		err = fs.vol.rename(res.Final, res.Last, nres.Final, nres.Last, req.Proc().Now())
	}
	if err != nil {
		return core.ErrorReplyMsg(err)
	}
	return core.OkReply()
}

// handleAlias implements OpLinkObject: an additional same-server name
// for an existing file, making the inverse mapping many-to-one (§6).
func (fs *FileServer) handleAlias(req *core.Request, res *core.Resolution) *proto.Message {
	if _, isCtx := res.ResolvesToContext(); isCtx {
		return core.ErrorReplyMsg(fmt.Errorf("%w: only files can be aliased", proto.ErrIllegalRequest))
	}
	if res.Entry == nil {
		return core.ErrorReplyMsg(proto.ErrNotFound)
	}
	nres, err := fs.secondName(req, "alias")
	if err == nil {
		err = fs.vol.addAlias(nres.Final, nres.Last, res.Entry.Object.ID, req.Proc().Now())
	}
	if err != nil {
		return core.ErrorReplyMsg(err)
	}
	return core.OkReply()
}

func (fs *FileServer) handleAddLink(req *core.Request, res *core.Resolution) *proto.Message {
	if res.Last == "" {
		return core.ErrorReplyMsg(proto.ErrBadArgs)
	}
	if res.Entry != nil {
		return core.ErrorReplyMsg(fmt.Errorf("%q: %w", res.Last, proto.ErrDuplicateName))
	}
	dyn, pid, ctx := proto.AddContextTarget(req.Msg)
	if dyn {
		return core.ErrorReplyMsg(fmt.Errorf("%w: file servers support only static links", proto.ErrModeNotSupported))
	}
	target := core.ContextPair{Server: kernel.PID(pid), Ctx: core.ContextID(ctx)}
	if err := fs.vol.addLink(res.Final, res.Last, target, req.Proc().Now()); err != nil {
		return core.ErrorReplyMsg(err)
	}
	return core.OkReply()
}

// handleLoadProgram transfers the named program image into the
// requester's buffer with MoveTo, the diskless-workstation program load
// path (§3.1). Program text is assumed to be in the server's memory
// buffers, as in the paper's measurement.
func (fs *FileServer) handleLoadProgram(req *core.Request, res *core.Resolution) *proto.Message {
	if res.Entry == nil || res.Entry.Kind != core.EntryObject {
		return core.ErrorReplyMsg(proto.ErrNotFound)
	}
	data, err := fs.vol.snapshot(res.Entry.Object.ID)
	if err != nil {
		return core.ErrorReplyMsg(err)
	}
	n, err := req.Proc().MoveTo(req.From, 0, data)
	if err != nil {
		return core.ErrorReplyMsg(err)
	}
	reply := core.OkReply()
	reply.F[3] = uint32(n)
	return reply
}

// fileInstance is an open file with per-instance read-ahead state. The
// serving process's clock is the time base for disk scheduling; under a
// server team concurrent workers may touch the same instance, so the
// read-ahead state is guarded by its own lock.
type fileInstance struct {
	fs   *FileServer
	ino  uint32
	mode uint32

	mu            sync.Mutex
	prefetchBlock int64 // block the buffer cache has prefetched (-1: none)
	prefetchDone  vtime.Time
}

func (fi *fileInstance) Info() proto.InstanceInfo {
	size, err := fi.fs.vol.size(fi.ino)
	if err != nil {
		size = 0
	}
	flags := uint32(0)
	if fi.mode&proto.ModeRead != 0 {
		flags |= proto.ModeRead
	}
	if fi.mode&(proto.ModeWrite|proto.ModeCreate|proto.ModeAppend) != 0 {
		flags |= proto.ModeWrite
	}
	return proto.InstanceInfo{
		SizeBytes: uint32(size),
		BlockSize: uint32(fi.fs.proc.Kernel().Model().DiskPageSize),
		Flags:     flags,
	}
}

// ReadAt serves one page, charging disk time to the serving process p: a
// page already prefetched by the buffer cache is ready at its
// prefetch-completion time; otherwise a synchronous fetch is issued. With
// read-ahead enabled, serving page p starts the fetch of page p+1
// immediately, so a sequential reader finds the next page (nearly) ready
// — the §3.1 streaming file access.
func (fi *fileInstance) ReadAt(p *kernel.Process, off int64, buf []byte) (int, error) {
	// The bytes and the length come from the i-node under one volume
	// lock; end-of-file is answered from it, without touching the disk.
	n, size, err := fi.fs.vol.readAt(fi.ino, off, buf)
	if err != nil {
		return 0, err
	}
	fi.mu.Lock()
	defer fi.mu.Unlock()
	pageSize := int64(p.Kernel().Model().DiskPageSize)
	block := off / pageSize
	clock := p.Clock()
	now := clock.Now()

	var ready vtime.Time
	switch {
	case fi.prefetchBlock == block:
		// The per-instance read-ahead already has it in flight.
		ready = fi.prefetchDone
		if now > ready {
			ready = now
		}
		fi.fs.cache.access(fi.ino, block, true)
	case fi.fs.cache.access(fi.ino, block, true):
		// Buffer cache hit: no disk time (§3.1's "already in the file
		// server's memory buffers").
		ready = now
		fi.fs.hits.Inc()
	default:
		ready = fi.fs.disk.Fetch(now)
		fi.fs.misses.Inc()
	}
	clock.Observe(ready)
	if fi.fs.readAhead {
		// A buffered next page is touched even past end-of-file; an
		// unbuffered one inside the file is fetched ahead.
		next := block + 1
		inFile := int64(size) > next*pageSize
		if !fi.fs.cache.access(fi.ino, next, inFile) && inFile {
			fi.prefetchBlock = next
			fi.prefetchDone = fi.fs.disk.Fetch(ready)
		}
	}
	return n, nil
}

// WriteAt stores data write-behind: the pages go to the buffer cache and
// the disk write completes asynchronously, so no disk latency is charged.
func (fi *fileInstance) WriteAt(p *kernel.Process, off int64, data []byte) (int, error) {
	n, err := fi.fs.vol.writeAt(fi.ino, off, data, p.Now())
	if err != nil {
		return 0, err
	}
	pageSize := int64(p.Kernel().Model().DiskPageSize)
	for b := off / pageSize; b <= (off+int64(n))/pageSize; b++ {
		fi.fs.cache.access(fi.ino, b, true)
	}
	return n, nil
}

func (fi *fileInstance) Release() error { return nil }

var _ vio.Instance = (*fileInstance)(nil)
var _ core.Handler = (*FileServer)(nil)
