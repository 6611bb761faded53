// Package client implements the V-System standard run-time routines for
// naming and I/O (§6): the procedural interface application programs use,
// hiding the message protocol.
//
// A Session carries a program's naming state: the pid of the user's
// context prefix server and the current context. Every CSname routine
// funnels through one common routing check — a name starting with '[' goes
// to the workstation's context prefix server (or, with a name cache, to
// the pair cached for its prefix), anything else is sent directly to the
// server implementing the current context, which is what makes
// current-context access cheap (§6).
package client

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/lease"
	"repro/internal/prefix"
	"repro/internal/proto"
	"repro/internal/vio"
)

// Session is one program's naming state.
type Session struct {
	proc         *kernel.Process
	prefixServer kernel.PID
	current      core.ContextPair
	user         string

	// cache, when non-nil, is the session's one name cache (lease.go):
	// prefixed names route through it and bypass the prefix server on
	// hits. cacheRetry says what a failed use of an entry does: drop it
	// and re-resolve once (always, under leases), or keep it and surface
	// the error (the naive §2.2 strawman). widestStale holds the widest
	// stale window observed per prefix, measured at the point of failure
	// (PROTOCOL.md §15).
	cache       *lease.Cache
	cacheRetry  bool
	widestStale map[string]time.Duration

	// currentName is the CSname the current context was entered by, kept
	// so the recovery policy can re-map the context if its server dies
	// (resilience.go). Empty when the context was installed directly.
	currentName string
	// recovery, when non-nil, applies the session's retry/rebind policy
	// to every operation (resilience.go).
	recovery *resilience

	// req is the session's one request message, as a V process has one
	// message buffer: every routine re-initialises it (request), sends it,
	// and reads its answer there (PROTOCOL.md §7). file is the instance
	// ReadFile, WriteFile, List and MakeContext open, use and close, one
	// at a time.
	req  proto.Message
	file vio.File
}

// New builds a session for a program running as proc, using the given
// context prefix server and initial current context.
func New(proc *kernel.Process, prefixServer kernel.PID, initial core.ContextPair, user string) *Session {
	return &Session{proc: proc, prefixServer: prefixServer, current: initial, user: user}
}

// Proc returns the session's process.
func (s *Session) Proc() *kernel.Process { return s.proc }

// User returns the session's user name.
func (s *Session) User() string { return s.user }

// Current returns the current context, the per-program state that makes
// relative naming cheap.
func (s *Session) Current() core.ContextPair { return s.current }

// SetCurrent installs a context pair directly (programs inherit their
// current context this way at startup, §6).
func (s *Session) SetCurrent(pair core.ContextPair) { s.current = pair }

// SetCurrentName records the CSname the current context corresponds to,
// for sessions whose context pair was installed directly rather than via
// ChangeContext. The recovery policy uses it to re-map a current context
// whose server has died.
func (s *Session) SetCurrentName(name string) { s.currentName = name }

// request re-initialises the session's request message for op, keeping
// its segment's storage, and returns it.
func (s *Session) request(op proto.Code) *proto.Message {
	s.req = proto.Message{Op: op, Segment: s.req.Segment[:0]}
	return &s.req
}

// route decides where a CSname request goes when no cache answers for
// it: the single common check for the standard context prefix character
// (§6).
func (s *Session) route(name string) core.ContextPair {
	if prefix.HasPrefix(name) {
		return core.ContextPair{Server: s.prefixServer, Ctx: core.CtxDefault}
	}
	return s.current
}

// send is the one routine every named request goes through: sendOnce
// under the session's recovery policy, so each attempt re-routes the name
// and a retry picks up re-resolved bindings. fill, if non-nil, appends
// what rides the segment after the name; moveDst is the MoveTo buffer, if
// any.
func (s *Session) send(name string, req *proto.Message, moveDst []byte, fill func(*proto.Message)) (*proto.Message, error) {
	orig := *req
	return s.withRecovery(name, func() (*proto.Message, error) {
		return s.sendOnce(name, req, &orig, moveDst, fill, true)
	})
}

// sendOnce is one attempt of send. It restores the request as the caller
// built it (orig) — a reply lost on its way back, or the recovery path's
// re-mapping of the current context (mapContextDirect), may have landed
// in req — and routes the name: a prefixed name through the session's
// cache, if it has one, any other through route. It then encodes the
// server-relative name, lets fill append its payload, charges the stub,
// sends and converts the reply. A failed send to a cached pair is stale
// (see stale), re-resolved and sent once more if mayRetry and the policy
// allow.
func (s *Session) sendOnce(name string, req, orig *proto.Message, moveDst []byte, fill func(*proto.Message), mayRetry bool) (*proto.Message, error) {
	*req = *orig
	var (
		pfx   string
		rest  int
		entry lease.Entry
		err   error
	)
	viaCache := s.cache != nil && prefix.HasPrefix(name)
	if viaCache {
		if pfx, rest, entry, err = s.cached(name); err != nil {
			return nil, err
		}
	} else {
		entry.Pair = s.route(name)
	}
	proto.SetCSName(req, uint32(entry.Pair.Ctx), name[rest:])
	if fill != nil {
		fill(req)
	}
	s.proc.ChargeCompute(s.proc.Kernel().Model().ClientStubCost)
	reply, err := s.proc.SendMove(req, entry.Pair.Server, nil, moveDst)
	if err != nil && viaCache {
		if s.stale(pfx, entry, mayRetry) {
			return s.sendOnce(name, req, orig, moveDst, fill, false)
		}
		return nil, fmt.Errorf("%q (stale cached resolution): %w", name, err)
	}
	if err == nil {
		err = core.ReplyToError(reply)
	}
	if err != nil {
		return nil, fmt.Errorf("%q: %w", name, err)
	}
	return reply, nil
}

// sendTo is send with an explicit destination (non-name operations):
// each attempt re-initialises the session's request for op and lets build
// fill it in, since a failed attempt's reply or a rebind's re-mapping may
// have landed there. Recovery here only waits out transient
// unreachability — there is no name to re-resolve a fixed pid by.
func (s *Session) sendTo(server kernel.PID, op proto.Code, build func(*proto.Message)) (*proto.Message, error) {
	return s.withRecovery("", func() (*proto.Message, error) {
		req := s.request(op)
		build(req)
		s.proc.ChargeCompute(s.proc.Kernel().Model().ClientStubCost)
		reply, err := s.proc.Send(req, server)
		if err == nil {
			err = core.ReplyToError(reply)
		}
		if err != nil {
			return nil, err
		}
		return reply, nil
	})
}

// opened makes f the instance an open reply describes, at the server the
// reply names as implementing it (core.OpenInstance): a forwarded open's
// instance lives at the final server, not the one the request went to.
func (s *Session) opened(f *vio.File, reply *proto.Message) *vio.File {
	return f.Init(s.proc, kernel.PID(proto.InstanceOwner(reply)), proto.GetInstanceInfo(reply))
}

// open opens name in mode as f — the session's own routines open s.file;
// pattern, for a directory open, rides the segment after the name
// (empty: none).
func (s *Session) open(f *vio.File, name string, mode uint32, pattern string) (*vio.File, error) {
	req := s.request(proto.OpCreateInstance)
	proto.SetOpenMode(req, mode)
	reply, err := s.send(name, req, nil, func(req *proto.Message) { proto.SetDirPattern(req, pattern) })
	if err != nil {
		return nil, err
	}
	return s.opened(f, reply), nil
}

// Open opens the named file-like object and returns its instance (§6's
// Open routine). The mode is a proto.Mode* bitmask.
func (s *Session) Open(name string, mode uint32) (*vio.File, error) {
	return s.open(new(vio.File), name, mode, "")
}

// List reads the context directory of the named context and decodes its
// description records.
func (s *Session) List(name string) ([]proto.Descriptor, error) {
	return s.ListPattern(name, "")
}

// readRecords reads an open context directory to its end, decodes its
// description records in the stream it read, which nothing else holds,
// and closes it.
func readRecords(f *vio.File) ([]proto.Descriptor, error) {
	defer f.Close()
	raw, err := f.ReadAll()
	if err != nil {
		return nil, err
	}
	return proto.DecodeDescriptors(raw)
}

// ListPattern reads the named context directory with a server-side match
// pattern ('*' and '?' globbing): only matching objects are collated and
// transmitted — the §5.6 extension. An empty pattern matches every
// object.
func (s *Session) ListPattern(name, pattern string) ([]proto.Descriptor, error) {
	f, err := s.open(&s.file, name, proto.ModeRead|proto.ModeDirectory, pattern)
	if err != nil {
		return nil, err
	}
	return readRecords(f)
}

// ListPrefixes reads the context directory of the user's prefix server —
// the per-user table of top-level context prefixes (§6).
func (s *Session) ListPrefixes() ([]proto.Descriptor, error) {
	reply, err := s.sendTo(s.prefixServer, proto.OpCreateInstance, func(req *proto.Message) {
		proto.SetCSName(req, uint32(core.CtxDefault), "")
		proto.SetOpenMode(req, proto.ModeRead|proto.ModeDirectory)
	})
	if err != nil {
		return nil, err
	}
	return readRecords(s.opened(&s.file, reply))
}

// ReadFile opens, reads and closes the named file.
func (s *Session) ReadFile(name string) ([]byte, error) {
	f, err := s.open(&s.file, name, proto.ModeRead, "")
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return f.ReadAll()
}

// WriteFile creates or truncates the named file with the given contents.
func (s *Session) WriteFile(name string, data []byte) error {
	f, err := s.open(&s.file, name, proto.ModeRead|proto.ModeWrite|proto.ModeCreate|proto.ModeTruncate, "")
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Query returns the typed description record of the named object (§5.5).
func (s *Session) Query(name string) (proto.Descriptor, error) {
	reply, err := s.send(name, s.request(proto.OpQueryObject), nil, nil)
	if err != nil {
		return proto.Descriptor{}, err
	}
	// The name is a copy: the record's bytes are the session's request.
	d, _, err := proto.DecodeDescriptor(reply.Segment)
	return d, err
}

// Modify overwrites the modifiable fields of the named object's
// description (§5.5).
func (s *Session) Modify(name string, d proto.Descriptor) error {
	_, err := s.send(name, s.request(proto.OpModifyObject), nil, func(req *proto.Message) {
		req.Segment = d.AppendEncoded(req.Segment)
	})
	return err
}

// Remove deletes the named object.
func (s *Session) Remove(name string) error {
	_, err := s.send(name, s.request(proto.OpRemoveObject), nil, nil)
	return err
}

// Rename gives the named object a new name on the same server. When both
// names carry the same context prefix, the prefix is stripped from the
// new name so the final server interprets it in the same rewritten
// context.
func (s *Session) Rename(oldName, newName string) error {
	return s.sendTwoNames(proto.OpRenameObject, "rename", oldName, newName)
}

// sendTwoNames sends a request carrying a second name after the first.
func (s *Session) sendTwoNames(op proto.Code, what, oldName, newName string) error {
	if prefix.HasPrefix(oldName) && prefix.HasPrefix(newName) {
		oldPfx, _, err := prefix.Parse(oldName, 0)
		if err != nil {
			return err
		}
		newPfx, rest, err := prefix.Parse(newName, 0)
		if err != nil {
			return err
		}
		if oldPfx != newPfx {
			return fmt.Errorf("%w: %s across context prefixes", proto.ErrIllegalRequest, what)
		}
		newName = newName[rest:]
	}
	_, err := s.send(oldName, s.request(op), nil, func(req *proto.Message) { proto.AppendNewName(req, newName) })
	return err
}

// MakeContext creates a new (empty) context with the given name — a
// directory-mode create, the protocol's mkdir.
func (s *Session) MakeContext(name string) error {
	f, err := s.open(&s.file, name, proto.ModeRead|proto.ModeDirectory|proto.ModeCreate, "")
	if err != nil {
		return err
	}
	return f.Close()
}

// Link gives the named file an additional name on the same server — the
// aliasing that makes the §6 inverse mapping many-to-one. Prefix handling
// follows Rename: a shared prefix is stripped from the new name.
func (s *Session) Link(oldName, newName string) error {
	return s.sendTwoNames(proto.OpLinkObject, "alias", oldName, newName)
}

// MapContext resolves a name to a fully-qualified context pair (§5.7).
func (s *Session) MapContext(name string) (core.ContextPair, error) {
	return mapped(s.send(name, s.request(proto.OpMapContext), nil, nil))
}

// mapped reads the context pair a MapContext reply carries.
func mapped(reply *proto.Message, err error) (core.ContextPair, error) {
	if err != nil {
		return core.ContextPair{}, err
	}
	pid, ctx := proto.GetMapContextReply(reply)
	return core.ContextPair{Server: kernel.PID(pid), Ctx: core.ContextID(ctx)}, nil
}

// ChangeContext changes the current context to the named context — the
// analogue of Unix chdir (§6).
func (s *Session) ChangeContext(name string) error {
	pair, err := s.MapContext(name)
	if err != nil {
		return err
	}
	s.current = pair
	s.currentName = name
	return nil
}

// AddName defines a context prefix at the user's prefix server, bound
// statically to a context pair (§5.7 optional operation).
func (s *Session) AddName(prefixName string, target core.ContextPair) error {
	_, err := s.sendTo(s.prefixServer, proto.OpAddContextName, func(req *proto.Message) {
		proto.SetCSName(req, 0, prefixName)
		proto.SetAddContextTarget(req, uint32(target.Server), uint32(target.Ctx))
	})
	return err
}

// AddDynamicName defines a context prefix bound to a
// (service, well-known-context) pair, re-resolved with GetPid per use
// (§6).
func (s *Session) AddDynamicName(prefixName string, service kernel.Service, wellKnown core.ContextID) error {
	_, err := s.sendTo(s.prefixServer, proto.OpAddContextName, func(req *proto.Message) {
		proto.SetCSName(req, 0, prefixName)
		proto.SetAddContextDynamicTarget(req, uint32(service), uint32(wellKnown))
	})
	return err
}

// DeleteName removes a context prefix definition.
func (s *Session) DeleteName(prefixName string) error {
	_, err := s.sendTo(s.prefixServer, proto.OpDeleteContextName, func(req *proto.Message) { proto.SetCSName(req, 0, prefixName) })
	return err
}

// AddLink binds a name on a file server to a context on another server —
// the cross-server pointer of Figure 4.
func (s *Session) AddLink(name string, target core.ContextPair) error {
	req := s.request(proto.OpAddContextName)
	proto.SetAddContextTarget(req, uint32(target.Server), uint32(target.Ctx))
	_, err := s.send(name, req, nil, nil)
	return err
}

// Unlink removes the binding of the named cross-server link (or other
// context name) without following it — OpDeleteContextName interpreted at
// the server holding the binding (§5.7).
func (s *Session) Unlink(name string) error {
	_, err := s.send(name, s.request(proto.OpDeleteContextName), nil, nil)
	return err
}

// LoadProgram transfers the named program image into buf via MoveTo,
// returning the number of bytes loaded — the diskless workstation program
// load (§3.1).
func (s *Session) LoadProgram(name string, buf []byte) (int, error) {
	reply, err := s.send(name, s.request(proto.OpLoadProgram), buf, nil)
	if err != nil {
		return 0, err
	}
	return int(reply.F[3]), nil
}

// Exec asks a program manager to execute the named program — e.g.
// "[exec]editor" through the prefix server, or a plain name in a current
// context served by a program manager. The invoker's naming environment
// (prefix server and current context) travels with the request, so the
// program starts with the invoker's current context (§6). It returns the
// program's name in the programs-in-execution context and its pid.
func (s *Session) Exec(name string) (progName string, pid kernel.PID, err error) {
	reply, err := s.send(name, s.request(proto.OpExecProgram), nil, func(req *proto.Message) {
		proto.SetExecEnvironment(req, uint32(s.prefixServer), uint32(s.current.Server), uint32(s.current.Ctx))
	})
	if err != nil {
		return "", kernel.NilPID, err
	}
	return string(reply.Segment), kernel.PID(reply.F[1]), nil
}

// CurrentName reconstructs a CSname for the current context — the §6
// inverse mapping, with its documented imperfections: it asks the current
// server to name the context id, then the prefix server to name the
// server's root; if no prefix matches, the server-relative path is
// returned alone.
func (s *Session) CurrentName() (string, error) {
	current := s.current
	reply, err := s.sendTo(current.Server, proto.OpGetContextName, func(req *proto.Message) { req.F[0] = uint32(current.Ctx) })
	if err != nil {
		return "", err
	}
	path := string(reply.Segment)

	preply, err := s.sendTo(s.prefixServer, proto.OpGetContextName, func(req *proto.Message) {
		req.F[0] = uint32(core.CtxDefault)
		req.F[1] = uint32(current.Server)
	})
	if err != nil {
		// No prefix names this server: return the server-relative path,
		// the best available answer (§6).
		return path, nil
	}
	if path == "/" {
		return string(preply.Segment), nil
	}
	return string(preply.Segment) + path, nil
}
