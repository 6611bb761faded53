// Package execserver implements the V-System program manager (§6): a
// per-workstation server that executes programs and names the programs in
// execution as objects in a context. Executing a program loads its image
// from the configured program directory (a context on a file server) via
// the LoadProgram/MoveTo path, creates a V process for it, and binds a
// name for it in the "programs in execution" context — which the single
// list-directory command can list like any other context (§6).
package execserver

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/proto"
)

// Body is the behaviour of a simulated program: it runs in the program's
// process, s.Proc(), until it returns or the process is destroyed. Its
// session carries the invoker's prefix server and current context, the
// environment §6 says every executed program is passed.
type Body func(s *client.Session)

// program is one program in execution.
type program struct {
	id       uint32
	name     string // binding in the programs-in-execution context
	image    string // program file name
	pid      kernel.PID
	started  time.Duration
	sizeText uint32
}

// Server is the program manager: a flat context of programs in
// execution. A program is made by OpExecProgram, not by opening a name.
type Server struct {
	*core.Flat[program]
	host *kernel.Host

	// programDir is the context the program image names are interpreted
	// in — normally the standard program directory on a file server.
	programDir core.ContextPair

	bodies map[string]Body // guarded by Mu, like the programs
}

// Start spawns a program manager on host, loading images from programDir.
func Start(host *kernel.Host, programDir core.ContextPair) (*Server, error) {
	s := &Server{host: host, programDir: programDir, bodies: make(map[string]Body)}
	var err error
	s.Flat, err = core.NewFlat(host, "program-manager", s,
		core.FlatKind[program]{Tag: proto.TagProgram, Describe: describe})
	if err != nil {
		return nil, err
	}
	if err := s.StartService(kernel.ServiceExec, kernel.ScopeLocal); err != nil {
		return nil, err
	}
	return s, nil
}

// RegisterBody associates behaviour with a program image name; programs
// without a registered body idle until killed.
func (s *Server) RegisterBody(image string, b Body) {
	s.Mu.Lock()
	defer s.Mu.Unlock()
	s.bodies[image] = b
}

func describe(p *program) proto.Descriptor {
	return proto.Descriptor{
		Tag:          proto.TagProgram,
		ObjectID:     p.id,
		Name:         p.name,
		Owner:        p.image,
		Size:         p.sizeText,
		Modified:     uint64(p.started),
		Perms:        proto.PermRead | proto.PermExecute,
		TypeSpecific: [2]uint32{uint32(p.pid), 0},
	}
}

// HandleNamed implements core.Handler: execution, and removal — which
// kills — ahead of the standard answers.
func (s *Server) HandleNamed(req *core.Request, res *core.Resolution) *proto.Message {
	switch req.Msg.Op {
	case proto.OpExecProgram:
		if res.Last == "" {
			return core.ErrorReplyMsg(proto.ErrBadArgs)
		}
		return s.exec(req.Proc(), res.Last, req.Msg)

	case proto.OpRemoveObject:
		// Removing a program's name from the context kills it.
		if res.Entry == nil || res.Entry.Kind != core.EntryObject {
			return core.ErrorReplyMsg(proto.ErrNotFound)
		}
		return s.kill(res.Entry.Object.ID, res.Last)

	default:
		return s.Flat.HandleNamed(req, res)
	}
}

// HandleOp implements core.Handler.
func (s *Server) HandleOp(req *core.Request) *proto.Message {
	if req.Msg.Op != proto.OpKillProgram {
		return s.Flat.HandleOp(req)
	}
	s.Mu.Lock()
	var name string
	if p := s.Get(req.Msg.F[0]); p != nil {
		name = p.name
	}
	s.Mu.Unlock()
	if name == "" {
		return core.ErrorReplyMsg(proto.ErrNotFound)
	}
	return s.kill(req.Msg.F[0], name)
}

// exec loads the program image from the program directory and starts it,
// passing along the invoker's naming environment (§6).
func (s *Server) exec(serving *kernel.Process, image string, req *proto.Message) *proto.Message {
	// Load the program text from the file server via MoveTo (§3.1). A
	// 64 KB buffer stands in for the program's text+data segments.
	buf := make([]byte, 64*1024)
	loadReq := &proto.Message{Op: proto.OpLoadProgram}
	proto.SetCSName(loadReq, uint32(s.programDir.Ctx), image)
	reply, err := serving.SendMove(loadReq, s.programDir.Server, nil, buf)
	if err != nil {
		// A kernel send failure maps onto a protocol error, so exec replies
		// stay within the standard reply codes.
		return core.ErrorReplyMsg(fmt.Errorf("load %q: %w: %v", image, proto.ErrDeviceError, err))
	}
	if err := proto.ReplyError(reply.Op); err != nil {
		return core.ErrorReplyMsg(fmt.Errorf("load %q: %w", image, err))
	}
	loaded := reply.F[3]

	s.Mu.Lock()
	body := s.bodies[image]
	s.Mu.Unlock()
	if body == nil {
		body = func(prog *client.Session) { <-prog.Proc().Done() }
	}
	id := s.NewID()
	prefixPid, curServer, curCtx := proto.ExecEnvironment(req)
	proc, err := s.host.Spawn("prog:"+image, func(p *kernel.Process) {
		// The program inherits the invoker's current context and prefix
		// server (§6).
		body(client.New(p, kernel.PID(prefixPid),
			core.ContextPair{Server: kernel.PID(curServer), Ctx: core.ContextID(curCtx)}, ""))
	})
	if err != nil {
		return core.ErrorReplyMsg(proto.ErrNoServerResources)
	}

	p := &program{
		id:       id,
		name:     fmt.Sprintf("%s.%d", image, id),
		image:    strings.Clone(image), // image lies in the request
		pid:      proc.PID(),
		started:  serving.Now(),
		sizeText: loaded,
	}
	if err := s.Add(id, p.name, p); err != nil {
		proc.Destroy()
		return core.ErrorReplyMsg(err)
	}

	out := core.OkReply()
	out.F[0] = id
	out.F[1] = uint32(proc.PID())
	out.Segment = []byte(p.name)
	return out
}

// kill unbinds a program's name and destroys its process.
func (s *Server) kill(id uint32, name string) *proto.Message {
	p, err := s.Remove(id, name)
	if p != nil {
		if victim, _ := findProcess(s.host.Kernel(), p.pid); victim != nil {
			victim.Destroy()
		}
	}
	if err != nil {
		return core.ErrorReplyMsg(err)
	}
	return core.OkReply()
}

// findProcess resolves a pid in the domain (helper around the kernel's
// internal lookup, via the host table).
func findProcess(k *kernel.Kernel, pid kernel.PID) (*kernel.Process, error) {
	h := k.HostByID(pid.Host())
	if h == nil {
		return nil, proto.ErrNotFound
	}
	return h.ProcessByPID(pid)
}
