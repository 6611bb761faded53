package core

import (
	"errors"

	"repro/internal/kernel"
	"repro/internal/proto"
)

// Request is one received message being processed by a CSNH server.
type Request struct {
	Msg  *proto.Message
	From kernel.PID
	srv  *Server
	proc *kernel.Process

	// name/res hold the CSname and its resolution once interpretation
	// completed at this server; serve reads them to decorate a failure. res
	// points at resolution, the request's own storage for it.
	name       string
	res        *Resolution
	resolution Resolution
}

// Proc returns the process serving this request — the receptionist for a
// single-process server, the handling worker for a team (§3.1). Move
// operations and clock charges must go through it so one request's waits
// are charged to the process actually serving it.
func (r *Request) Proc() *kernel.Process {
	if r.proc != nil {
		return r.proc
	}
	return r.srv.proc
}

// Handler is the server-specific part of a CSNH server: the operations on
// the objects its store names.
type Handler interface {
	// HandleNamed processes a CSname request whose name interpretation
	// completed at this server (it was not forwarded). It returns the
	// reply message, or nil if the handler already replied or forwarded
	// itself. res's Name and Last lie in req.Msg (proto.CSName): what the
	// handler keeps of them past its reply, it copies.
	HandleNamed(req *Request, res *Resolution) *proto.Message
	// HandleOp processes a request that carries no CSname (instance
	// operations, inverse mappings, ...). Same reply convention.
	HandleOp(req *Request) *proto.Message
}

// Server is the skeleton every character-string name handling server
// embeds: it runs the serving team, performs the standard processing any
// CSNH server can do on any CSname request — validating the standard
// fields and running the name-mapping procedure, forwarding partially
// interpreted names to other servers — and dispatches what remains to the
// Handler (§5.3-5.4). The standard per-request logic is serve; the team
// runtime decides which process serves.
type Server struct {
	proc    *kernel.Process
	store   ContextStore
	handler Handler
	team    *Team
	// req is the receptionist's request storage: a served process
	// handles one request at a time, so a team of one reuses it instead
	// of allocating a Request and a Resolution per message. Handlers must
	// not keep either past their return.
	req Request

	series *ServeSeries
}

// NewServer assembles a CSNH server from its process, store and handler,
// served by a team of the given size (§3.1; NewTeam). Only the file
// server runs more than one process: every other server passes 1.
func NewServer(proc *kernel.Process, store ContextStore, handler Handler, team int) *Server {
	s := &Server{proc: proc, store: store, handler: handler, series: NewServeSeries(proc.Kernel(), proc.Name())}
	s.team = NewTeam(proc, team, s.serveOne, s.series.handoffs.Inc)
	return s
}

// Proc returns the server's receptionist process — its public identity.
func (s *Server) Proc() *kernel.Process { return s.proc }

// PID returns the server's public process identifier (the receptionist's;
// clients address the team through it).
func (s *Server) PID() kernel.PID { return s.proc.PID() }

// Pair returns the fully-qualified context pair for one of this server's
// contexts.
func (s *Server) Pair(ctx ContextID) ContextPair {
	return ContextPair{Server: s.proc.PID(), Ctx: ctx}
}

// RootPair returns the pair of the server's default (root) context.
func (s *Server) RootPair() ContextPair { return s.Pair(CtxDefault) }

// Start makes the server serve (Team.Start), returning the worker-spawn
// error if any.
func (s *Server) Start() error { return s.team.Start() }

// StartService starts the server and registers it as service. Boot order
// is pid order — the process, then its team's workers, then the
// registration — and pids are printed in traces, journals and listings.
func (s *Server) StartService(service kernel.Service, scope kernel.Scope) error {
	if err := s.Start(); err != nil {
		return err
	}
	return s.proc.SetPid(service, s.proc.PID(), scope)
}

// serveOne processes a single request on the serving process p and
// replies or forwards exactly once.
func (s *Server) serveOne(p *kernel.Process, msg *proto.Message, from kernel.PID) {
	sv := BeginServe(p, msg, from)
	req := &s.req
	if p != s.proc {
		// A team worker serves beside its peers.
		req = new(Request)
	}
	req.Msg, req.From, req.srv, req.proc = msg, from, s, p
	req.name, req.res = "", nil
	if reply := s.serve(req); reply != nil {
		sv.Reply(reply, s.series)
	} else {
		sv.Passed()
	}
}

// serve is the standard processing around every request: charge the
// fixed dispatch cost to the serving process and route the request —
// CSname requests get the standard name-mapping treatment, everything
// else goes to the handler. It returns nil when the request was forwarded
// or answered inside the handler.
//
// A failure reply to a request whose name interpretation completed here
// means the handler rejected the resolved final component, so it gets
// this server as the fault site — the client can then explain the failure
// even after forwarding (§7 deficiency); interpretation failures carry
// their fault details already.
//
// The reply it returns is sent, and recorded in the serve series, by
// serveOne (Serving.Reply).
func (s *Server) serve(req *Request) *proto.Message {
	p := req.Proc()
	p.ChargeCompute(p.Kernel().Model().ServerDispatchCost)
	var reply *proto.Message
	if req.Msg.Op.IsCSNameOp() {
		reply = s.serveCSName(req)
	} else {
		reply = s.handler.HandleOp(req)
	}
	if reply != nil && reply.Op != proto.ReplyOK && req.res != nil {
		if _, _, _, ok := proto.NameFault(reply); !ok {
			proto.SetNameFault(reply, len(req.name)-len(req.res.Last), uint32(s.PID()), req.res.Last)
		}
	}
	return reply
}

// serveCSName performs the standard CSname processing: even if this server
// does not understand the operation code, it can parse the standard fields
// and run the mapping procedure, forwarding if the name leads elsewhere
// (§5.3).
func (s *Server) serveCSName(req *Request) *proto.Message {
	name, index, err := proto.CSName(req.Msg)
	if err != nil {
		return ErrorReplyMsg(err)
	}
	// Deleting a context name operates on the binding itself; a final
	// component that points into another server must not be forwarded
	// there (§5.7).
	forwardFinal := req.Msg.Op != proto.OpDeleteContextName
	res, fwd, err := interpret(&req.resolution, s.store, req.Proc(), name, index, ContextID(proto.CSNameContext(req.Msg)), forwardFinal)
	if err != nil {
		return s.faultReply(err)
	}
	if fwd != nil {
		s.series.Forwarded(req.Proc(), req.Msg.Op)
		proto.RewriteCSName(req.Msg, uint32(fwd.Pair.Ctx), fwd.Index)
		// A failed forward has already failed the sender's transaction.
		_ = req.Proc().Forward(req.Msg, req.From, fwd.Pair.Server)
		return nil
	}
	req.name, req.res = name, res
	// OpMapContext is fully determined by the resolution, so the skeleton
	// implements it for every server (§5.7).
	if req.Msg.Op == proto.OpMapContext {
		return s.mapContextReply(req.Msg, res)
	}
	return s.handler.HandleNamed(req, res)
}

// faultReply builds a failure reply carrying name-fault details when the
// error is a NameError from interpretation.
func (s *Server) faultReply(err error) *proto.Message {
	reply := ErrorReplyMsg(err)
	var ne *NameError
	if errors.As(err, &ne) {
		proto.SetNameFault(reply, ne.Index, uint32(s.PID()), ne.Component)
	}
	return reply
}

// mapContextReply answers the OpMapContext request msg with the
// (server-pid, context-id) pair the name denotes, in msg itself; a
// failure is a fresh message, leaving msg for the sender's retry. The pid
// is the receptionist's — the team's public identity.
func (s *Server) mapContextReply(msg *proto.Message, res *Resolution) *proto.Message {
	ctx, ok := res.ResolvesToContext()
	if !ok {
		if res.Entry == nil {
			return ErrorReplyMsg(proto.ErrNotFound)
		}
		return ErrorReplyMsg(proto.ErrNotAContext)
	}
	reply := proto.AnswerIn(msg, proto.ReplyOK)
	proto.SetMapContextReply(reply, uint32(s.PID()), uint32(ctx))
	return reply
}

// ErrorReplyMsg builds a failure reply message from an error.
func ErrorReplyMsg(err error) *proto.Message {
	return proto.NewReply(proto.ErrorReply(err))
}

// OkReply builds an empty success reply.
func OkReply() *proto.Message { return proto.NewReply(proto.ReplyOK) }

// Transact is the client side of one protocol exchange: send req to
// server, map failure replies to errors. Failure replies carrying
// name-fault details become NameErrors, telling the user which component
// failed at which server — even when the request was forwarded through a
// series of servers (§7).
func Transact(proc *kernel.Process, server kernel.PID, req *proto.Message) (*proto.Message, error) {
	reply, err := proc.Send(req, server)
	if err != nil {
		return nil, err
	}
	if err := ReplyToError(reply); err != nil {
		return nil, err
	}
	return reply, nil
}

// ReplyToError maps a reply message to an error, decorating failures that
// carry name-fault details.
func ReplyToError(reply *proto.Message) error {
	err := proto.ReplyError(reply.Op)
	if err == nil {
		return nil
	}
	if idx, server, component, ok := proto.NameFault(reply); ok {
		return &NameError{
			Component: component,
			Index:     idx,
			Server:    kernel.PID(server),
			Err:       err,
		}
	}
	return err
}

// IsNotFound reports whether err denotes an unbound name.
func IsNotFound(err error) bool { return errors.Is(err, proto.ErrNotFound) }
