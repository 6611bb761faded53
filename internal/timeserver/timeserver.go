// Package timeserver implements the V-System time service (§4.2): the
// paper's example of a simple service for which clients typically
// translate from service to real server pid on each operation, rather
// than caching the binding.
//
// The server answers OpQueryInstance-style time requests with the
// domain's virtual time. It also exposes its single "clock" object under
// the name-handling protocol, so even the time is a nameable, queryable
// object.
package timeserver

import (
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/proto"
	"repro/internal/vio"
)

// Server is the time server.
type Server struct {
	*core.Server
	store *core.MapStore
	reg   *vio.Registry
}

// clockObjectID is the id of the single clock object.
const clockObjectID = 1

// Start spawns a time server on host and registers the time service.
func Start(host *kernel.Host) (*Server, error) {
	proc, err := host.NewProcess("time-server")
	if err != nil {
		return nil, err
	}
	s := &Server{store: core.NewMapStore(), reg: vio.NewRegistry()}
	if err := s.store.Bind(core.CtxDefault, "clock",
		core.ObjectEntry(proto.TagServiceBinding, clockObjectID)); err != nil {
		return nil, err
	}
	s.Server = core.NewServer(proc, s.store, s, 1)
	if err := s.StartService(kernel.ServiceTime, kernel.ScopeBoth); err != nil {
		return nil, err
	}
	return s, nil
}

// clock fabricates the clock's description record as of the serving
// process's now.
func clock(p *kernel.Process) proto.Descriptor {
	now := p.Now()
	return proto.Descriptor{
		Tag:      proto.TagServiceBinding,
		ObjectID: clockObjectID,
		Name:     "clock",
		Modified: uint64(now),
		Size:     uint32(now / 1e9), // whole virtual seconds since boot
	}
}

// HandleNamed implements core.Handler: the clock object answers query,
// and the context lists it — the single list-directory command covers
// this context type too (§6).
func (s *Server) HandleNamed(req *core.Request, res *core.Resolution) *proto.Message {
	switch req.Msg.Op {
	case proto.OpQueryObject, proto.OpRemoveObject:
		if res.Entry == nil || res.Entry.Object == nil {
			return core.ErrorReplyMsg(proto.ErrNotFound)
		}
		if req.Msg.Op == proto.OpRemoveObject {
			break // the clock is the one name here, and it stays
		}
		d := clock(req.Proc())
		reply := core.OkReply()
		reply.Segment = d.AppendEncoded(nil)
		return reply
	case proto.OpCreateInstance:
		if proto.OpenMode(req.Msg)&proto.ModeDirectory == 0 {
			break // the clock is queried, not opened
		}
		_, pattern, err := core.DirectoryRequest(req.Msg, res)
		if err != nil {
			return core.ErrorReplyMsg(err)
		}
		records := core.FilterRecords([]proto.Descriptor{clock(req.Proc())}, pattern)
		return core.OpenDirectory(req.Proc(), s.reg, s.PID(),
			proto.EncodeDescriptors(records), len(records), res.Name, nil)
	}
	return core.ErrorReplyMsg(proto.ErrIllegalRequest)
}

// HandleOp implements core.Handler: OpEcho doubles as "get time" for the
// simple per-operation clients §4.2 describes — the reply's F[0]/F[1]
// carry the server's virtual time. The rest are the instance operations
// on an open directory.
func (s *Server) HandleOp(req *core.Request) *proto.Message {
	if req.Msg.Op == proto.OpEcho {
		reply := core.OkReply()
		now := uint64(req.Proc().Now())
		reply.F[0] = uint32(now >> 32)
		reply.F[1] = uint32(now)
		return reply
	}
	if reply := s.reg.HandleOp(req.Proc(), req.Msg, req.From); reply != nil {
		return reply
	}
	return core.ErrorReplyMsg(proto.ErrIllegalRequest)
}

// GetTime is the client stub the paper sketches: GetPid(time service) on
// each call, then one transaction.
func GetTime(proc *kernel.Process) (uint64, error) {
	pid, err := proc.GetPid(kernel.ServiceTime, kernel.ScopeBoth)
	if err != nil {
		return 0, err
	}
	reply, err := core.Transact(proc, pid, &proto.Message{Op: proto.OpEcho})
	if err != nil {
		return 0, err
	}
	return uint64(reply.F[0])<<32 | uint64(reply.F[1]), nil
}
