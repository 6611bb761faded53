// Package timeserver implements the V-System time service (§4.2): the
// paper's example of a simple service for which clients typically
// translate from service to real server pid on each operation, rather
// than caching the binding.
//
// The server answers OpEcho time requests with the domain's virtual
// time. It also exposes its single "clock" object under the name-handling
// protocol, so even the time is a nameable, queryable object.
package timeserver

import (
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/proto"
)

// clock is the one object: its description is the serving process's now.
type clock struct{}

// clockObjectID is the id of the single clock object.
const clockObjectID = 1

// Server is the time server: a flat context holding the clock, which is
// queried and listed but not opened.
type Server struct {
	*core.Flat[clock]
}

// Start spawns a time server on host and registers the time service.
func Start(host *kernel.Host) (*Server, error) {
	s := &Server{}
	var err error
	s.Flat, err = core.NewFlat(host, "time-server", s,
		core.FlatKind[clock]{Tag: proto.TagServiceBinding, Describe: s.describe})
	if err != nil {
		return nil, err
	}
	if err := s.Add(clockObjectID, "clock", &clock{}); err != nil {
		return nil, err
	}
	if err := s.StartService(kernel.ServiceTime, kernel.ScopeBoth); err != nil {
		return nil, err
	}
	return s, nil
}

// describe fabricates the clock's description record as of the server's
// now (core.FlatKind).
func (s *Server) describe(*clock) proto.Descriptor {
	now := s.Proc().Now()
	return proto.Descriptor{
		Tag:      proto.TagServiceBinding,
		ObjectID: clockObjectID,
		Name:     "clock",
		Modified: uint64(now),
		Size:     uint32(now / 1e9), // whole virtual seconds since boot
	}
}

// HandleNamed implements core.Handler: the clock is the one name here,
// and it stays.
func (s *Server) HandleNamed(req *core.Request, res *core.Resolution) *proto.Message {
	if req.Msg.Op == proto.OpRemoveObject && res.Entry != nil {
		return core.ErrorReplyMsg(proto.ErrIllegalRequest)
	}
	return s.Flat.HandleNamed(req, res)
}

// HandleOp implements core.Handler: OpEcho doubles as "get time" for the
// simple per-operation clients §4.2 describes — the reply's F[0]/F[1]
// carry the server's virtual time. The rest are the standard ones.
func (s *Server) HandleOp(req *core.Request) *proto.Message {
	if req.Msg.Op != proto.OpEcho {
		return s.Flat.HandleOp(req)
	}
	reply := core.OkReply()
	now := uint64(req.Proc().Now())
	reply.F[0] = uint32(now >> 32)
	reply.F[1] = uint32(now)
	return reply
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
