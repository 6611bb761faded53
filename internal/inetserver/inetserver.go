// Package inetserver implements the V-System Internet server (§6): a
// server running a simulated IP/TCP implementation, whose open TCP
// connections are named objects in a context. Opening
// "tcp/<destination>" creates a connection; the context directory lists
// the connections — one more context type unified under the
// name-handling protocol.
//
// The remote end is simulated by a configurable responder (default:
// character echo), standing in for the Internet hosts the paper's testbed
// reached through its IP/TCP server.
package inetserver

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/proto"
	"repro/internal/vio"
)

// tcpContext is the context id of the "tcp" subcontext holding
// connections.
const tcpContext core.ContextID = 1

// Responder simulates the remote endpoint of a connection: it receives
// the bytes written and returns the bytes to queue for reading.
type Responder func(dest string, sent []byte) []byte

// EchoResponder is the default remote endpoint: a character echo service.
func EchoResponder(_ string, sent []byte) []byte {
	out := make([]byte, len(sent))
	copy(out, sent)
	return out
}

// conn is one open TCP connection.
type conn struct {
	id       uint32
	dest     string
	sent     uint64
	received uint64
	inbox    []byte // bytes queued for the local reader
	opened   time.Duration
}

// Server is the Internet server: a flat context of connections, "tcp",
// under a root that lists it.
type Server struct {
	*core.Flat[conn]
	respond Responder
}

// Start spawns an Internet server on host.
func Start(host *kernel.Host) (*Server, error) {
	s := &Server{respond: EchoResponder}
	var err error
	s.Flat, err = core.NewFlat(host, "internet-server", s,
		core.FlatKind[conn]{Tag: proto.TagTCPConnection, Ctx: tcpContext, Describe: describe, Open: s.open,
			Size: func(c *conn) int { return len(c.inbox) }, Read: read, Write: s.write})
	if err != nil {
		return nil, err
	}
	s.Store.AddContext(tcpContext)
	if err := s.Store.Bind(core.CtxDefault, "tcp", core.ContextEntry(tcpContext)); err != nil {
		return nil, err
	}
	if err := s.StartService(kernel.ServiceInternet, kernel.ScopeBoth); err != nil {
		return nil, err
	}
	return s, nil
}

func describe(c *conn) proto.Descriptor {
	return proto.Descriptor{
		Tag:          proto.TagTCPConnection,
		ObjectID:     c.id,
		Name:         c.dest,
		Size:         uint32(c.sent + c.received),
		Perms:        proto.PermRead | proto.PermWrite,
		Modified:     uint64(c.opened),
		TypeSpecific: [2]uint32{uint32(c.sent), uint32(c.received)},
	}
}

// open opens a connection, dialling it on request. Connection names are
// the destination strings ("host:port"), which contain dots and colons
// the hierarchical separator convention never sees — name syntax under
// the protocol is server-defined (§5.1).
func (s *Server) open(req *core.Request, res *core.Resolution, mode uint32) *proto.Message {
	var id uint32
	switch {
	case res.Final != tcpContext:
		return core.ErrorReplyMsg(fmt.Errorf("%w: connections live in the tcp context", proto.ErrNotFound))
	case res.Entry == nil && mode&proto.ModeCreate == 0:
		return core.ErrorReplyMsg(proto.ErrNotFound)
	case res.Entry == nil:
		id = s.NewID()
		dest := strings.Clone(res.Last) // res.Last lies in the request
		if err := s.Add(id, dest, &conn{id: id, dest: dest, opened: req.Proc().Now()}); err != nil {
			return core.ErrorReplyMsg(err)
		}
	default:
		id = res.Entry.Object.ID
	}
	return s.OpenObject(req.Msg, id, res.Last, mode, proto.ModeRead|proto.ModeWrite, nil)
}

// read drains the inbox; offsets are ignored because a connection is a
// stream.
func read(_ *kernel.Process, c *conn, _ int64, buf []byte) (int, error) {
	if len(c.inbox) == 0 {
		return 0, proto.ErrEndOfFile
	}
	n := copy(buf, c.inbox)
	c.inbox = c.inbox[n:]
	c.received += uint64(n)
	return n, nil
}

// write sends to the (simulated) remote end, whose answer queues for
// reading. The round trip is charged at network cost.
func (s *Server) write(p *kernel.Process, c *conn, _ int64, data []byte) (int, error) {
	answer := s.respond(c.dest, data)
	if err := vio.CheckStored(int64(len(c.inbox) + len(answer))); err != nil {
		return 0, err
	}
	p.ChargeCompute(2 * p.Kernel().Model().RemoteHop(len(data)))
	c.sent += uint64(len(data))
	c.inbox = append(c.inbox, answer...)
	return len(data), nil
}
