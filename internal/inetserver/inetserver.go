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
		core.FlatKind[conn]{Tag: proto.TagTCPConnection, Ctx: tcpContext, Describe: describe, Open: s.open})
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
		if err := s.Add(id, res.Last, &conn{id: id, dest: res.Last, opened: req.Proc().Now()}); err != nil {
			return core.ErrorReplyMsg(err)
		}
	default:
		id = res.Entry.Object.ID
	}
	return s.OpenObject(id, res.Last, func(c *conn) vio.Instance { return &connInstance{s: s, c: c} })
}

// connInstance adapts a connection to the V I/O instance interface:
// writes send to the (simulated) remote end, reads drain the inbox.
type connInstance struct {
	s *Server
	c *conn
}

func (ci *connInstance) Info() proto.InstanceInfo {
	ci.s.Mu.Lock()
	defer ci.s.Mu.Unlock()
	return proto.InstanceInfo{
		SizeBytes: uint32(len(ci.c.inbox)),
		BlockSize: vio.DefaultBlockSize,
		Flags:     proto.ModeRead | proto.ModeWrite,
	}
}

// ReadAt drains from the inbox; offsets are ignored because a connection
// is a stream.
func (ci *connInstance) ReadAt(_ *kernel.Process, _ int64, buf []byte) (int, error) {
	ci.s.Mu.Lock()
	defer ci.s.Mu.Unlock()
	if len(ci.c.inbox) == 0 {
		return 0, proto.ErrEndOfFile
	}
	n := copy(buf, ci.c.inbox)
	ci.c.inbox = ci.c.inbox[n:]
	ci.c.received += uint64(n)
	return n, nil
}

func (ci *connInstance) WriteAt(p *kernel.Process, _ int64, data []byte) (int, error) {
	ci.s.Mu.Lock()
	responder := ci.s.respond
	dest := ci.c.dest
	ci.s.Mu.Unlock()
	// The remote round trip is charged at network cost.
	model := p.Kernel().Model()
	p.ChargeCompute(2 * model.RemoteHop(len(data)))
	back := responder(dest, data)
	ci.s.Mu.Lock()
	defer ci.s.Mu.Unlock()
	ci.c.sent += uint64(len(data))
	ci.c.inbox = append(ci.c.inbox, back...)
	return len(data), nil
}

func (ci *connInstance) Release() error { return nil }

var _ vio.Instance = (*connInstance)(nil)
