// Package pipeserver implements V-System pipes, one of the data sources
// and sinks the V I/O protocol unifies (§3.2): named, bounded byte
// streams connecting a writing program to a reading program through the
// same Open/Read/Write/Close interface as files.
//
// Because the I/O protocol is synchronous request/response, a read from
// an empty pipe (or a write to a full one) does not block the server: it
// answers with the standard Retry reply, and the client run-time retries
// after a back-off — the pattern V used for not-ready devices. A pipe
// whose writer has closed it drains to end-of-file.
package pipeserver

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/proto"
)

// DefaultCapacity is a pipe's buffer bound in bytes.
const DefaultCapacity = 4096

// pipe is one named pipe.
type pipe struct {
	id       uint32
	name     string
	buf      []byte
	capacity int
	closed   bool // writer closed: drain to EOF
	readers  int
	writers  int
}

// Server is the pipe server: a flat context of pipes.
type Server struct {
	*core.Flat[pipe]
}

// Start spawns a pipe server on host.
func Start(host *kernel.Host) (*Server, error) {
	s := &Server{}
	var err error
	s.Flat, err = core.NewFlat(host, "pipe-server", s,
		core.FlatKind[pipe]{Tag: proto.TagPipe, Describe: describe, Open: s.open,
			Size: func(p *pipe) int { return len(p.buf) }, Read: read, Write: write, Release: release})
	if err != nil {
		return nil, err
	}
	if err := s.StartService(kernel.ServicePipe, kernel.ScopeBoth); err != nil {
		return nil, err
	}
	return s, nil
}

func describe(p *pipe) proto.Descriptor {
	return proto.Descriptor{
		Tag:          proto.TagPipe,
		ObjectID:     p.id,
		Name:         p.name,
		Size:         uint32(len(p.buf)),
		Perms:        proto.PermRead | proto.PermWrite,
		TypeSpecific: [2]uint32{uint32(p.readers), uint32(p.writers)},
	}
}

// open opens a pipe end, creating the pipe on request; a closed pipe
// takes no new writer, but stays bound for its readers to drain.
func (s *Server) open(req *core.Request, res *core.Resolution, mode uint32) *proto.Message {
	var id uint32
	switch {
	case res.Entry == nil && mode&proto.ModeCreate == 0:
		return core.ErrorReplyMsg(proto.ErrNotFound)
	case res.Entry == nil:
		id = s.NewID()
		name := strings.Clone(res.Last) // res.Last lies in the request
		if err := s.Add(id, name, &pipe{id: id, name: name, capacity: DefaultCapacity}); err != nil {
			return core.ErrorReplyMsg(err)
		}
	case res.Entry.Kind != core.EntryObject:
		return core.ErrorReplyMsg(proto.ErrNotAContext)
	default:
		id = res.Entry.Object.ID
	}
	return s.OpenObject(req.Msg, id, res.Last, mode, proto.ModeRead|proto.ModeWrite, func(p *pipe) error {
		writes := mode&(proto.ModeWrite|proto.ModeAppend) != 0
		if writes && p.closed {
			return proto.ErrEndOfFile // what a write would answer
		}
		if mode&proto.ModeRead != 0 {
			p.readers++
		}
		if writes {
			p.writers++
		}
		return nil
	})
}

// read drains the pipe; offsets are meaningless on a stream. An empty
// open pipe answers Retry; an empty closed pipe answers end-of-file.
func read(_ *kernel.Process, p *pipe, _ int64, buf []byte) (int, error) {
	if len(p.buf) == 0 {
		if p.closed {
			return 0, proto.ErrEndOfFile
		}
		return 0, fmt.Errorf("%w: pipe empty", proto.ErrRetry)
	}
	n := copy(buf, p.buf)
	p.buf = p.buf[n:]
	return n, nil
}

// write appends to the pipe; a full pipe answers Retry.
func write(_ *kernel.Process, p *pipe, _ int64, data []byte) (int, error) {
	if p.closed {
		return 0, fmt.Errorf("%w: pipe closed", proto.ErrEndOfFile)
	}
	room := p.capacity - len(p.buf)
	if room <= 0 {
		return 0, fmt.Errorf("%w: pipe full", proto.ErrRetry)
	}
	n := min(len(data), room)
	p.buf = append(p.buf, data[:n]...)
	return n, nil
}

// release closes the end opened with mode; when the last writer goes,
// the pipe drains to EOF for readers.
func release(p *pipe, mode uint32) {
	if mode&proto.ModeRead != 0 && p.readers > 0 {
		p.readers--
	}
	if mode&(proto.ModeWrite|proto.ModeAppend) != 0 && p.writers > 0 {
		p.writers--
		if p.writers == 0 {
			p.closed = true
		}
	}
}
