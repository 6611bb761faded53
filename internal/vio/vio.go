// Package vio implements the V I/O protocol (§3.2): uniform, file-like
// access to data sources and sinks — disk files, terminals, print queues,
// network connections, memory arrays, and context directories — over the
// kernel IPC as transport.
//
// The server side registers open instances in a Registry keyed by 16-bit
// object instance identifiers (§4.3) and serves the block-oriented
// instance operations. The client side wraps (server-pid, instance-id) in
// a File with sequential Read/Write/Close.
package vio

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/kernel"
	"repro/internal/proto"
)

// Instance is an open file-like object on the server side. Offsets are
// byte offsets; implementations return proto.ErrEndOfFile past the end.
// An instance's BlockSize and Flags are fixed for its life: the Registry
// reads them once, at Open, and serves every block by them.
//
// ReadAt and WriteAt receive the process serving the request (a server
// may be a multi-process team, §3.1) so device and compute waits are
// charged to the serving process's clock, not the team's receptionist.
// Instances may be served by concurrent team workers and must guard their
// own state.
type Instance interface {
	// Info returns the instance parameters (size, block size, modes).
	Info() proto.InstanceInfo
	// ReadAt fills buf from the object starting at off, charging waits
	// to the serving process p.
	ReadAt(p *kernel.Process, off int64, buf []byte) (int, error)
	// WriteAt stores data into the object starting at off, charging
	// waits to the serving process p.
	WriteAt(p *kernel.Process, off int64, data []byte) (int, error)
	// Release closes the instance. An error reports what the instance
	// could not finish, such as a write it was left holding.
	Release() error
}

const (
	// DefaultBlockSize is the conventional V page size.
	DefaultBlockSize = 512
	// MaxFileSize bounds the bytes a server stores for one object: a
	// write that would end past it is refused with NoServerResources, so
	// one request may not ask for the host's memory.
	MaxFileSize = 16 << 20
)

// CheckStored refuses, with NoServerResources, a write that would leave
// one object holding n bytes, past MaxFileSize.
func CheckStored(n int64) error {
	if n > MaxFileSize {
		return fmt.Errorf("%w: an object holds at most %d bytes", proto.ErrNoServerResources, MaxFileSize)
	}
	return nil
}

// Registry holds a server's open instances, keyed by object instance
// identifier. Identifiers are allocated so as to maximize the time before
// reuse (§4.3).
type Registry struct {
	mu        sync.Mutex
	instances map[uint16]slot // by value: an open allocates no slot
	next      uint16
}

type slot struct {
	inst Instance
	name string // the CSname the instance was opened by, for inverse mapping
	// blockSize and flags are the instance's fixed parameters, read at
	// Open.
	blockSize uint32
	flags     uint32
}

// NewRegistry returns an empty instance registry.
func NewRegistry() *Registry {
	return &Registry{instances: make(map[uint16]slot)}
}

// Open registers an instance, recording the name it was opened under, and
// returns its parameters with its new instance identifier. name may be a
// view of the open request (proto.CSName): the slot keeps a copy.
func (r *Registry) Open(inst Instance, name string) (proto.InstanceInfo, error) {
	info := inst.Info()
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.instances) >= 0xFFFE {
		return proto.InstanceInfo{}, fmt.Errorf("%w: instance table full", proto.ErrNoServerResources)
	}
	for {
		r.next++
		if r.next == 0 {
			r.next = 1
		}
		if _, used := r.instances[r.next]; !used {
			break
		}
	}
	r.instances[r.next] = slot{inst: inst, name: strings.Clone(name), blockSize: info.BlockSize, flags: info.Flags}
	info.ID = r.next
	return info, nil
}

// get returns the slot of the instance with the given identifier.
func (r *Registry) get(id uint16) (slot, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.instances[id]
	if !ok {
		return slot{}, fmt.Errorf("%w: instance %d", proto.ErrBadArgs, id)
	}
	return s, nil
}

// Release removes and releases an instance, returning the instance's own
// release error.
func (r *Registry) Release(id uint16) error {
	r.mu.Lock()
	s, ok := r.instances[id]
	delete(r.instances, id)
	r.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: instance %d", proto.ErrBadArgs, id)
	}
	return s.inst.Release()
}

// HandleOp serves the generic instance operations (query, read, write,
// release, instance-name) against the registry, returning nil for
// operation codes it does not handle so the caller can try its own. p is
// the process serving the request from `from`; instance waits are charged
// to it, and a block is read into the segment the reader granted
// (kernel ReplySegment) when that holds the block. A successful read,
// write or release is answered in msg itself (proto.AnswerIn); a failure
// is a fresh message.
func (r *Registry) HandleOp(p *kernel.Process, msg *proto.Message, from kernel.PID) *proto.Message {
	switch msg.Op {
	case proto.OpQueryInstance:
		s, err := r.get(uint16(msg.F[0]))
		if err != nil {
			return proto.NewReply(proto.ErrorReply(err))
		}
		info := s.inst.Info()
		info.ID = uint16(msg.F[0])
		reply := proto.NewReply(proto.ReplyOK)
		proto.SetInstanceInfo(reply, info)
		return reply

	case proto.OpReadInstance:
		s, err := r.get(uint16(msg.F[0]))
		if err != nil {
			return proto.NewReply(proto.ErrorReply(err))
		}
		if s.flags&proto.ModeRead == 0 {
			return proto.NewReply(proto.ReplyModeNotSupported)
		}
		count := msg.F[2]
		if count == 0 || count > s.blockSize {
			count = s.blockSize
		}
		buf := p.ReplySegment(from)
		if uint32(len(buf)) < count {
			buf = make([]byte, count)
		}
		n, err := s.inst.ReadAt(p, int64(msg.F[1])*int64(s.blockSize), buf[:count])
		if n == 0 && err != nil {
			return proto.NewReply(proto.ErrorReply(err))
		}
		return answered(msg, n, buf[:n])

	case proto.OpWriteInstance:
		s, err := r.get(uint16(msg.F[0]))
		if err != nil {
			return proto.NewReply(proto.ErrorReply(err))
		}
		if s.flags&proto.ModeWrite == 0 {
			return proto.NewReply(proto.ReplyModeNotSupported)
		}
		off := int64(msg.F[1])*int64(s.blockSize) + int64(msg.F[2])
		n, err := s.inst.WriteAt(p, off, msg.Segment)
		if err != nil {
			return proto.NewReply(proto.ErrorReply(err))
		}
		return answered(msg, n, nil)

	case proto.OpReleaseInstance:
		if err := r.Release(uint16(msg.F[0])); err != nil {
			return proto.NewReply(proto.ErrorReply(err))
		}
		return proto.AnswerIn(msg, proto.ReplyOK)

	case proto.OpGetInstanceName:
		// The inverse mapping from instance id to name (§5.7). As §6
		// discusses, this is the inverse of a many-to-one function: it
		// returns *a* name, the one used at open time, which may since have
		// been unbound.
		s, err := r.get(uint16(msg.F[0]))
		if err != nil {
			return proto.NewReply(proto.ErrorReply(err))
		}
		reply := proto.NewReply(proto.ReplyOK)
		reply.Segment = []byte(s.name)
		return reply

	default:
		return nil
	}
}

// answered turns the block request msg into its success reply: the
// instance id, the byte count n and the block read, if any.
func answered(msg *proto.Message, n int, block []byte) *proto.Message {
	id := msg.F[0]
	reply := proto.AnswerIn(msg, proto.ReplyOK)
	reply.F[0] = id
	reply.F[1] = uint32(n)
	reply.Segment = block
	return reply
}
