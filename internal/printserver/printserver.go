// Package printserver implements the V-System laser printer server (§6):
// print jobs are created by opening a named job in the printer's context,
// writing the data, and releasing the instance, which queues the job. The
// job queue is the server's context: the context directory lists the jobs
// with their queue positions, and removing a job's name cancels it —
// naming and object management are one mechanism (§2.3).
package printserver

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/proto"
	"repro/internal/vio"
)

// jobState tracks a job through the queue.
type jobState uint8

const (
	stateSpooling jobState = iota + 1
	stateQueued
	statePrinting
	stateDone
)

// job is one print job.
type job struct {
	id    uint32
	name  string
	data  []byte
	state jobState
}

// Server is the printer server: a flat context of jobs, listed in queue
// order.
type Server struct {
	*core.Flat[job]

	// Guarded by Mu, like the jobs.
	queue []uint32 // queued job ids in submission order
	// pageTime is the simulated print speed applied when the queue
	// advances.
	pageTime time.Duration
}

// Start spawns a printer server on host.
func Start(host *kernel.Host) (*Server, error) {
	s := &Server{pageTime: 2 * time.Second}
	var err error
	s.Flat, err = core.NewFlat(host, "print-server", s, core.FlatKind[job]{
		Tag: proto.TagPrintJob, Describe: s.describe, Open: s.open,
		// Spooling jobs are bound and queryable but not yet in the queue.
		Order: func() []uint32 { return s.queue },
	})
	if err != nil {
		return nil, err
	}
	if err := s.StartService(kernel.ServicePrinter, kernel.ScopeBoth); err != nil {
		return nil, err
	}
	return s, nil
}

// AdvanceQueue simulates the printer finishing the job at the head of the
// queue, charging print time to the server clock. It returns the name of
// the finished job, or "" if the queue is empty.
func (s *Server) AdvanceQueue() string {
	s.Mu.Lock()
	var j *job
	for j == nil && len(s.queue) > 0 {
		// An id whose job is gone is skipped, not mistaken for the end.
		j = s.Get(s.queue[0])
		s.queue = s.queue[1:]
	}
	if j == nil {
		s.Mu.Unlock()
		return ""
	}
	pages := (len(j.data) + vio.DefaultBlockSize - 1) / vio.DefaultBlockSize
	if pages == 0 {
		pages = 1
	}
	s.Proc().ChargeCompute(time.Duration(pages) * s.pageTime)
	j.state = stateDone
	if len(s.queue) > 0 {
		if head := s.Get(s.queue[0]); head != nil {
			head.state = statePrinting
		}
	}
	s.Mu.Unlock()
	_, _ = s.Remove(j.id, j.name) // fails only if a cancel got there first
	return j.name
}

// describe runs with Mu held (core.FlatKind).
func (s *Server) describe(j *job) proto.Descriptor {
	return proto.Descriptor{
		Tag:          proto.TagPrintJob,
		ObjectID:     j.id,
		Name:         j.name,
		Size:         uint32(len(j.data)),
		Perms:        proto.PermRead | proto.PermWrite,
		TypeSpecific: [2]uint32{uint32(s.position(j.id)), uint32(j.state)},
	}
}

// position returns a job's 1-based queue position, or 0 if not queued.
func (s *Server) position(id uint32) int {
	for i, q := range s.queue {
		if q == id {
			return i + 1
		}
	}
	return 0
}

// HandleNamed implements core.Handler. Cancelling a job is deleting its
// name from the queue context: the standard remove, once the job is out
// of the queue.
func (s *Server) HandleNamed(req *core.Request, res *core.Resolution) *proto.Message {
	if req.Msg.Op == proto.OpRemoveObject && res.Entry != nil && res.Entry.Object != nil {
		s.Mu.Lock()
		if i := s.position(res.Entry.Object.ID); i > 0 {
			s.queue = append(s.queue[:i-1], s.queue[i:]...)
		}
		s.Mu.Unlock()
	}
	return s.Flat.HandleNamed(req, res)
}

// open submits a job — created in spooling state and opened for writing;
// releasing the instance queues it — or re-opens an existing job, which
// gives read access to its data.
func (s *Server) open(_ *core.Request, res *core.Resolution, mode uint32) *proto.Message {
	var id uint32
	switch {
	case res.Entry == nil && mode&proto.ModeCreate != 0:
		id, mode = s.NewID(), proto.ModeWrite
		if err := s.Add(id, res.Last, &job{id: id, name: res.Last, state: stateSpooling}); err != nil {
			return core.ErrorReplyMsg(err)
		}
	case res.Entry == nil || res.Entry.Object == nil:
		return core.ErrorReplyMsg(proto.ErrNotFound)
	default:
		id, mode = res.Entry.Object.ID, proto.ModeRead
	}
	return s.OpenObject(id, res.Last, func(j *job) vio.Instance { return &jobInstance{s: s, j: j, mode: mode} })
}

// jobInstance spools data into a job; Release queues it for printing.
type jobInstance struct {
	s    *Server
	j    *job
	mode uint32
}

func (ji *jobInstance) Info() proto.InstanceInfo {
	ji.s.Mu.Lock()
	defer ji.s.Mu.Unlock()
	return proto.InstanceInfo{
		SizeBytes: uint32(len(ji.j.data)),
		BlockSize: vio.DefaultBlockSize,
		Flags:     ji.mode,
	}
}

func (ji *jobInstance) ReadAt(_ *kernel.Process, off int64, buf []byte) (int, error) {
	ji.s.Mu.Lock()
	defer ji.s.Mu.Unlock()
	if off >= int64(len(ji.j.data)) {
		return 0, proto.ErrEndOfFile
	}
	return copy(buf, ji.j.data[off:]), nil
}

func (ji *jobInstance) WriteAt(_ *kernel.Process, off int64, data []byte) (int, error) {
	ji.s.Mu.Lock()
	defer ji.s.Mu.Unlock()
	if ji.j.state != stateSpooling {
		return 0, fmt.Errorf("%w: job already queued", proto.ErrNoPermission)
	}
	if need := int(off) + len(data); need > len(ji.j.data) {
		grown := make([]byte, need)
		copy(grown, ji.j.data)
		ji.j.data = grown
	}
	return copy(ji.j.data[off:], data), nil
}

// Release moves a spooling job into the print queue, unless the job was
// cancelled while it spooled.
func (ji *jobInstance) Release() error {
	ji.s.Mu.Lock()
	defer ji.s.Mu.Unlock()
	if ji.j.state == stateSpooling && ji.s.Get(ji.j.id) == ji.j {
		ji.j.state = stateQueued
		ji.s.queue = append(ji.s.queue, ji.j.id)
		if len(ji.s.queue) == 1 {
			ji.j.state = statePrinting
		}
	}
	return nil
}

var _ vio.Instance = (*jobInstance)(nil)
