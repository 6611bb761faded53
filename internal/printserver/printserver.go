// Package printserver implements the V-System laser printer server (§6):
// print jobs are created by opening a named job in the printer's context,
// writing the data, and releasing the instance, which queues the job. The
// job queue is the server's context: the context directory lists the jobs
// with their queue positions, and removing a job's name cancels it —
// naming and object management are one mechanism (§2.3).
package printserver

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/proto"
	"repro/internal/vio"
)

// jobState tracks a job through the queue. No job stores statePrinting:
// the queued job at position 1 reports it.
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
		Size:  func(j *job) int { return len(j.data) }, Read: read, Write: write, Release: s.release,
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
	pages := max(1, (len(j.data)+vio.DefaultBlockSize-1)/vio.DefaultBlockSize)
	s.Proc().ChargeCompute(time.Duration(pages) * s.pageTime)
	j.state = stateDone
	s.Mu.Unlock()
	_, _ = s.Remove(j.id, j.name) // fails only if a cancel got there first
	return j.name
}

// describe runs with Mu held (core.FlatKind). The job at the head of
// the queue is the one printing.
func (s *Server) describe(j *job) proto.Descriptor {
	pos, state := s.position(j.id), j.state
	if pos == 1 {
		state = statePrinting
	}
	return proto.Descriptor{
		Tag:          proto.TagPrintJob,
		ObjectID:     j.id,
		Name:         j.name,
		Size:         uint32(len(j.data)),
		Perms:        proto.PermRead | proto.PermWrite,
		TypeSpecific: [2]uint32{uint32(pos), uint32(state)},
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
	if req.Msg.Op == proto.OpRemoveObject && res.Entry != nil && res.Entry.Kind == core.EntryObject {
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
func (s *Server) open(req *core.Request, res *core.Resolution, mode uint32) *proto.Message {
	var id uint32
	switch {
	case res.Entry == nil && mode&proto.ModeCreate != 0:
		id, mode = s.NewID(), proto.ModeWrite
		name := strings.Clone(res.Last) // res.Last lies in the request
		if err := s.Add(id, name, &job{id: id, name: name, state: stateSpooling}); err != nil {
			return core.ErrorReplyMsg(err)
		}
	case res.Entry == nil || res.Entry.Kind != core.EntryObject:
		return core.ErrorReplyMsg(proto.ErrNotFound)
	default:
		id, mode = res.Entry.Object.ID, proto.ModeRead
	}
	return s.OpenObject(req.Msg, id, res.Last, mode, mode, nil)
}

func read(_ *kernel.Process, j *job, off int64, buf []byte) (int, error) {
	return core.ReadBytes(j.data, off, buf)
}

// write spools data into a job, up to vio.MaxFileSize.
func write(_ *kernel.Process, j *job, off int64, data []byte) (int, error) {
	if j.state != stateSpooling {
		return 0, fmt.Errorf("%w: job already queued", proto.ErrNoPermission)
	}
	end := off + int64(len(data))
	if err := vio.CheckStored(end); err != nil {
		return 0, err
	}
	if grow := int(end) - len(j.data); grow > 0 {
		j.data = append(j.data, make([]byte, grow)...)
	}
	return copy(j.data[off:], data), nil
}

// release moves a spooling job into the print queue, unless the job was
// cancelled while it spooled.
func (s *Server) release(j *job, _ uint32) {
	if j.state == stateSpooling && s.Get(j.id) == j {
		j.state = stateQueued
		s.queue = append(s.queue, j.id)
	}
}
