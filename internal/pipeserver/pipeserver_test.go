package pipeserver

import (
	"errors"
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/netsim"
	"repro/internal/proto"
	"repro/internal/vio"
	"repro/internal/vtime"
)

func startRig(t *testing.T) (*Server, *kernel.Process, *kernel.Process) {
	t.Helper()
	k := kernel.New(netsim.New(vtime.DefaultModel(), 1))
	host := k.NewHost("services")
	s, err := Start(host)
	if err != nil {
		t.Fatal(err)
	}
	wsA := k.NewHost("ws-a")
	wsB := k.NewHost("ws-b")
	writer, err := wsA.NewProcess("writer")
	if err != nil {
		t.Fatal(err)
	}
	reader, err := wsB.NewProcess("reader")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		writer.Destroy()
		reader.Destroy()
	})
	return s, writer, reader
}

func open(t *testing.T, proc *kernel.Process, s *Server, name string, mode uint32) *vio.File {
	t.Helper()
	req := &proto.Message{Op: proto.OpCreateInstance}
	proto.SetCSName(req, uint32(core.CtxDefault), name)
	proto.SetOpenMode(req, mode)
	reply, err := proc.Send(req, s.PID())
	if err != nil {
		t.Fatal(err)
	}
	if err := proto.ReplyError(reply.Op); err != nil {
		t.Fatalf("open %q: %v", name, err)
	}
	return new(vio.File).Init(proc, s.PID(), proto.GetInstanceInfo(reply))
}

func TestPipeTransfer(t *testing.T) {
	s, wProc, rProc := startRig(t)
	w := open(t, wProc, s, "logs", proto.ModeWrite|proto.ModeCreate)
	r := open(t, rProc, s, "logs", proto.ModeRead)

	if _, err := w.Write([]byte("first line\n")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	n, err := r.Read(buf)
	if err != nil || string(buf[:n]) != "first line\n" {
		t.Fatalf("read %q, %v", buf[:n], err)
	}
	// Drained: an open pipe answers Retry, not EOF.
	if _, err := r.Read(buf); !errors.Is(err, proto.ErrRetry) {
		t.Fatalf("empty open pipe err = %v", err)
	}
	// More data arrives; the reader's retry loop picks it up.
	if _, err := w.Write([]byte("second")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	n, err = r.ReadRetry(buf, 5)
	if err != nil || string(buf[:n]) != "second" {
		t.Fatalf("retry read %q, %v", buf[:n], err)
	}
}

func TestPipeEOFAfterWriterCloses(t *testing.T) {
	s, wProc, rProc := startRig(t)
	w := open(t, wProc, s, "p", proto.ModeWrite|proto.ModeCreate)
	r := open(t, rProc, s, "p", proto.ModeRead)
	if _, err := w.Write([]byte("tail")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Remaining data drains...
	buf := make([]byte, 16)
	n, err := r.Read(buf)
	if err != nil || string(buf[:n]) != "tail" {
		t.Fatalf("drain read %q, %v", buf[:n], err)
	}
	// ...then end-of-file, not Retry.
	if _, err := r.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Read(buf); err != io.EOF {
		t.Fatalf("closed empty pipe err = %v", err)
	}
	// A closed pipe takes no new writer.
	if err := openErr(wProc, s, "p", proto.ModeWrite); !errors.Is(err, proto.ErrEndOfFile) {
		t.Fatalf("open for writing of a closed pipe: %v, want end-of-file", err)
	}
}

func openErr(proc *kernel.Process, s *Server, name string, mode uint32) error {
	req := &proto.Message{Op: proto.OpCreateInstance}
	proto.SetCSName(req, uint32(core.CtxDefault), name)
	proto.SetOpenMode(req, mode)
	reply, err := proc.Send(req, s.PID())
	if err != nil {
		return err
	}
	return proto.ReplyError(reply.Op)
}

// TestClosedPipeRefusesWritersKeepsReaders: once its last writer has
// closed it, a pipe refuses every open for writing, creating or
// appending with the end-of-file a write gets, where it used to open
// one whose every write then failed; its name stays bound, and a reader
// opened after the close still drains what was buffered, then reads
// end-of-file.
func TestClosedPipeRefusesWritersKeepsReaders(t *testing.T) {
	s, wProc, rProc := startRig(t)
	w := open(t, wProc, s, "p", proto.ModeWrite|proto.ModeCreate)
	if _, err := w.Write([]byte("left")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []uint32{proto.ModeWrite, proto.ModeWrite | proto.ModeCreate, proto.ModeAppend, proto.ModeRead | proto.ModeWrite} {
		if err := openErr(wProc, s, "p", mode); !errors.Is(err, proto.ErrEndOfFile) {
			t.Fatalf("open mode %#x of a closed pipe: %v, want end-of-file", mode, err)
		}
	}
	r := open(t, rProc, s, "p", proto.ModeRead)
	buf := make([]byte, 16)
	if n, err := r.Read(buf); err != nil || string(buf[:n]) != "left" {
		t.Fatalf("drain read %q, %v", buf[:n], err)
	}
	if _, err := r.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Read(buf); err != io.EOF {
		t.Fatalf("drained closed pipe err = %v", err)
	}
	q := &proto.Message{Op: proto.OpQueryObject}
	proto.SetCSName(q, uint32(core.CtxDefault), "p")
	reply, err := rProc.Send(q, s.PID())
	if err != nil || reply.Op != proto.ReplyOK {
		t.Fatalf("query of the closed pipe = %v, %v", reply, err)
	}
	if d, _, err := proto.DecodeDescriptor(reply.Segment); err != nil || d.TypeSpecific != [2]uint32{1, 0} {
		t.Fatalf("readers/writers after refused opens = %+v, %v; want [1 0]", d.TypeSpecific, err)
	}
}

func TestPipeBounded(t *testing.T) {
	s, wProc, _ := startRig(t)
	w := open(t, wProc, s, "full", proto.ModeWrite|proto.ModeCreate)
	// Fill the pipe to capacity.
	chunk := make([]byte, vio.DefaultBlockSize)
	written := 0
	for written < DefaultCapacity {
		n, err := w.Write(chunk)
		written += n
		if err != nil {
			t.Fatalf("fill failed at %d: %v", written, err)
		}
	}
	if _, err := w.Write([]byte("overflow")); !errors.Is(err, proto.ErrRetry) {
		t.Fatalf("full pipe err = %v", err)
	}
}

func TestPipeDirectoryAndQuery(t *testing.T) {
	s, wProc, rProc := startRig(t)
	w := open(t, wProc, s, "a", proto.ModeWrite|proto.ModeCreate)
	open(t, rProc, s, "a", proto.ModeRead)
	open(t, wProc, s, "b", proto.ModeWrite|proto.ModeCreate)
	if _, err := w.Write([]byte("12345")); err != nil {
		t.Fatal(err)
	}

	q := &proto.Message{Op: proto.OpQueryObject}
	proto.SetCSName(q, uint32(core.CtxDefault), "a")
	reply, err := rProc.Send(q, s.PID())
	if err != nil || reply.Op != proto.ReplyOK {
		t.Fatalf("query = %v, %v", reply, err)
	}
	d, _, err := proto.DecodeDescriptor(reply.Segment)
	if err != nil || d.Tag != proto.TagPipe || d.Size != 5 {
		t.Fatalf("descriptor = %+v, %v", d, err)
	}
	if d.TypeSpecific[0] != 1 || d.TypeSpecific[1] != 1 {
		t.Fatalf("readers/writers = %v", d.TypeSpecific)
	}

	dirReq := &proto.Message{Op: proto.OpCreateInstance}
	proto.SetCSName(dirReq, uint32(core.CtxDefault), "")
	proto.SetOpenMode(dirReq, proto.ModeRead|proto.ModeDirectory)
	reply, err = rProc.Send(dirReq, s.PID())
	if err != nil || reply.Op != proto.ReplyOK {
		t.Fatalf("open dir = %v, %v", reply, err)
	}
	f := new(vio.File).Init(rProc, s.PID(), proto.GetInstanceInfo(reply))
	raw, err := f.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	records, err := proto.DecodeDescriptors(raw)
	if err != nil || len(records) != 2 {
		t.Fatalf("records = %v, %v", records, err)
	}
}

func TestPipeRemove(t *testing.T) {
	s, wProc, _ := startRig(t)
	open(t, wProc, s, "gone", proto.ModeWrite|proto.ModeCreate)
	rm := &proto.Message{Op: proto.OpRemoveObject}
	proto.SetCSName(rm, uint32(core.CtxDefault), "gone")
	reply, err := wProc.Send(rm, s.PID())
	if err != nil || reply.Op != proto.ReplyOK {
		t.Fatalf("remove = %v, %v", reply, err)
	}
	q := &proto.Message{Op: proto.OpQueryObject}
	proto.SetCSName(q, uint32(core.CtxDefault), "gone")
	if reply, err := wProc.Send(q, s.PID()); err != nil || reply.Op != proto.ReplyNotFound {
		t.Fatalf("pipe survived removal: query = %v, %v", reply, err)
	}
}

func TestPipeOpenMissingWithoutCreate(t *testing.T) {
	s, wProc, _ := startRig(t)
	req := &proto.Message{Op: proto.OpCreateInstance}
	proto.SetCSName(req, uint32(core.CtxDefault), "ghost")
	proto.SetOpenMode(req, proto.ModeRead)
	reply, err := wProc.Send(req, s.PID())
	if err != nil || reply.Op != proto.ReplyNotFound {
		t.Fatalf("reply = %v, %v", reply, err)
	}
}
