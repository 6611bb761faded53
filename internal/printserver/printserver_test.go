package printserver

import (
	"testing"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/netsim"
	"repro/internal/proto"
	"repro/internal/vio"
	"repro/internal/vtime"
)

func startRig(t *testing.T) (*Server, *kernel.Process) {
	t.Helper()
	k := kernel.New(netsim.New(vtime.DefaultModel(), 1))
	host := k.NewHost("services")
	s, err := Start(host)
	if err != nil {
		t.Fatal(err)
	}
	clientHost := k.NewHost("ws")
	client, err := clientHost.NewProcess("client")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Destroy() })
	return s, client
}

func submit(t *testing.T, client *kernel.Process, s *Server, name string, data []byte) {
	t.Helper()
	req := &proto.Message{Op: proto.OpCreateInstance}
	proto.SetCSName(req, uint32(core.CtxDefault), name)
	proto.SetOpenMode(req, proto.ModeWrite|proto.ModeCreate)
	reply, err := client.Send(req, s.PID())
	if err != nil {
		t.Fatal(err)
	}
	if err := proto.ReplyError(reply.Op); err != nil {
		t.Fatal(err)
	}
	f := new(vio.File).Init(client, s.PID(), proto.GetInstanceInfo(reply))
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// queue lists the queue context: the jobs waiting to print, in order.
func queue(t *testing.T, client *kernel.Process, s *Server) []proto.Descriptor {
	t.Helper()
	req := &proto.Message{Op: proto.OpCreateInstance}
	proto.SetCSName(req, uint32(core.CtxDefault), "")
	proto.SetOpenMode(req, proto.ModeRead|proto.ModeDirectory)
	reply, err := client.Send(req, s.PID())
	if err != nil || reply.Op != proto.ReplyOK {
		t.Fatalf("open dir = %v, %v", reply, err)
	}
	f := new(vio.File).Init(client, s.PID(), proto.GetInstanceInfo(reply))
	defer f.Close()
	raw, err := f.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	records, err := proto.DecodeDescriptors(raw)
	if err != nil {
		t.Fatal(err)
	}
	return records
}

func TestSubmitQueuesOnRelease(t *testing.T) {
	s, client := startRig(t)
	submit(t, client, s, "a.ps", []byte("A"))
	if n := len(queue(t, client, s)); n != 1 {
		t.Fatalf("queue = %d", n)
	}
	submit(t, client, s, "b.ps", []byte("B"))
	if n := len(queue(t, client, s)); n != 2 {
		t.Fatalf("queue = %d", n)
	}
}

func TestFIFOOrderAndStates(t *testing.T) {
	s, client := startRig(t)
	submit(t, client, s, "first.ps", []byte("1"))
	submit(t, client, s, "second.ps", []byte("2"))

	q := &proto.Message{Op: proto.OpQueryObject}
	proto.SetCSName(q, uint32(core.CtxDefault), "first.ps")
	reply, err := client.Send(q, s.PID())
	if err != nil || reply.Op != proto.ReplyOK {
		t.Fatalf("query = %v, %v", reply, err)
	}
	d, _, err := proto.DecodeDescriptor(reply.Segment)
	if err != nil {
		t.Fatal(err)
	}
	if d.TypeSpecific[0] != 1 || jobState(d.TypeSpecific[1]) != statePrinting {
		t.Fatalf("head job descriptor = %+v", d)
	}

	if name := s.AdvanceQueue(); name != "first.ps" {
		t.Fatalf("printed %q", name)
	}
	if name := s.AdvanceQueue(); name != "second.ps" {
		t.Fatalf("printed %q", name)
	}
	if s.AdvanceQueue() != "" {
		t.Fatal("empty queue should return empty name")
	}
}

func TestPrintedNameUnboundAfterCompletion(t *testing.T) {
	s, client := startRig(t)
	submit(t, client, s, "done.ps", []byte("x"))
	s.AdvanceQueue()
	q := &proto.Message{Op: proto.OpQueryObject}
	proto.SetCSName(q, uint32(core.CtxDefault), "done.ps")
	reply, err := client.Send(q, s.PID())
	if err != nil || reply.Op != proto.ReplyNotFound {
		t.Fatalf("query after print = %v, %v", reply, err)
	}
}

func TestCancelRemovesFromQueue(t *testing.T) {
	s, client := startRig(t)
	submit(t, client, s, "a.ps", []byte("A"))
	submit(t, client, s, "b.ps", []byte("B"))
	rm := &proto.Message{Op: proto.OpRemoveObject}
	proto.SetCSName(rm, uint32(core.CtxDefault), "a.ps")
	reply, err := client.Send(rm, s.PID())
	if err != nil || reply.Op != proto.ReplyOK {
		t.Fatalf("cancel = %v, %v", reply, err)
	}
	if n := len(queue(t, client, s)); n != 1 {
		t.Fatalf("queue = %d", n)
	}
	if name := s.AdvanceQueue(); name != "b.ps" {
		t.Fatalf("printed %q", name)
	}
}

func TestWriteAfterQueueingRejected(t *testing.T) {
	s, client := startRig(t)
	// Open, write, close (queues the job), then reopen and try to write.
	submit(t, client, s, "late.ps", []byte("x"))
	req := &proto.Message{Op: proto.OpCreateInstance}
	proto.SetCSName(req, uint32(core.CtxDefault), "late.ps")
	proto.SetOpenMode(req, proto.ModeRead)
	reply, err := client.Send(req, s.PID())
	if err != nil || reply.Op != proto.ReplyOK {
		t.Fatalf("reopen = %v, %v", reply, err)
	}
	f := new(vio.File).Init(client, s.PID(), proto.GetInstanceInfo(reply))
	if _, err := f.Write([]byte("more")); err == nil {
		t.Fatal("write to a queued job must fail")
	}
	// Reading the queued job's data still works.
	if _, err := f.Seek(0, 0); err != nil {
		t.Fatal(err)
	}
	got, err := f.ReadAll()
	if err != nil || string(got) != "x" {
		t.Fatalf("read %q, %v", got, err)
	}
}

func TestDuplicateJobName(t *testing.T) {
	s, client := startRig(t)
	submit(t, client, s, "dup.ps", []byte("x"))
	req := &proto.Message{Op: proto.OpCreateInstance}
	proto.SetCSName(req, uint32(core.CtxDefault), "dup.ps")
	proto.SetOpenMode(req, proto.ModeWrite|proto.ModeCreate)
	// Existing name: reopens for read, not a new job.
	reply, err := client.Send(req, s.PID())
	if err != nil || reply.Op != proto.ReplyOK {
		t.Fatalf("reply = %v, %v", reply, err)
	}
	if n := len(queue(t, client, s)); n != 1 {
		t.Fatalf("queue = %d", n)
	}
}

func TestQueueDirectoryPositions(t *testing.T) {
	s, client := startRig(t)
	for _, n := range []string{"a.ps", "b.ps", "c.ps"} {
		submit(t, client, s, n, []byte(n))
	}
	records := queue(t, client, s)
	if len(records) != 3 {
		t.Fatalf("records = %v", records)
	}
	for i, r := range records {
		if int(r.TypeSpecific[0]) != i+1 {
			t.Fatalf("record %d position = %d", i, r.TypeSpecific[0])
		}
	}
}

func TestAdvanceChargesPrintTime(t *testing.T) {
	s, client := startRig(t)
	submit(t, client, s, "big.ps", make([]byte, 5*vio.DefaultBlockSize))
	before := s.Proc().Now()
	s.AdvanceQueue()
	if s.Proc().Now()-before < 5*s.pageTime {
		t.Fatal("printing must charge per-page time")
	}
}

// TestCancelledSpoolingJobLeavesNoGhost cancels a job while it is still
// open for writing: releasing the instance afterwards must not queue the
// dead id, which would list in the queue, make the next AdvanceQueue
// report an empty queue and keep the live job from ever printing.
func TestCancelledSpoolingJobLeavesNoGhost(t *testing.T) {
	s, client := startRig(t)
	req := &proto.Message{Op: proto.OpCreateInstance}
	proto.SetCSName(req, uint32(core.CtxDefault), "x")
	proto.SetOpenMode(req, proto.ModeWrite|proto.ModeCreate)
	reply, err := client.Send(req, s.PID())
	if err != nil || reply.Op != proto.ReplyOK {
		t.Fatalf("create = %v, %v", reply, err)
	}
	f := new(vio.File).Init(client, s.PID(), proto.GetInstanceInfo(reply))
	if _, err := f.Write([]byte("doomed")); err != nil {
		t.Fatal(err)
	}
	rm := &proto.Message{Op: proto.OpRemoveObject}
	proto.SetCSName(rm, uint32(core.CtxDefault), "x")
	if reply, err := client.Send(rm, s.PID()); err != nil || reply.Op != proto.ReplyOK {
		t.Fatalf("remove = %v, %v", reply, err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if n := len(queue(t, client, s)); n != 0 {
		t.Fatalf("queue after cancelled spool = %d, want 0", n)
	}

	submit(t, client, s, "live.ps", []byte("L"))
	if n := len(queue(t, client, s)); n != 1 {
		t.Fatalf("queue = %d, want 1", n)
	}
	q := &proto.Message{Op: proto.OpQueryObject}
	proto.SetCSName(q, uint32(core.CtxDefault), "live.ps")
	reply, err = client.Send(q, s.PID())
	if err != nil || reply.Op != proto.ReplyOK {
		t.Fatalf("query = %v, %v", reply, err)
	}
	d, _, err := proto.DecodeDescriptor(reply.Segment)
	if err != nil {
		t.Fatal(err)
	}
	if d.TypeSpecific[0] != 1 || jobState(d.TypeSpecific[1]) != statePrinting {
		t.Fatalf("live job should be printing at position 1: %+v", d)
	}
	if name := s.AdvanceQueue(); name != "live.ps" {
		t.Fatalf("AdvanceQueue = %q, want live.ps", name)
	}
}

// TestAdvanceQueueSkipsStaleID puts an id with no job at the head of the
// queue: the head of the line being gone is not the end of the line.
func TestAdvanceQueueSkipsStaleID(t *testing.T) {
	s, client := startRig(t)
	submit(t, client, s, "live.ps", []byte("L"))
	s.Mu.Lock()
	s.queue = append([]uint32{999}, s.queue...)
	s.Mu.Unlock()
	if name := s.AdvanceQueue(); name != "live.ps" {
		t.Fatalf("AdvanceQueue = %q, want live.ps", name)
	}
	if name := s.AdvanceQueue(); name != "" {
		t.Fatalf("AdvanceQueue on an empty queue = %q", name)
	}
}

// TestSpoolWritePastLimitRefused: a spool write that would end past
// vio.MaxFileSize is refused with NoServerResources before the job grows,
// so one request cannot ask the host for its memory.
func TestSpoolWritePastLimitRefused(t *testing.T) {
	s, client := startRig(t)
	req := &proto.Message{Op: proto.OpCreateInstance}
	proto.SetCSName(req, uint32(core.CtxDefault), "huge.ps")
	proto.SetOpenMode(req, proto.ModeWrite|proto.ModeCreate)
	reply, err := client.Send(req, s.PID())
	if err != nil || reply.Op != proto.ReplyOK {
		t.Fatalf("open = %v, %v", reply, err)
	}
	info := proto.GetInstanceInfo(reply)
	// One byte at block MaxFileSize/512, offset 0: the job would end at
	// MaxFileSize+1.
	write := &proto.Message{Op: proto.OpWriteInstance, Segment: []byte("x")}
	write.F[0], write.F[1] = uint32(info.ID), vio.MaxFileSize/info.BlockSize
	reply, err = client.Send(write, s.PID())
	if err != nil {
		t.Fatal(err)
	}
	if reply.Op != proto.ReplyNoServerResources {
		t.Fatalf("write ending at %d bytes = %v, want NoServerResources", vio.MaxFileSize+1, reply.Op)
	}
	s.Mu.Lock()
	size := len(s.Get(1).data)
	s.Mu.Unlock()
	if size != 0 {
		t.Fatalf("the refused write grew the job to %d bytes", size)
	}
}

// TestCancelPrintingJobPromotesNext cancels the job that is printing: the
// next job is now at the head of the queue, so it reports position 1 and
// the printing state.
func TestCancelPrintingJobPromotesNext(t *testing.T) {
	s, client := startRig(t)
	submit(t, client, s, "a.ps", []byte("A"))
	submit(t, client, s, "b.ps", []byte("B"))
	rm := &proto.Message{Op: proto.OpRemoveObject}
	proto.SetCSName(rm, uint32(core.CtxDefault), "a.ps")
	if reply, err := client.Send(rm, s.PID()); err != nil || reply.Op != proto.ReplyOK {
		t.Fatalf("cancel = %v, %v", reply, err)
	}
	q := &proto.Message{Op: proto.OpQueryObject}
	proto.SetCSName(q, uint32(core.CtxDefault), "b.ps")
	reply, err := client.Send(q, s.PID())
	if err != nil || reply.Op != proto.ReplyOK {
		t.Fatalf("query = %v, %v", reply, err)
	}
	d, _, err := proto.DecodeDescriptor(reply.Segment)
	if err != nil {
		t.Fatal(err)
	}
	if d.TypeSpecific[0] != 1 || jobState(d.TypeSpecific[1]) != statePrinting {
		t.Fatalf("next job after cancelling the printing one = position %d state %d, want 1 %d",
			d.TypeSpecific[0], d.TypeSpecific[1], statePrinting)
	}
}
