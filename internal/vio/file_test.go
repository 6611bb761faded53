package vio

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"
	"time"

	"repro/internal/kernel"
	"repro/internal/netsim"
	"repro/internal/proto"
	"repro/internal/raceflag"
	"repro/internal/vtime"
)

// fileRig is a Registry behind a served process on one host and a client
// process on another, so every File call is a remote transaction. reads
// records the block index of each OpReadInstance the server sees, in
// arrival order: the simulated traffic of a read.
type fileRig struct {
	reg    *Registry
	server *kernel.Process
	client *kernel.Process
	reads  []uint32
}

func newFileRig(t *testing.T) *fileRig {
	t.Helper()
	k := kernel.New(netsim.New(vtime.DefaultModel(), 1))
	server, err := k.NewHost("fs").NewProcess("vio-server")
	if err != nil {
		t.Fatal(err)
	}
	client, err := k.NewHost("ws").NewProcess("vio-client")
	if err != nil {
		t.Fatal(err)
	}
	r := &fileRig{reg: NewRegistry(), server: server, client: client}
	server.Serve(func(msg *proto.Message, from kernel.PID) {
		if msg.Op == proto.OpReadInstance {
			r.reads = append(r.reads, msg.F[1])
		}
		reply := r.reg.HandleOp(server, msg, from)
		if reply == nil {
			reply = proto.NewReply(proto.ReplyIllegalRequest)
		}
		if err := server.Reply(reply, from); err != nil {
			t.Errorf("reply: %v", err)
		}
	})
	return r
}

// open registers inst and returns the client-side File an open reply
// would have produced.
func (r *fileRig) open(t *testing.T, inst Instance, name string) *File {
	t.Helper()
	info, err := r.reg.Open(inst, name)
	if err != nil {
		t.Fatal(err)
	}
	return new(File).Init(r.client, r.server.PID(), info)
}

func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + i>>8)
	}
	return b
}

// seq is the block indices lo..hi inclusive followed by more.
func seq(lo, hi uint32, more ...uint32) []uint32 {
	var s []uint32
	for b := lo; b <= hi; b++ {
		s = append(s, b)
	}
	return append(s, more...)
}

// TestReadAllBlockSequence pins the block requests ReadAll issues. Each
// is a remote transaction in virtual time, so the sequence — including
// the re-request of a short last block before EOF is reported — is part
// of the model: a rewrite that changes it changes every simulated read
// latency. The later cases are the ones where the open-time size says
// nothing about how much is left to read: the object changed size behind
// the open File, or the reader starts mid-file.
func TestReadAllBlockSequence(t *testing.T) {
	cases := []struct {
		name           string
		atOpen, atRead int
		seek           int64
		want           []uint32
	}{
		{"0", 0, 0, 0, []uint32{0}},
		{"1", 1, 1, 0, []uint32{0, 0}},
		{"511", 511, 511, 0, []uint32{0, 0}},
		{"512", 512, 512, 0, []uint32{0, 1, 1}},
		{"513", 513, 513, 0, []uint32{0, 1, 1}},
		{"3000", 3000, 3000, 0, seq(0, 5, 5)},
		{"3584", 3584, 3584, 0, seq(0, 7, 7)},
		{"4095", 4095, 4095, 0, seq(0, 7, 7)},
		{"4096", 4096, 4096, 0, seq(0, 7, 8)},
		{"4097", 4097, 4097, 0, seq(0, 8, 8)},
		{"8192", 8192, 8192, 0, seq(0, 15, 16)},
		{"grew-within-first-window", 1000, 3000, 0, seq(0, 5, 5)},
		{"grew-past-first-window", 1000, 5000, 0, seq(0, 9, 9)},
		{"grew-by-one-block", 4096, 4608, 0, seq(0, 9, 9)},
		{"grew-to-window-multiple", 100, 8192, 0, seq(0, 15, 16)},
		{"grew-from-empty", 0, 2000, 0, seq(0, 3, 3)},
		{"shrank", 5000, 1000, 0, []uint32{0, 1, 1}},
		{"seeked", 5000, 5000, 700, seq(1, 9, 9, 9)},
		{"seeked-past-end", 1000, 1000, 2000, []uint32{3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newFileRig(t)
			inst := &scriptedInstance{data: pattern(tc.atOpen)}
			f := r.open(t, inst, "f")
			data := pattern(tc.atRead)
			inst.data = data
			if _, err := f.Seek(tc.seek, io.SeekStart); err != nil {
				t.Fatal(err)
			}
			var want []byte
			if int(tc.seek) < len(data) {
				want = data[tc.seek:]
			}
			got, err := f.ReadAll()
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("ReadAll = %d bytes, %v; want %d", len(got), err, len(want))
			}
			if !reflect.DeepEqual(r.reads, tc.want) {
				t.Fatalf("block requests = %v, want %v", r.reads, tc.want)
			}
		})
	}
}

func TestFileReadWriteSeekQuery(t *testing.T) {
	r := newFileRig(t)
	inst := newMem(pattern(1300), true)
	f := r.open(t, inst, "[storage]/users/mann/f")
	if f.Server() != r.server.PID() || f.info.SizeBytes != 1300 {
		t.Fatalf("Server = %v, Info = %+v", f.Server(), f.info)
	}

	// A read smaller than a block leaves the position mid-block; the next
	// one resumes there and crosses the block boundary.
	small := make([]byte, 100)
	if n, err := f.Read(small); n != 100 || err != nil || !bytes.Equal(small, pattern(1300)[:100]) {
		t.Fatalf("Read = %d, %v", n, err)
	}
	if n, err := f.Read(nil); n != 0 || err != nil {
		t.Fatalf("empty Read = %d, %v", n, err)
	}
	span := make([]byte, 600)
	if n, err := f.Read(span); n != 600 || err != nil || !bytes.Equal(span, pattern(1300)[100:700]) {
		t.Fatalf("Read across blocks = %d, %v", n, err)
	}
	if !reflect.DeepEqual(r.reads, []uint32{0, 0, 1}) {
		t.Fatalf("block requests = %v", r.reads)
	}

	// Write across a block boundary from a seeked position.
	if pos, err := f.Seek(-100, io.SeekEnd); pos != 1200 || err != nil {
		t.Fatalf("Seek end = %d, %v", pos, err)
	}
	if pos, err := f.Seek(-200, io.SeekCurrent); pos != 1000 || err != nil {
		t.Fatalf("Seek current = %d, %v", pos, err)
	}
	patch := bytes.Repeat([]byte{0xEE}, 600)
	if n, err := f.Write(patch); n != 600 || err != nil {
		t.Fatalf("Write = %d, %v", n, err)
	}
	if got := inst.data; len(got) != 1600 || !bytes.Equal(got[1000:], patch) || !bytes.Equal(got[:1000], pattern(1300)[:1000]) {
		t.Fatalf("after Write the object holds %d bytes", len(got))
	}

	// Seek measures from the open-time size until Query refreshes it.
	if pos, _ := f.Seek(0, io.SeekEnd); pos != 1300 {
		t.Fatalf("Seek end before Query = %d", pos)
	}
	info, err := f.Query()
	if err != nil || info.SizeBytes != 1600 || info.ID != f.InstanceID() {
		t.Fatalf("Query = %+v, %v", info, err)
	}
	if pos, _ := f.Seek(0, io.SeekEnd); pos != 1600 {
		t.Fatalf("Seek end after Query = %d", pos)
	}
	if _, err := f.Seek(0, 42); !errors.Is(err, proto.ErrBadArgs) {
		t.Fatalf("bad whence err = %v", err)
	}
	if _, err := f.Seek(-1, io.SeekStart); !errors.Is(err, proto.ErrBadArgs) {
		t.Fatalf("negative position err = %v", err)
	}

	name, err := f.InstanceName()
	if err != nil || name != "[storage]/users/mann/f" {
		t.Fatalf("InstanceName = %q, %v", name, err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if len(r.reg.instances) != 0 {
		t.Fatal("Close did not release the instance")
	}
}

func TestFileReadPastEOF(t *testing.T) {
	r := newFileRig(t)
	f := r.open(t, newMem(pattern(700), false), "f")
	if _, err := f.Seek(5000, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	if n, err := f.Read(make([]byte, 10)); n != 0 || err != io.EOF {
		t.Fatalf("Read past EOF = %d, %v", n, err)
	}
	// Inside the short last block but past its data.
	if _, err := f.Seek(800, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	if n, err := f.Read(make([]byte, 10)); n != 0 || err != io.EOF {
		t.Fatalf("Read past data in last block = %d, %v", n, err)
	}
	if _, err := f.ReadBlock(9, nil); !errors.Is(err, proto.ErrEndOfFile) {
		t.Fatalf("ReadBlock past EOF err = %v", err)
	}
}

func TestFileClosedInstance(t *testing.T) {
	r := newFileRig(t)
	f := r.open(t, newMem(pattern(10), true), "f")
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("second Close = %v", err)
	}
	calls := map[string]func() error{
		"Read":         func() error { _, err := f.Read(make([]byte, 4)); return err },
		"ReadBlock":    func() error { _, err := f.ReadBlock(0, nil); return err },
		"ReadAll":      func() error { _, err := f.ReadAll(); return err },
		"ReadRetry":    func() error { _, err := f.ReadRetry(make([]byte, 4), 3); return err },
		"Write":        func() error { _, err := f.Write([]byte("x")); return err },
		"Query":        func() error { _, err := f.Query(); return err },
		"InstanceName": func() error { _, err := f.InstanceName(); return err },
	}
	for name, call := range calls {
		if err := call(); !errors.Is(err, proto.ErrBadArgs) {
			t.Errorf("%s on a closed instance: err = %v", name, err)
		}
	}
	if len(r.reads) != 0 {
		t.Fatalf("a closed File sent %d read requests", len(r.reads))
	}
}

// TestFileServerForgotInstance is the other half of "closed": the File is
// open but the server no longer knows the instance.
func TestFileServerForgotInstance(t *testing.T) {
	r := newFileRig(t)
	f := r.open(t, newMem(pattern(10), false), "f")
	if err := r.reg.Release(f.InstanceID()); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadAll(); !errors.Is(err, proto.ErrBadArgs) {
		t.Fatalf("ReadAll err = %v", err)
	}
	if err := f.Close(); !errors.Is(err, proto.ErrBadArgs) {
		t.Fatalf("Close err = %v", err)
	}
}

// scriptedInstance answers reads from a script of errors and writes with
// a fixed acceptance limit.
type scriptedInstance struct {
	readErrs  []error // consumed one per ReadAt; nil entries serve data
	data      []byte
	writeMax  int
	readCalls int
}

func (s *scriptedInstance) Info() proto.InstanceInfo {
	return proto.InstanceInfo{SizeBytes: uint32(len(s.data)), BlockSize: DefaultBlockSize, Flags: proto.ModeRead | proto.ModeWrite}
}

func (s *scriptedInstance) ReadAt(_ *kernel.Process, off int64, buf []byte) (int, error) {
	s.readCalls++
	if len(s.readErrs) > 0 {
		err := s.readErrs[0]
		s.readErrs = s.readErrs[1:]
		if err != nil {
			return 0, err
		}
	}
	if off >= int64(len(s.data)) {
		return 0, proto.ErrEndOfFile
	}
	return copy(buf, s.data[off:]), nil
}

func (s *scriptedInstance) WriteAt(_ *kernel.Process, _ int64, data []byte) (int, error) {
	return min(len(data), s.writeMax), nil
}

func (s *scriptedInstance) Release() error { return nil }

func TestFileReadRetry(t *testing.T) {
	r := newFileRig(t)
	retry := proto.ErrRetry

	// Not ready twice, then data: ReadRetry backs off in virtual time and
	// delivers it.
	ready := &scriptedInstance{readErrs: []error{retry, retry, nil}, data: []byte("ready")}
	f := r.open(t, ready, "pipe")
	before := r.client.Now()
	buf := make([]byte, 16)
	n, err := f.ReadRetry(buf, 5)
	if err != nil || string(buf[:n]) != "ready" || ready.readCalls != 3 {
		t.Fatalf("ReadRetry = %q, %v after %d reads", buf[:n], err, ready.readCalls)
	}
	if waited := r.client.Now() - before; waited < 2*time.Millisecond {
		t.Fatalf("two back-offs advanced the client clock by only %v", waited)
	}

	// Never ready: gives up after maxRetries retries, i.e. maxRetries+1 reads.
	never := &scriptedInstance{readErrs: []error{retry, retry, retry, retry, retry, retry, retry, retry}}
	g := r.open(t, never, "pipe")
	if n, err := g.ReadRetry(buf, 3); n != 0 || !errors.Is(err, proto.ErrRetry) {
		t.Fatalf("ReadRetry = %d, %v", n, err)
	}
	if never.readCalls != 4 {
		t.Fatalf("gave up after %d reads, want 4", never.readCalls)
	}

	// A failure other than Retry is not retried, and ReadAll reports it
	// with what it had read so far.
	broken := &scriptedInstance{readErrs: []error{nil, proto.ErrDeviceError}, data: pattern(2000)}
	h := r.open(t, broken, "disk")
	got, err := h.ReadAll()
	if !errors.Is(err, proto.ErrDeviceError) || !bytes.Equal(got, pattern(2000)[:512]) {
		t.Fatalf("ReadAll = %d bytes, %v", len(got), err)
	}
	if n, err := h.ReadRetry(buf, 3); n != len(buf) || err != nil {
		t.Fatalf("ReadRetry after the fault = %d, %v", n, err)
	}
}

func TestFileShortWrite(t *testing.T) {
	r := newFileRig(t)
	f := r.open(t, &scriptedInstance{writeMax: 100}, "f")
	// The first block's 512-byte chunk is cut to 100 by the server.
	if n, err := f.Write(pattern(700)); n != 100 || err != io.ErrShortWrite {
		t.Fatalf("Write = %d, %v", n, err)
	}
}

func TestFileWriteSinkFails(t *testing.T) {
	r := newFileRig(t)
	calls := 0
	listed := proto.Descriptor{Tag: proto.TagFile, Name: "a"}
	inst := NewDirectoryInstance(listed.AppendEncoded(nil), 0, func(*kernel.Process, uint32, proto.Descriptor) error {
		calls++
		return proto.ErrNoPermission
	})
	f := r.open(t, inst, "dir")
	rec := proto.Descriptor{Tag: proto.TagFile, Name: "a", Perms: proto.PermRead}
	if n, err := f.Write(rec.AppendEncoded(nil)); n != 0 || !errors.Is(err, proto.ErrNoPermission) || calls != 1 {
		t.Fatalf("Write = %d, %v after %d modify calls", n, err, calls)
	}
	// A read-only instance refuses before the sink is reached.
	ro := r.open(t, NewDirectoryInstance(nil, 0, nil), "ro")
	if _, err := ro.Write([]byte("x")); !errors.Is(err, proto.ErrModeNotSupported) {
		t.Fatalf("read-only Write err = %v", err)
	}
}

// TestFileCloseReportsTornRecord: a Write of exactly one block of a
// directory's records ends inside one; the Close that follows reports the
// record no write completed.
func TestFileCloseReportsTornRecord(t *testing.T) {
	r := newFileRig(t)
	var records []proto.Descriptor
	for len(proto.EncodeDescriptors(records)) <= DefaultBlockSize {
		records = append(records, proto.Descriptor{Tag: proto.TagFile, Name: "record"})
	}
	applied := 0
	f := r.open(t, NewDirectoryInstance(nil, 0, func(*kernel.Process, uint32, proto.Descriptor) error { applied++; return nil }), "dir")
	if n, err := f.Write(proto.EncodeDescriptors(records)[:DefaultBlockSize]); n != DefaultBlockSize || err != nil {
		t.Fatalf("Write = %d, %v", n, err)
	}
	if applied != len(records)-1 {
		t.Fatalf("applied %d records, want %d", applied, len(records)-1)
	}
	if err := f.Close(); !errors.Is(err, proto.ErrBadArgs) {
		t.Fatalf("Close = %v", err)
	}
	if len(r.reg.instances) != 0 {
		t.Fatal("a failed release left the instance open")
	}
}

func TestFileServerDied(t *testing.T) {
	r := newFileRig(t)
	f := r.open(t, newMem(pattern(10), false), "f")
	r.server.Host().Crash()
	if _, err := f.ReadAll(); err == nil {
		t.Fatal("ReadAll from a crashed server succeeded")
	}
}

// spyInstance is a memInstance that records the buffer every ReadAt
// fills and counts its Info calls.
type spyInstance struct {
	*memInstance
	bufs  [][]byte
	infos int
}

func (s *spyInstance) Info() proto.InstanceInfo {
	s.infos++
	return s.memInstance.Info()
}

func (s *spyInstance) ReadAt(p *kernel.Process, off int64, buf []byte) (int, error) {
	s.bufs = append(s.bufs, buf)
	return s.memInstance.ReadAt(p, off, buf)
}

// TestReadAllLandsInReadersBuffer: ReadAll sizes its result in whole
// blocks and grants the server each block it reads from the block's
// start, so the server writes every block there, the short last one too;
// the re-read before EOF lands in the File's spare block, so the server
// reads no block into a buffer of its own. The block requests and the
// bytes are TestReadAllBlockSequence's.
func TestReadAllLandsInReadersBuffer(t *testing.T) {
	for _, tc := range []struct {
		size      int
		want      []uint32
		ungranted int
	}{
		{3000, seq(0, 5, 5), 0},
		{4096, seq(0, 7, 8), 0},
	} {
		r := newFileRig(t)
		inst := &spyInstance{memInstance: newMem(pattern(tc.size), false)}
		f := r.open(t, inst, "f")
		got, err := f.ReadAll()
		if err != nil || !bytes.Equal(got, pattern(tc.size)) {
			t.Fatalf("%d: ReadAll = %d bytes, %v", tc.size, len(got), err)
		}
		if !reflect.DeepEqual(r.reads, tc.want) {
			t.Fatalf("%d: block requests = %v, want %v", tc.size, r.reads, tc.want)
		}
		ungranted, spared := 0, 0
		for i, buf := range inst.bufs {
			at := int(r.reads[i]) * DefaultBlockSize
			switch {
			case at+DefaultBlockSize <= cap(got) && &buf[0] == &got[:cap(got)][at]:
			case &buf[0] == &f.spare[0]:
				spared++
			default:
				ungranted++
			}
		}
		if ungranted != tc.ungranted || spared != 1 {
			t.Fatalf("%d: the server read %d of %d blocks into its own buffer and %d into the spare, want %d and 1", tc.size, ungranted, len(inst.bufs), spared, tc.ungranted)
		}
	}
}

// TestRegistryReadsInfoOnce: an instance's parameters are read when it is
// opened and when it is queried, never per block read or written.
func TestRegistryReadsInfoOnce(t *testing.T) {
	r := newFileRig(t)
	inst := &spyInstance{memInstance: newMem(pattern(3000), true)}
	f := r.open(t, inst, "f")
	if inst.infos != 1 {
		t.Fatalf("open read Info %d times, want 1", inst.infos)
	}
	if _, err := f.ReadAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(pattern(1500)); err != nil {
		t.Fatal(err)
	}
	if inst.infos != 1 {
		t.Fatalf("after reading and writing Info was read %d times, want 1", inst.infos)
	}
	if _, err := f.Query(); err != nil || inst.infos != 2 {
		t.Fatalf("Query: %v, Info read %d times, want 2", err, inst.infos)
	}
}

// TestInstanceOpsAnswerInRequest: a successful block read, block write and
// release are answered in the request that asked (PROTOCOL.md §7), so with
// the read granted the reader's buffer a whole transaction of each — client,
// kernel and server — allocates nothing; a failure is a fresh message.
func TestInstanceOpsAnswerInRequest(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("AllocsPerRun counts the race detector's own allocations")
	}
	r := newFileRig(t)
	r.reads = make([]uint32, 0, 1024)
	f := r.open(t, newMem(pattern(2*DefaultBlockSize), true), "f")
	block := make([]byte, DefaultBlockSize)
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := f.ReadBlock(1, block); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("granted block read: %v allocs, want 0", allocs)
	}
	if f.req.Op != proto.ReplyOK || f.req.F[1] != DefaultBlockSize || !bytes.Equal(block, pattern(2 * DefaultBlockSize)[DefaultBlockSize:]) {
		t.Fatalf("the read's reply %+v did not land in its request", f.req)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		f.pos = 0
		if _, err := f.Write(block); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("block write: %v allocs, want 0", allocs)
	}
	if f.req.Op != proto.ReplyOK || f.req.F[1] != DefaultBlockSize {
		t.Fatalf("the write's reply %+v did not land in its request", f.req)
	}
	files := make([]*File, 101) // AllocsPerRun runs once more than asked
	for i := range files {
		files[i] = r.open(t, NewDirectoryInstance(nil, 0, nil), "f")
	}
	next := 0
	if allocs := testing.AllocsPerRun(100, func() {
		if err := files[next].Close(); err != nil {
			t.Fatal(err)
		}
		next++
	}); allocs != 0 {
		t.Fatalf("release: %v allocs, want 0", allocs)
	}
	if files[0].req.Op != proto.ReplyOK {
		t.Fatalf("the release's reply %+v did not land in its request", files[0].req)
	}
	if _, err := f.ReadBlock(9, block); !errors.Is(err, proto.ErrEndOfFile) || f.req.Op != proto.OpReadInstance {
		t.Fatalf("a failed read: %v, and its request became %v", err, f.req.Op)
	}
}
