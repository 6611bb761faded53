package vio

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"
	"testing/quick"

	"repro/internal/kernel"
	"repro/internal/proto"
)

func TestRegistryOpenGetRelease(t *testing.T) {
	r := NewRegistry()
	inst := NewDirectoryInstance([]byte("abc"), 0, nil)
	info, err := r.Open(inst, "file-a")
	if err != nil {
		t.Fatal(err)
	}
	id := info.ID
	got, err := r.get(id)
	if err != nil || got.inst != Instance(inst) || got.name != "file-a" || got.blockSize != DefaultBlockSize || got.flags != proto.ModeRead {
		t.Fatalf("get = %+v, %v", got, err)
	}
	if err := r.Release(id); err != nil {
		t.Fatal(err)
	}
	if _, err := r.get(id); !errors.Is(err, proto.ErrBadArgs) {
		t.Fatalf("get after release err = %v", err)
	}
	if err := r.Release(id); !errors.Is(err, proto.ErrBadArgs) {
		t.Fatalf("double release err = %v", err)
	}
}

func TestRegistryIDsNotImmediatelyReused(t *testing.T) {
	// §4.3: servers maximize the time before reusing an instance id.
	r := NewRegistry()
	a, _ := r.Open(NewDirectoryInstance(nil, 0, nil), "a")
	if err := r.Release(a.ID); err != nil {
		t.Fatal(err)
	}
	b, _ := r.Open(NewDirectoryInstance(nil, 0, nil), "b")
	if a.ID == b.ID {
		t.Fatal("instance id reused immediately")
	}
}

func TestRegistryCount(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < 5; i++ {
		if _, err := r.Open(NewDirectoryInstance(nil, 0, nil), "x"); err != nil {
			t.Fatal(err)
		}
	}
	if len(r.instances) != 5 {
		t.Fatalf("instances = %d", len(r.instances))
	}
}

func TestRegistryReleaseCallback(t *testing.T) {
	r := NewRegistry()
	released := false
	info, _ := r.Open(&memInstance{released: func() error { released = true; return nil }}, "x")
	if err := r.Release(info.ID); err != nil {
		t.Fatal(err)
	}
	if !released {
		t.Fatal("release callback not invoked")
	}
}

// memInstance is a byte array served as an instance, written in place
// and grown past its end when writable; released, if set, is its Release.
// No server opens one: it is the writable instance the Registry and File
// tests drive.
type memInstance struct {
	data      []byte
	blockSize uint32
	writable  bool
	released  func() error
}

func newMem(data []byte, writable bool) *memInstance {
	return &memInstance{data: data, blockSize: DefaultBlockSize, writable: writable}
}

func (m *memInstance) Info() proto.InstanceInfo {
	flags := uint32(proto.ModeRead)
	if m.writable {
		flags |= proto.ModeWrite
	}
	return proto.InstanceInfo{SizeBytes: uint32(len(m.data)), BlockSize: m.blockSize, Flags: flags}
}

func (m *memInstance) ReadAt(_ *kernel.Process, off int64, buf []byte) (int, error) {
	if off >= int64(len(m.data)) {
		return 0, proto.ErrEndOfFile
	}
	return copy(buf, m.data[off:]), nil
}

func (m *memInstance) WriteAt(_ *kernel.Process, off int64, data []byte) (int, error) {
	if !m.writable {
		return 0, proto.ErrModeNotSupported
	}
	if need := int(off) + len(data); need > len(m.data) {
		m.data = append(m.data, make([]byte, need-len(m.data))...)
	}
	return copy(m.data[off:], data), nil
}

func (m *memInstance) Release() error {
	if m.released != nil {
		return m.released()
	}
	return nil
}

// TestBytesInstanceRead: a directory instance serves its stream's bytes
// from any offset, and end-of-file past them.
func TestBytesInstanceRead(t *testing.T) {
	b := NewDirectoryInstance([]byte("hello world"), 0, nil)
	buf := make([]byte, 5)
	n, err := b.ReadAt(nil, 6, buf)
	if err != nil || n != 5 || string(buf) != "world" {
		t.Fatalf("ReadAt = %d %q %v", n, buf, err)
	}
	if _, err := b.ReadAt(nil, 11, buf); !errors.Is(err, proto.ErrEndOfFile) {
		t.Fatalf("EOF err = %v", err)
	}
}

// TestBytesInstanceReadOnlyWriteFails: a directory instance grants write
// only with a modify to apply records to, and refuses a write without.
func TestBytesInstanceReadOnlyWriteFails(t *testing.T) {
	ro, rw := NewDirectoryInstance([]byte("x"), 0, nil), NewDirectoryInstance(nil, 0, func(*kernel.Process, uint32, proto.Descriptor) error { return nil })
	if ro.Info().Flags != proto.ModeRead || rw.Info().Flags != proto.ModeRead|proto.ModeWrite {
		t.Fatalf("flags %#x without modify, %#x with", ro.Info().Flags, rw.Info().Flags)
	}
	if _, err := ro.WriteAt(nil, 0, []byte("y")); !errors.Is(err, proto.ErrModeNotSupported) {
		t.Fatalf("err = %v", err)
	}
}

// TestBytesInstanceWriteGrows: a File write past the end of a writable
// instance lands at its offset, and Query reports the grown size.
func TestBytesInstanceWriteGrows(t *testing.T) {
	r := newFileRig(t)
	f := r.open(t, newMem([]byte("abc"), true), "f")
	if _, err := f.Seek(5, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("XY")); err != nil {
		t.Fatal(err)
	}
	info, err := f.Query()
	if err != nil || info.SizeBytes != 7 || info.Flags&proto.ModeWrite == 0 {
		t.Fatalf("Query = %+v, %v", info, err)
	}
	if got, err := f.ReadBlock(0, nil); err != nil || string(got) != "abc\x00\x00XY" {
		t.Fatalf("block 0 = %q, %v", got, err)
	}
}

// TestBytesInstanceNegativeWriteOffset: no write reaches a negative
// offset: File.Seek refuses the position, and the next write lands where
// the File was.
func TestBytesInstanceNegativeWriteOffset(t *testing.T) {
	r := newFileRig(t)
	inst := newMem(nil, true)
	f := r.open(t, inst, "f")
	for _, whence := range []int{io.SeekStart, io.SeekCurrent, io.SeekEnd} {
		if _, err := f.Seek(-1, whence); !errors.Is(err, proto.ErrBadArgs) {
			t.Fatalf("Seek(-1, %d) err = %v", whence, err)
		}
	}
	if _, err := f.Write([]byte("x")); err != nil || string(inst.data) != "x" {
		t.Fatalf("write after the refused seeks: %q, %v", inst.data, err)
	}
}

// TestBytesInstanceWriteSink: a record written back to a directory
// instance reaches its modify, and the stream it serves is unchanged.
func TestBytesInstanceWriteSink(t *testing.T) {
	stream := proto.EncodeDescriptors([]proto.Descriptor{{Tag: proto.TagFile, Name: "snapshot"}})
	var got []proto.Descriptor
	b := NewDirectoryInstance(stream, 0, func(_ *kernel.Process, _ uint32, d proto.Descriptor) error {
		got = append(got, d)
		return nil
	})
	rec := proto.Descriptor{Tag: proto.TagFile, Name: "mod"}
	if n, err := b.WriteAt(nil, 0, rec.AppendEncoded(nil)); err != nil || n != len(rec.AppendEncoded(nil)) {
		t.Fatalf("WriteAt = %d, %v", n, err)
	}
	if len(got) != 1 || got[0].Name != "mod" {
		t.Fatalf("modify saw %+v", got)
	}
	buf := make([]byte, len(stream))
	if n, _ := b.ReadAt(nil, 0, buf); n != len(stream) || !bytes.Equal(buf, stream) {
		t.Fatal("a write back must not change the stream served")
	}
}

func TestBytesInstanceReadWriteProperty(t *testing.T) {
	f := func(data []byte, off uint16) bool {
		if len(data) == 0 {
			return true
		}
		o := int64(off) % int64(len(data))
		b := NewDirectoryInstance(append([]byte(nil), data...), 0, nil)
		buf := make([]byte, len(data))
		n, err := b.ReadAt(nil, o, buf)
		if err != nil || n != len(data)-int(o) {
			return false
		}
		return string(buf[:n]) == string(data[o:])
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDirectoryInstanceReadDecodes(t *testing.T) {
	records := []proto.Descriptor{
		{Tag: proto.TagFile, Name: "a", Size: 1},
		{Tag: proto.TagDirectory, Name: "d"},
	}
	inst := NewDirectoryInstance(proto.EncodeDescriptors(records), 0, nil)
	buf := make([]byte, inst.Info().SizeBytes)
	if _, err := inst.ReadAt(nil, 0, buf); err != nil {
		t.Fatal(err)
	}
	got, err := proto.DecodeDescriptors(buf)
	if err != nil || len(got) != 2 || got[0].Name != "a" {
		t.Fatalf("decoded %+v, %v", got, err)
	}
}

func TestDirectoryInstanceWriteInvokesModify(t *testing.T) {
	var modified []proto.Descriptor
	inst := NewDirectoryInstance(nil, 0, func(_ *kernel.Process, _ uint32, d proto.Descriptor) error {
		modified = append(modified, d)
		return nil
	})
	rec := proto.Descriptor{Tag: proto.TagFile, Name: "a", Perms: proto.PermRead}
	if _, err := inst.WriteAt(nil, 0, rec.AppendEncoded(nil)); err != nil {
		t.Fatal(err)
	}
	if len(modified) != 1 || modified[0].Name != "a" || modified[0].Perms != proto.PermRead {
		t.Fatalf("modify saw %+v", modified)
	}

	// Twenty 35-byte records split at the first block boundary, inside
	// the fifteenth: its torn start waits for the write that continues it.
	records := make([]proto.Descriptor, 20)
	for i := range records {
		records[i] = proto.Descriptor{Tag: proto.TagFile, Name: fmt.Sprintf("r%02d", i)}
	}
	stream := proto.EncodeDescriptors(records)
	modified = nil
	for _, w := range [][2]int{{0, DefaultBlockSize}, {DefaultBlockSize, len(stream)}} {
		if n, err := inst.WriteAt(nil, int64(w[0]), stream[w[0]:w[1]]); n != w[1]-w[0] || err != nil {
			t.Fatalf("WriteAt(%d) = %d, %v", w[0], n, err)
		}
	}
	if len(modified) != 20 || modified[14].Name != "r14" || modified[19].Name != "r19" {
		t.Fatalf("modify saw %d records", len(modified))
	}
	if err := inst.Release(); err != nil {
		t.Fatalf("Release after every record completed = %v", err)
	}
}

// TestDirectoryInstanceTornRecordNeverCompleted: a torn tail the next
// write does not continue is reported by that write, and the whole records
// before it are applied. TestFileCloseReportsTornRecord is the Release
// half.
func TestDirectoryInstanceTornRecordNeverCompleted(t *testing.T) {
	records := make([]proto.Descriptor, 20)
	for i := range records {
		records[i] = proto.Descriptor{Tag: proto.TagFile, Name: fmt.Sprintf("r%02d", i)}
	}
	stream := proto.EncodeDescriptors(records)
	applied := 0
	inst := NewDirectoryInstance(nil, 0, func(*kernel.Process, uint32, proto.Descriptor) error { applied++; return nil })
	if n, err := inst.WriteAt(nil, 0, stream[:DefaultBlockSize]); n != DefaultBlockSize || err != nil || applied != 14 {
		t.Fatalf("first block: WriteAt = %d, %v, %d applied", n, err, applied)
	}
	// A write elsewhere, even one ending on a block boundary, fails and
	// drops the torn tail, applying nothing.
	if _, err := inst.WriteAt(nil, 2*DefaultBlockSize, stream[:DefaultBlockSize]); !errors.Is(err, proto.ErrBadArgs) || applied != 14 {
		t.Fatalf("write elsewhere = %v, %d applied", err, applied)
	}
	// After the failure the instance takes whole records again.
	if _, err := inst.WriteAt(nil, 0, stream[:35]); err != nil || applied != 15 {
		t.Fatalf("write after the failure = %v, %d applied", err, applied)
	}
	if err := inst.Release(); err != nil {
		t.Fatalf("Release = %v", err)
	}
}

func TestDirectoryInstanceWriteCorruptRecord(t *testing.T) {
	inst := NewDirectoryInstance(nil, 0, func(*kernel.Process, uint32, proto.Descriptor) error { return nil })
	if _, err := inst.WriteAt(nil, 0, []byte{1, 2, 3}); !errors.Is(err, proto.ErrBadArgs) {
		t.Fatalf("err = %v", err)
	}
}

func TestDirectoryInstanceWithoutModifyIsReadOnly(t *testing.T) {
	inst := NewDirectoryInstance(nil, 0, nil)
	if _, err := inst.WriteAt(nil, 0, []byte("x")); !errors.Is(err, proto.ErrModeNotSupported) {
		t.Fatalf("err = %v", err)
	}
}

func TestHandleOpQueryReadWriteRelease(t *testing.T) {
	r, p := NewRegistry(), newFileRig(t).server
	inst := newMem([]byte("0123456789"), true)
	inst.blockSize = 4
	info, _ := r.Open(inst, "f")
	id := info.ID

	q := &proto.Message{Op: proto.OpQueryInstance, F: [6]uint32{uint32(id)}}
	reply := r.HandleOp(p, q, kernel.NilPID)
	if reply.Op != proto.ReplyOK {
		t.Fatalf("query reply = %v", reply.Op)
	}
	info = proto.GetInstanceInfo(reply)
	if info.SizeBytes != 10 || info.BlockSize != 4 {
		t.Fatalf("info = %+v", info)
	}

	read := &proto.Message{Op: proto.OpReadInstance, F: [6]uint32{uint32(id), 1}}
	reply = r.HandleOp(p, read, kernel.NilPID)
	if reply.Op != proto.ReplyOK || string(reply.Segment) != "4567" {
		t.Fatalf("read block 1 = %v %q", reply.Op, reply.Segment)
	}

	write := &proto.Message{Op: proto.OpWriteInstance, F: [6]uint32{uint32(id), 0, 2}, Segment: []byte("XX")}
	reply = r.HandleOp(p, write, kernel.NilPID)
	if reply.Op != proto.ReplyOK || reply.F[1] != 2 {
		t.Fatalf("write reply = %v", reply)
	}
	read0 := &proto.Message{Op: proto.OpReadInstance, F: [6]uint32{uint32(id), 0}}
	if got := r.HandleOp(p, read0, kernel.NilPID); string(got.Segment) != "01XX" {
		t.Fatalf("after write, block 0 = %q", got.Segment)
	}

	rel := &proto.Message{Op: proto.OpReleaseInstance, F: [6]uint32{uint32(id)}}
	if reply = r.HandleOp(p, rel, kernel.NilPID); reply.Op != proto.ReplyOK {
		t.Fatalf("release reply = %v", reply.Op)
	}
	if len(r.instances) != 0 {
		t.Fatal("release did not remove instance")
	}
}

func TestHandleOpReadPastEnd(t *testing.T) {
	r, p := NewRegistry(), newFileRig(t).server
	info, _ := r.Open(NewDirectoryInstance([]byte("ab"), 0, nil), "f")
	id := info.ID
	read := &proto.Message{Op: proto.OpReadInstance, F: [6]uint32{uint32(id), 9}}
	if reply := r.HandleOp(p, read, kernel.NilPID); reply.Op != proto.ReplyEndOfFile {
		t.Fatalf("reply = %v", reply.Op)
	}
}

func TestHandleOpWriteToReadOnly(t *testing.T) {
	r := NewRegistry()
	info, _ := r.Open(NewDirectoryInstance([]byte("ab"), 0, nil), "f")
	id := info.ID
	w := &proto.Message{Op: proto.OpWriteInstance, F: [6]uint32{uint32(id)}, Segment: []byte("x")}
	if reply := r.HandleOp(nil, w, kernel.NilPID); reply.Op != proto.ReplyModeNotSupported {
		t.Fatalf("reply = %v", reply.Op)
	}
}

func TestHandleOpUnknownInstance(t *testing.T) {
	r := NewRegistry()
	read := &proto.Message{Op: proto.OpReadInstance, F: [6]uint32{777}}
	if reply := r.HandleOp(nil, read, kernel.NilPID); reply.Op != proto.ReplyBadArgs {
		t.Fatalf("reply = %v", reply.Op)
	}
}

func TestHandleOpUnhandledReturnsNil(t *testing.T) {
	r := NewRegistry()
	if reply := r.HandleOp(nil, &proto.Message{Op: proto.OpEcho}, kernel.NilPID); reply != nil {
		t.Fatalf("reply = %v", reply)
	}
}

func TestHandleOpGetInstanceName(t *testing.T) {
	r := NewRegistry()
	info, _ := r.Open(NewDirectoryInstance(nil, 0, nil), "[storage]/users/mann/f")
	id := info.ID
	req := &proto.Message{Op: proto.OpGetInstanceName, F: [6]uint32{uint32(id)}}
	reply := r.HandleOp(nil, req, kernel.NilPID)
	if reply.Op != proto.ReplyOK || string(reply.Segment) != "[storage]/users/mann/f" {
		t.Fatalf("reply = %v %q", reply.Op, reply.Segment)
	}
}
