package vio

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/kernel"
	"repro/internal/proto"
)

// BytesInstance serves a byte slice as a file-like instance: memory
// arrays, fabricated context directories, print-job payloads, terminal
// buffers. WriteSink, if set, receives every write instead of mutating the
// snapshot — this is how writing a context directory record becomes a
// modify operation (§5.6).
type BytesInstance struct {
	mu        sync.Mutex
	data      []byte
	blockSize uint32
	flags     uint32
	released  func() error
	writeSink func(off int64, data []byte) error
}

// BytesOption configures a BytesInstance.
type BytesOption func(*BytesInstance)

// Writable enables writes that grow/mutate the in-memory data.
func Writable() BytesOption {
	return func(b *BytesInstance) { b.flags |= proto.ModeWrite }
}

// WithWriteSink enables writes and routes them to sink instead of the
// buffer.
func WithWriteSink(sink func(off int64, data []byte) error) BytesOption {
	return func(b *BytesInstance) {
		b.flags |= proto.ModeWrite
		b.writeSink = sink
	}
}

// OnRelease registers a release callback, whose error Release returns.
func OnRelease(fn func() error) BytesOption {
	return func(b *BytesInstance) { b.released = fn }
}

// NewBytesInstance serves data (readable by default).
func NewBytesInstance(data []byte, opts ...BytesOption) *BytesInstance {
	b := &BytesInstance{
		data:      data,
		blockSize: DefaultBlockSize,
		flags:     proto.ModeRead,
	}
	for _, opt := range opts {
		opt(b)
	}
	return b
}

// Info implements Instance.
func (b *BytesInstance) Info() proto.InstanceInfo {
	b.mu.Lock()
	defer b.mu.Unlock()
	return proto.InstanceInfo{
		SizeBytes: uint32(len(b.data)),
		BlockSize: b.blockSize,
		Flags:     b.flags,
	}
}

// ReadAt implements Instance. Byte instances live in server memory, so no
// wait is charged to the serving process.
func (b *BytesInstance) ReadAt(_ *kernel.Process, off int64, buf []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if off >= int64(len(b.data)) {
		return 0, proto.ErrEndOfFile
	}
	return copy(buf, b.data[off:]), nil
}

// WriteAt implements Instance.
func (b *BytesInstance) WriteAt(_ *kernel.Process, off int64, data []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.flags&proto.ModeWrite == 0 {
		return 0, proto.ErrModeNotSupported
	}
	if b.writeSink != nil {
		if err := b.writeSink(off, data); err != nil {
			return 0, err
		}
		return len(data), nil
	}
	if off < 0 {
		return 0, fmt.Errorf("%w: negative offset", proto.ErrBadArgs)
	}
	if need := int(off) + len(data); need > len(b.data) {
		grown := make([]byte, need)
		copy(grown, b.data)
		b.data = grown
	}
	return copy(b.data[off:], data), nil
}

// Release implements Instance.
func (b *BytesInstance) Release() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.released != nil {
		return b.released()
	}
	return nil
}

// NewDirectoryInstance serves a context directory: a read-only stream of
// encoded description records, where writing a record back invokes modify
// on the corresponding object (§5.6).
//
// File.Write splits its data at block boundaries, so a write that ends on
// one may end inside a record: that torn tail is kept and completes the
// next write, which must continue at that offset. A write ending elsewhere
// must end with a whole record, or none of its records is applied. A torn
// tail nothing completes is reported, never dropped in silence: the next
// write fails if it starts elsewhere, and Release fails if none comes.
func NewDirectoryInstance(stream []byte, modify func(proto.Descriptor) error) *BytesInstance {
	if modify == nil {
		return NewBytesInstance(stream)
	}
	var (
		torn   []byte
		tornAt int64 // the offset the write continuing torn starts at
	)
	unfinished := func() error {
		if len(torn) == 0 {
			return nil
		}
		return fmt.Errorf("%w: a description record torn at offset %d was never completed", proto.ErrBadArgs, tornAt)
	}
	sink := WithWriteSink(func(off int64, data []byte) error {
		end := off + int64(len(data))
		if err := unfinished(); err != nil && off != tornAt {
			torn = nil
			return err
		}
		if len(torn) > 0 {
			data, torn = append(torn, data...), nil
		}
		whole := proto.WholeRecords(data)
		if whole < len(data) && end%DefaultBlockSize != 0 {
			return fmt.Errorf("%w: write ends inside a description record", proto.ErrBadArgs)
		}
		// Whole records decode; the copy is theirs, as data is the writer's.
		records, _ := proto.DecodeDescriptors(slices.Clone(data[:whole]))
		for _, d := range records {
			if err := modify(d); err != nil {
				return err
			}
		}
		if whole < len(data) {
			torn, tornAt = append([]byte(nil), data[whole:]...), end
		}
		return nil
	})
	return NewBytesInstance(stream, sink, OnRelease(unfinished))
}

var _ Instance = (*BytesInstance)(nil)
