package vio

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/kernel"
	"repro/internal/proto"
)

// WriteBack applies a description record written back into the
// directory of context ctx (§5.6), as the serving process p.
type WriteBack func(p *kernel.Process, ctx uint32, d proto.Descriptor) error

// DirectoryInstance serves a context directory: a stream of encoded
// description records, where writing a record back invokes modify on the
// corresponding object (§5.6) as the serving process. With no modify it
// is read-only. The instance carries its context, so a server's one
// modify serves every directory it opens.
//
// File.Write splits its data at block boundaries, so a write that ends on
// one may end inside a record: that torn tail is kept and completes the
// next write, which must continue at that offset. A write ending elsewhere
// must end with a whole record, or none of its records is applied. A torn
// tail nothing completes is reported, never dropped in silence: the next
// write fails if it starts elsewhere, and Release fails if none comes.
type DirectoryInstance struct {
	stream []byte
	ctx    uint32
	modify WriteBack

	mu     sync.Mutex
	torn   []byte
	tornAt int64 // the offset the write continuing torn starts at
}

// NewDirectoryInstance serves stream, the directory of context ctx,
// applying records written back with modify.
func NewDirectoryInstance(stream []byte, ctx uint32, modify WriteBack) *DirectoryInstance {
	return &DirectoryInstance{stream: stream, ctx: ctx, modify: modify}
}

// Info implements Instance.
func (d *DirectoryInstance) Info() proto.InstanceInfo {
	flags := uint32(proto.ModeRead)
	if d.modify != nil {
		flags |= proto.ModeWrite
	}
	return proto.InstanceInfo{SizeBytes: uint32(len(d.stream)), BlockSize: DefaultBlockSize, Flags: flags}
}

// ReadAt implements Instance. The stream lives in server memory, so no
// wait is charged to the serving process.
func (d *DirectoryInstance) ReadAt(_ *kernel.Process, off int64, buf []byte) (int, error) {
	if off >= int64(len(d.stream)) {
		return 0, proto.ErrEndOfFile
	}
	return copy(buf, d.stream[off:]), nil
}

// WriteAt implements Instance: it applies every whole record data
// completes.
func (d *DirectoryInstance) WriteAt(p *kernel.Process, off int64, data []byte) (int, error) {
	if d.modify == nil {
		return 0, proto.ErrModeNotSupported
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	n, end := len(data), off+int64(len(data))
	if err := d.unfinished(); err != nil && off != d.tornAt {
		d.torn = nil
		return 0, err
	}
	if len(d.torn) > 0 {
		data, d.torn = append(d.torn, data...), nil
	}
	whole := proto.WholeRecords(data)
	if whole < len(data) && end%DefaultBlockSize != 0 {
		return 0, fmt.Errorf("%w: write ends inside a description record", proto.ErrBadArgs)
	}
	// Whole records decode; the copy is theirs, as data is the writer's.
	records, _ := proto.DecodeDescriptors(slices.Clone(data[:whole]))
	for _, rec := range records {
		if err := d.modify(p, d.ctx, rec); err != nil {
			return 0, err
		}
	}
	if whole < len(data) {
		d.torn, d.tornAt = append([]byte(nil), data[whole:]...), end
	}
	return n, nil
}

// Release implements Instance: it fails if a torn record was never
// completed.
func (d *DirectoryInstance) Release() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.unfinished()
}

// unfinished reports a torn record waiting for its continuation; d.mu is
// held.
func (d *DirectoryInstance) unfinished() error {
	if len(d.torn) == 0 {
		return nil
	}
	return fmt.Errorf("%w: a description record torn at offset %d was never completed", proto.ErrBadArgs, d.tornAt)
}

var _ Instance = (*DirectoryInstance)(nil)
