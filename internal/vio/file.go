package vio

import (
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/kernel"
	"repro/internal/proto"
)

// File is the client side of an open instance: it wraps the
// (server-pid, instance-id) pair returned by OpCreateInstance and speaks
// the block-oriented instance operations, presenting a sequential
// io.Reader/io.Writer.
type File struct {
	proc   *kernel.Process
	server kernel.PID
	info   proto.InstanceInfo
	pos    int64
	closed bool
	// req is the request message of every instance operation: a
	// transaction is over when Send returns, so one message serves all.
	req proto.Message
	// spare is the block a read that cannot land in the reader's buffer
	// is granted, so the server never allocates one; kept across Init.
	spare []byte
}

// Init makes f the client side of an already-opened instance, keeping
// only f's spare block, and returns it: a caller that opens instance
// after instance, one at a time, reuses one File. Most callers use the
// client package's Open, which performs the name-mapped
// OpCreateInstance.
func (f *File) Init(proc *kernel.Process, server kernel.PID, info proto.InstanceInfo) *File {
	*f = File{proc: proc, server: server, info: info, spare: f.spare}
	return f
}

// Server returns the pid of the server implementing the instance.
func (f *File) Server() kernel.PID { return f.server }

// InstanceID returns the instance identifier.
func (f *File) InstanceID() uint16 { return f.info.ID }

// request readies the File's request message for one operation on the
// instance.
func (f *File) request(op proto.Code) *proto.Message {
	f.req = proto.Message{Op: op}
	f.req.F[0] = uint32(f.info.ID)
	return &f.req
}

// transact sends the request readied by request, granting the server dst
// to write a read's bytes into, and maps failure replies to errors. The
// reply may land in the request (PROTOCOL.md §7), so it is returned by
// value, read before the request drops its segment.
func (f *File) transact(dst []byte) (proto.Message, error) {
	if f.closed {
		return proto.Message{}, fmt.Errorf("%w: instance closed", proto.ErrBadArgs)
	}
	reply, err := f.proc.SendMove(&f.req, f.server, nil, dst)
	var answer proto.Message
	if err == nil {
		answer = *reply
		err = proto.ReplyError(answer.Op)
	}
	f.req.Segment = nil // a written chunk is the caller's, not the File's to keep
	if err != nil {
		return proto.Message{}, err
	}
	return answer, nil
}

// ReadBlock reads up to one block at the given block index. A dst that
// holds a whole block is where the server writes it, and the result is
// then dst's prefix; otherwise the server answers with a buffer of its
// own.
func (f *File) ReadBlock(block uint32, dst []byte) ([]byte, error) {
	req := f.request(proto.OpReadInstance)
	req.F[1] = block
	reply, err := f.transact(dst)
	if err != nil {
		return nil, err
	}
	return reply.Segment, nil
}

// Read implements io.Reader with sequential block requests.
func (f *File) Read(p []byte) (int, error) {
	out, err := f.appendRead(p[:0], len(p))
	return len(out), err
}

// appendRead is Read into the tail of dst: it appends up to limit bytes
// from the current position and returns the extended slice, which is dst
// itself whenever dst has the room. A block read from its start is
// granted to the server when both dst's spare room and the limit hold a
// whole one — never past the limit, so Read writes nothing beyond len(p) —
// and the server writes it in place, where the append finds it. Any other
// read, such as the re-read of a short last block before end-of-file, is
// granted the File's spare block and copied from there.
func (f *File) appendRead(dst []byte, limit int) ([]byte, error) {
	bs := int64(f.info.BlockSize)
	if bs == 0 {
		bs = DefaultBlockSize
	}
	for total := 0; total < limit; {
		block := uint32(f.pos / bs)
		within := f.pos % bs
		var grant []byte
		if within == 0 && int64(cap(dst)-len(dst)) >= bs && int64(limit-total) >= bs {
			grant = dst[len(dst) : len(dst)+int(bs)]
		} else {
			if int64(len(f.spare)) != bs {
				f.spare = make([]byte, bs)
			}
			grant = f.spare
		}
		data, err := f.ReadBlock(block, grant)
		if err != nil {
			if errors.Is(err, proto.ErrEndOfFile) && total > 0 {
				return dst, nil
			}
			if errors.Is(err, proto.ErrEndOfFile) {
				return dst, io.EOF
			}
			return dst, err
		}
		if int64(len(data)) <= within {
			if total > 0 {
				return dst, nil
			}
			return dst, io.EOF
		}
		chunk := data[within:]
		if len(chunk) > limit-total {
			chunk = chunk[:limit-total]
		}
		dst = append(dst, chunk...)
		total += len(chunk)
		f.pos += int64(len(chunk))
		if int64(len(data)) < bs {
			// Short block: end of data.
			return dst, nil
		}
	}
	return dst, nil
}

// ReadRetry reads like Read but backs off and retries when the server
// answers Retry — the not-ready discipline for stream devices such as
// pipes. It gives up after maxRetries consecutive Retry replies.
func (f *File) ReadRetry(p []byte, maxRetries int) (int, error) {
	for attempt := 0; ; attempt++ {
		n, err := f.Read(p)
		if err != nil && errors.Is(err, proto.ErrRetry) && attempt < maxRetries {
			// Back off in virtual time before polling again.
			f.proc.ChargeCompute(time.Millisecond)
			continue
		}
		return n, err
	}
}

// readAllWindow is how much ReadAll asks of each Read. Where a window
// ends decides which block is requested twice (a short last block is read
// again before EOF is reported), and every request is a remote
// transaction in virtual time — so the window is part of the model.
const readAllWindow = 4096

// ReadAll reads the instance from the current position to EOF. The result
// is sized once, from the length the instance had at open rounded up to a
// whole block, so the server writes even a short last block in place; it
// grows only if the object has.
func (f *File) ReadAll() ([]byte, error) {
	var out []byte
	if end := int64(f.info.SizeBytes); end > f.pos {
		bs := int64(f.info.BlockSize)
		if bs == 0 {
			bs = DefaultBlockSize
		}
		out = make([]byte, 0, (end+bs-1)/bs*bs-f.pos)
	}
	for {
		var err error
		out, err = f.appendRead(out, readAllWindow)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
	}
}

// Write implements io.Writer with sequential block writes.
func (f *File) Write(p []byte) (int, error) {
	bs := int64(f.info.BlockSize)
	if bs == 0 {
		bs = DefaultBlockSize
	}
	total := 0
	for total < len(p) {
		block := uint32(f.pos / bs)
		within := f.pos % bs
		chunk := p[total:]
		if max := bs - within; int64(len(chunk)) > max {
			chunk = chunk[:max]
		}
		req := f.request(proto.OpWriteInstance)
		req.F[1] = block
		req.F[2] = uint32(within)
		req.Segment = chunk
		reply, err := f.transact(nil)
		if err != nil {
			return total, err
		}
		n := int(reply.F[1])
		total += n
		f.pos += int64(n)
		if n < len(chunk) {
			return total, io.ErrShortWrite
		}
	}
	return total, nil
}

// Seek implements io.Seeker relative to the open-time size.
func (f *File) Seek(offset int64, whence int) (int64, error) {
	var base int64
	switch whence {
	case io.SeekStart:
		base = 0
	case io.SeekCurrent:
		base = f.pos
	case io.SeekEnd:
		base = int64(f.info.SizeBytes)
	default:
		return 0, fmt.Errorf("%w: whence %d", proto.ErrBadArgs, whence)
	}
	if base+offset < 0 {
		return 0, fmt.Errorf("%w: negative position", proto.ErrBadArgs)
	}
	f.pos = base + offset
	return f.pos, nil
}

// Query refreshes and returns the instance parameters.
func (f *File) Query() (proto.InstanceInfo, error) {
	f.request(proto.OpQueryInstance)
	reply, err := f.transact(nil)
	if err != nil {
		return proto.InstanceInfo{}, err
	}
	info := proto.GetInstanceInfo(&reply)
	f.info = info
	return info, nil
}

// InstanceName asks the server for the CSname this instance was opened
// under — the inverse mapping (§5.7).
func (f *File) InstanceName() (string, error) {
	f.request(proto.OpGetInstanceName)
	reply, err := f.transact(nil)
	if err != nil {
		return "", err
	}
	return string(reply.Segment), nil
}

// Close releases the instance at the server.
func (f *File) Close() error {
	if f.closed {
		return nil
	}
	f.request(proto.OpReleaseInstance)
	_, err := f.transact(nil)
	f.closed = true
	return err
}

var (
	_ io.Reader = (*File)(nil)
	_ io.Writer = (*File)(nil)
	_ io.Seeker = (*File)(nil)
	_ io.Closer = (*File)(nil)
)
