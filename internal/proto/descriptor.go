package proto

import (
	"encoding/binary"
	"fmt"
)

// DescriptorTag identifies the type of object a description record
// describes. The tag is the first field of every record, specifying the
// format of the rest — the same variant-record technique used for request
// messages (§5.5). It also lets an application check that an object is of
// the type it expects.
type DescriptorTag uint16

const (
	TagFile DescriptorTag = iota + 1
	TagDirectory
	TagContextPrefix
	TagTerminal
	TagPrintJob
	TagTCPConnection
	TagProgram
	TagMailbox
	TagLink // a context pointer into another server's name space
	TagServiceBinding
	TagPipe
)

// String names the tag for directory listings.
func (t DescriptorTag) String() string {
	switch t {
	case TagFile:
		return "file"
	case TagDirectory:
		return "directory"
	case TagContextPrefix:
		return "context-prefix"
	case TagTerminal:
		return "terminal"
	case TagPrintJob:
		return "print-job"
	case TagTCPConnection:
		return "tcp-connection"
	case TagProgram:
		return "program"
	case TagMailbox:
		return "mailbox"
	case TagLink:
		return "link"
	case TagServiceBinding:
		return "service-binding"
	case TagPipe:
		return "pipe"
	default:
		return fmt.Sprintf("tag(%d)", uint16(t))
	}
}

// Permission bits in Descriptor.Perms.
const (
	PermRead uint16 = 1 << iota
	PermWrite
	PermExecute
)

// Descriptor is a typed object description record (Figure 3): a list of
// the object's attributes, of which its name is one. Query operations
// return one record; context directories are sequences of them; the
// modify operation overwrites one.
type Descriptor struct {
	Tag      DescriptorTag
	Perms    uint16
	ObjectID uint32 // server-internal low-level identifier (i-node number, instance id, ...)
	Size     uint32 // size in bytes, queue position, connection count — tag-specific
	Modified uint64 // virtual-time timestamp (nanoseconds since boot)
	// TypeSpecific carries two tag-defined words, e.g. the
	// (server-pid, context-id) target of a TagLink or TagContextPrefix.
	TypeSpecific [2]uint32
	Name         string
	Owner        string
}

const descriptorFixedBytes = 2 + 2 + 4 + 4 + 8 + 8 + 2 + 2

// EncodedSize returns the record's encoded size in bytes.
func (d *Descriptor) EncodedSize() int {
	return descriptorFixedBytes + len(d.Name) + len(d.Owner)
}

// AppendEncoded appends the record's wire encoding to buf.
func (d *Descriptor) AppendEncoded(buf []byte) []byte {
	var fixed [descriptorFixedBytes]byte
	binary.BigEndian.PutUint16(fixed[0:], uint16(d.Tag))
	binary.BigEndian.PutUint16(fixed[2:], d.Perms)
	binary.BigEndian.PutUint32(fixed[4:], d.ObjectID)
	binary.BigEndian.PutUint32(fixed[8:], d.Size)
	binary.BigEndian.PutUint64(fixed[12:], d.Modified)
	binary.BigEndian.PutUint32(fixed[20:], d.TypeSpecific[0])
	binary.BigEndian.PutUint32(fixed[24:], d.TypeSpecific[1])
	binary.BigEndian.PutUint16(fixed[28:], uint16(len(d.Name)))
	binary.BigEndian.PutUint16(fixed[30:], uint16(len(d.Owner)))
	buf = append(buf, fixed[:]...)
	buf = append(buf, d.Name...)
	buf = append(buf, d.Owner...)
	return buf
}

// recordLen returns the size of the record at the front of buf, read from
// its fixed part, or an error if buf holds less than that.
func recordLen(buf []byte) (int, error) {
	if len(buf) < descriptorFixedBytes {
		return 0, fmt.Errorf("%w: descriptor truncated at %d bytes", ErrBadArgs, len(buf))
	}
	nameLen := int(binary.BigEndian.Uint16(buf[28:]))
	ownerLen := int(binary.BigEndian.Uint16(buf[30:]))
	total := descriptorFixedBytes + nameLen + ownerLen
	if len(buf) < total {
		return 0, fmt.Errorf("%w: descriptor strings truncated", ErrBadArgs)
	}
	return total, nil
}

// decode fills d from the record at the front of buf, which recordLen has
// found whole, and returns the record's size. The name and owner are
// sliced from strs, the record's bytes after its fixed part as a string,
// so a stream's records share one string.
func (d *Descriptor) decode(buf []byte, strs string) int {
	d.Tag = DescriptorTag(binary.BigEndian.Uint16(buf[0:]))
	d.Perms = binary.BigEndian.Uint16(buf[2:])
	d.ObjectID = binary.BigEndian.Uint32(buf[4:])
	d.Size = binary.BigEndian.Uint32(buf[8:])
	d.Modified = binary.BigEndian.Uint64(buf[12:])
	d.TypeSpecific[0] = binary.BigEndian.Uint32(buf[20:])
	d.TypeSpecific[1] = binary.BigEndian.Uint32(buf[24:])
	nameLen := int(binary.BigEndian.Uint16(buf[28:]))
	strsLen := nameLen + int(binary.BigEndian.Uint16(buf[30:]))
	d.Name = strs[:nameLen]
	d.Owner = strs[nameLen:strsLen]
	return descriptorFixedBytes + strsLen
}

// DecodeDescriptor decodes one record from the front of buf, returning the
// record and the number of bytes consumed.
func DecodeDescriptor(buf []byte) (Descriptor, int, error) {
	n, err := recordLen(buf)
	if err != nil {
		return Descriptor{}, 0, err
	}
	var d Descriptor
	d.decode(buf, string(buf[descriptorFixedBytes:n]))
	return d, n, nil
}

// EncodeDescriptors encodes a context directory: the concatenation of the
// records of the objects in a context (§5.6).
func EncodeDescriptors(list []Descriptor) []byte {
	n := 0
	for i := range list {
		n += list[i].EncodedSize()
	}
	buf := make([]byte, 0, n)
	for i := range list {
		buf = list[i].AppendEncoded(buf)
	}
	return buf
}

// WholeRecords returns the length of the longest prefix of buf made of
// whole description records; what follows it is the start of a record
// the stream was cut inside, or nothing.
func WholeRecords(buf []byte) int {
	whole := 0
	for {
		n, err := recordLen(buf[whole:])
		if err != nil {
			return whole
		}
		whole += n
	}
}

// DecodeDescriptors decodes a whole context directory stream in one
// allocation: the record lengths are walked first, so the result is
// allocated once at its size, and every Name and Owner is a slice of buf
// itself. DecodeDescriptors therefore takes buf over: the caller must not
// write it afterwards, and a decoded string keeps the whole stream alive.
func DecodeDescriptors(buf []byte) ([]Descriptor, error) {
	count := 0
	for rest := buf; len(rest) > 0; count++ {
		n, err := recordLen(rest)
		if err != nil {
			return nil, err
		}
		rest = rest[n:]
	}
	if count == 0 {
		return nil, nil
	}
	out := make([]Descriptor, count)
	s := view(buf)
	off := 0
	for i := range out {
		off += out[i].decode(buf[off:], s[off+descriptorFixedBytes:])
	}
	return out, nil
}
