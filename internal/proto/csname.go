package proto

import (
	"fmt"
	"unsafe"
)

// Standard CSname request field conventions (§5.3). Every CSname request
// carries, at fixed positions independent of the operation code:
//
//	F[0]  context identifier in which interpretation (re)starts
//	F[1]  index into the name at which interpretation is to begin
//	F[2]  length of the name in bytes
//	Segment[0:F[2]]  the name itself
//
// The server-pid half of the context is implicit: it is the process the
// message is sent (or forwarded) to. The remaining fields F[3..5] and any
// segment bytes past the name belong to the variant part of the request.
const (
	fieldContext = 0
	fieldIndex   = 1
	fieldNameLen = 2
)

// SetCSName initializes the standard CSname fields of a request: the full
// name in the segment, interpretation starting at index 0 in context ctx.
// Any existing variant segment data is discarded, but the segment's
// backing array is reused when it has capacity, so re-encoding a request
// into a recycled message does not allocate.
func SetCSName(m *Message, ctx uint32, name string) {
	m.F[fieldContext] = ctx
	m.F[fieldIndex] = 0
	m.F[fieldNameLen] = uint32(len(name))
	m.Segment = append(m.Segment[:0], name...)
}

// CSNameContext returns the context id field of a CSname request.
func CSNameContext(m *Message) uint32 { return m.F[fieldContext] }

// CSName returns the full name carried by the request and the index at
// which interpretation should continue. It fails if the standard fields
// are inconsistent with the segment.
// The name is a view of m's segment, not a copy, valid until the handler
// replies, forwards or writes into m; what a server keeps past that, it
// copies (PROTOCOL.md §7).
func CSName(m *Message) (name string, index int, err error) {
	n := int(m.F[fieldNameLen])
	if n > len(m.Segment) {
		return "", 0, fmt.Errorf("%w: name length %d exceeds segment %d", ErrBadArgs, n, len(m.Segment))
	}
	idx := int(m.F[fieldIndex])
	if idx > n {
		return "", 0, fmt.Errorf("%w: name index %d exceeds name length %d", ErrBadArgs, idx, n)
	}
	return view(m.Segment[:n]), idx, nil
}

// view is b as a string sharing its bytes: a name read where it lies in
// a segment.
func view(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// Borrows reports whether s lies in the storage of m's segment: a name
// read with CSName, RenameNewName or DirPattern that m's answer would
// overwrite.
func Borrows(m *Message, s string) bool {
	if len(s) == 0 || cap(m.Segment) == 0 {
		return false
	}
	base := uintptr(unsafe.Pointer(unsafe.SliceData(m.Segment)))
	p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
	return p >= base && p < base+uintptr(cap(m.Segment))
}

// RewriteCSName updates the interpretation state of a request before it is
// forwarded to the server implementing the next context (§5.4): the
// context id field is set to the new current context and the name index to
// the first byte not yet parsed.
func RewriteCSName(m *Message, ctx uint32, index int) {
	m.F[fieldContext] = ctx
	m.F[fieldIndex] = uint32(index)
}

// AppendNewName completes an OpRenameObject or OpLinkObject request whose
// old name SetCSName has encoded: the new name follows it in the segment,
// with its length in F[3]. Both names are interpreted by the receiving
// server.
func AppendNewName(m *Message, newName string) {
	m.F[3] = uint32(len(newName))
	m.Segment = append(m.Segment, newName...)
}

// RenameNewName extracts the new name from an OpRenameObject request,
// a view of m's segment as CSName's is.
func RenameNewName(m *Message) (string, error) {
	oldLen := int(m.F[fieldNameLen])
	newLen := int(m.F[3])
	if oldLen+newLen > len(m.Segment) {
		return "", fmt.Errorf("%w: rename names exceed segment", ErrBadArgs)
	}
	return view(m.Segment[oldLen : oldLen+newLen]), nil
}

// AddContextName target encodings. An added name may bind either to a
// static (server-pid, context-id) pair, or dynamically to a
// (service, well-known-context) pair that is re-resolved with GetPid each
// time the name is used (§6).
const (
	// FlagDynamicBinding marks an OpAddContextName request whose target
	// is a (service, well-known-context) pair rather than a concrete pid.
	FlagDynamicBinding uint16 = 1 << 0
)

// SetAddContextTarget encodes the static target of an OpAddContextName:
// F[3] = server pid, F[4] = context id on that server.
func SetAddContextTarget(m *Message, serverPid uint32, ctx uint32) {
	m.Flags &^= FlagDynamicBinding
	m.F[3] = serverPid
	m.F[4] = ctx
}

// SetAddContextDynamicTarget encodes the dynamic target of an
// OpAddContextName: F[3] = service code, F[4] = well-known context id.
func SetAddContextDynamicTarget(m *Message, service uint32, wellKnownCtx uint32) {
	m.Flags |= FlagDynamicBinding
	m.F[3] = service
	m.F[4] = wellKnownCtx
}

// AddContextTarget decodes an OpAddContextName target.
func AddContextTarget(m *Message) (dynamic bool, pidOrService uint32, ctx uint32) {
	return m.Flags&FlagDynamicBinding != 0, m.F[3], m.F[4]
}

// Name-fault reporting (extension; see DESIGN.md). The paper's §7 notes
// that when a lookup fails after a name has been forwarded through a
// series of servers, it is difficult to properly inform the user. Failure
// replies to CSname requests therefore carry where interpretation died:
//
//	F[1]  byte index of the failing component within the name
//	F[2]  pid of the server reporting the failure
//	Segment  the failing component
//
// A zero F[2] marks a failure reply without fault details.

// SetNameFault records fault details in a failure reply. component may
// be a view of m's own segment (a request answered in place): it is
// copied out before the segment is replaced.
func SetNameFault(m *Message, index int, server uint32, component string) {
	m.F[1] = uint32(index)
	m.F[2] = server
	m.Segment = []byte(component)
}

// NameFault extracts fault details from a failure reply, reporting ok
// false when none were recorded.
func NameFault(m *Message) (index int, server uint32, component string, ok bool) {
	if m.Op == ReplyOK || m.F[2] == 0 {
		return 0, 0, "", false
	}
	return int(m.F[1]), m.F[2], string(m.Segment), true
}

// Instance open modes for OpCreateInstance, carried in F[3].
const (
	ModeRead      uint32 = 1 << 0
	ModeWrite     uint32 = 1 << 1
	ModeCreate    uint32 = 1 << 2 // create the object if the last component is unbound
	ModeAppend    uint32 = 1 << 3
	ModeDirectory uint32 = 1 << 4 // open the context directory of the named context (§5.6)
	ModeTruncate  uint32 = 1 << 5
)

// Context-directory pattern matching (the extension §5.6 proposes: have
// the server include only matching objects in the returned directory).
// The pattern follows the name in the segment of a directory-mode
// OpCreateInstance request, with its length in F[5].

// SetDirPattern appends a match pattern to a directory-open request. Call
// after SetCSName, which owns the front of the segment.
func SetDirPattern(m *Message, pattern string) {
	m.F[5] = uint32(len(pattern))
	m.Segment = append(m.Segment, pattern...)
}

// DirPattern extracts the match pattern from a directory-open request,
// a view of m's segment as CSName's is; empty means "all objects".
func DirPattern(m *Message) (string, error) {
	n := int(m.F[5])
	if n == 0 {
		return "", nil
	}
	nameLen := int(m.F[fieldNameLen])
	if nameLen+n > len(m.Segment) {
		return "", fmt.Errorf("%w: pattern exceeds segment", ErrBadArgs)
	}
	return view(m.Segment[nameLen : nameLen+n]), nil
}

// SetOpenMode stores the open mode of an OpCreateInstance request.
func SetOpenMode(m *Message, mode uint32) { m.F[3] = mode }

// OpenMode returns the open mode of an OpCreateInstance request.
func OpenMode(m *Message) uint32 { return m.F[3] }

// Program-execution environment (§6: "When a new program is executed, it
// is passed a process identifier and context identifier specifying its
// current context"). The variant part of OpExecProgram carries the
// invoker's naming state: F[3] = the prefix server pid, F[4] = the
// current context's server pid, F[5] = the current context id.

// SetExecEnvironment stores the invoker's naming state in an
// OpExecProgram request.
func SetExecEnvironment(m *Message, prefixServer, currentServer, currentCtx uint32) {
	m.F[3] = prefixServer
	m.F[4] = currentServer
	m.F[5] = currentCtx
}

// ExecEnvironment extracts the invoker's naming state.
func ExecEnvironment(m *Message) (prefixServer, currentServer, currentCtx uint32) {
	return m.F[3], m.F[4], m.F[5]
}

// InstanceInfo describes an open instance, carried in the reply to
// OpCreateInstance and OpQueryInstance.
type InstanceInfo struct {
	ID        uint16 // object instance identifier (§4.3)
	SizeBytes uint32
	BlockSize uint32
	Flags     uint32 // ModeRead/ModeWrite capabilities of the instance
}

// SetInstanceInfo stores instance parameters into a reply message:
// F[0]=id, F[1]=size, F[2]=block size, F[3]=flags.
func SetInstanceInfo(m *Message, info InstanceInfo) {
	m.F[0] = uint32(info.ID)
	m.F[1] = info.SizeBytes
	m.F[2] = info.BlockSize
	m.F[3] = info.Flags
}

// GetInstanceInfo extracts instance parameters from a reply message.
func GetInstanceInfo(m *Message) InstanceInfo {
	return InstanceInfo{
		ID:        uint16(m.F[0]),
		SizeBytes: m.F[1],
		BlockSize: m.F[2],
		Flags:     m.F[3],
	}
}

// SetInstanceOwner records (in F[4]) the pid of the server implementing a
// just-opened instance. The reply must carry it explicitly because an
// open may have been forwarded: the instance lives at the final server,
// not the one the client first sent to (§5.4).
func SetInstanceOwner(m *Message, pid uint32) { m.F[4] = pid }

// InstanceOwner returns the owning server pid from an open reply, or 0 if
// the server did not set one.
func InstanceOwner(m *Message) uint32 { return m.F[4] }

// SetMapContextReply stores the resolved (server-pid, context-id) pair in
// an OpMapContext reply: F[0]=context id, F[1]=server pid. The pid must be
// explicit in the reply because the replying server may not be the one the
// request was originally sent to (forwarding, §5.4).
func SetMapContextReply(m *Message, serverPid uint32, ctx uint32) {
	m.F[0] = ctx
	m.F[1] = serverPid
}

// GetMapContextReply extracts the resolved pair from an OpMapContext
// reply.
func GetMapContextReply(m *Message) (serverPid uint32, ctx uint32) {
	return m.F[1], m.F[0]
}
