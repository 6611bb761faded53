package proto

import (
	"errors"
	"fmt"
)

// Reply codes occupy the range below 0x0100. ReplyOK is the standard
// success reply; the others are the standard system failure replies
// indicating why a request failed (§3.2).
const (
	ReplyOK Code = iota + 1
	ReplyNotFound
	ReplyIllegalRequest
	ReplyNoPermission
	ReplyBadContext
	ReplyNotAContext
	ReplyEndOfFile
	ReplyNoServerResources
	ReplyModeNotSupported
	ReplyBadArgs
	ReplyDeviceError
	ReplyTimeout
	ReplyNonexistentProcess
	ReplyDuplicateName
	ReplyNotEmpty
	ReplyRetry
)

// Request codes carrying a character-string name (CSname requests, §5.1).
// Every one of these uses the standard CSname fields (see csname.go) and
// can therefore be partially interpreted and forwarded by any CSNH server
// even if the server does not understand the operation itself (§5.3).
const (
	// OpMapContext maps a CSname that names a context to a
	// (server-pid, context-id) pair (§5.7).
	OpMapContext Code = iota + 0x0100
	// OpQueryObject returns the typed description record of the named
	// object (§5.5).
	OpQueryObject
	// OpModifyObject overwrites modifiable fields of the named object's
	// description with the record in the request (§5.5).
	OpModifyObject
	// OpRemoveObject deletes the named object.
	OpRemoveObject
	// OpRenameObject renames the named object; the new name follows the
	// old in the segment (see AppendNewName).
	OpRenameObject
	// OpAddContextName defines a name for an existing context in another
	// server — optional, ordinarily implemented only by context prefix
	// servers (§5.7).
	OpAddContextName
	// OpDeleteContextName removes such a definition — optional.
	OpDeleteContextName
	// OpCreateInstance opens the named file-like object under the V I/O
	// protocol, returning an instance identifier (§3.2, §5.6).
	OpCreateInstance
	// OpLoadProgram transfers the named program image into the
	// requester's memory with MoveTo (§3.1).
	OpLoadProgram
	// OpExecProgram asks a program manager to execute the named program.
	OpExecProgram
	// OpLinkObject gives the named object an additional name on the same
	// server (the new name follows the old in the segment, as in
	// OpRenameObject) — the aliasing that makes the §6 inverse mapping
	// many-to-one.
	OpLinkObject
)

// Request codes that do not carry names.
const (
	// OpGetContextName maps a context id back to a CSname — the inverse
	// mapping (§5.7, §6).
	OpGetContextName Code = iota + 0x0200
	// OpGetInstanceName maps an object instance id back to a CSname.
	OpGetInstanceName
	// OpQueryInstance returns the instance parameters of an open
	// instance.
	OpQueryInstance
	// OpReadInstance reads one block of an open instance.
	OpReadInstance
	// OpWriteInstance writes one block of an open instance.
	OpWriteInstance
	// OpReleaseInstance closes an open instance.
	OpReleaseInstance
	// OpEcho replies with the request unchanged; used by the IPC timing
	// experiments.
	OpEcho
	// OpKillProgram terminates a program by object id (program manager).
	OpKillProgram
	// OpCacheInvalidate is the lease-callback message (see lease.go): a
	// granting server tells a cache holder that a name's binding changed.
	// The segment carries the name; F[4]/F[5] the commit time.
	OpCacheInvalidate
)

// Request codes of the baseline centralized name server (§2.1-2.2
// comparison; not part of the V model).
const (
	OpNSRegister Code = iota + 0x0300
	OpNSLookup
	OpNSUnregister
	OpNSList
	// OpOpenByUID opens an object by the low-level globally-unique
	// identifier a centralized name server hands out.
	OpOpenByUID
	// OpRemoveByUID deletes an object by low-level identifier (baseline
	// model only; the V model deletes by name at the owning server).
	OpRemoveByUID
)

// IsCSNameOp reports whether c is a request that carries a CSname and so
// follows the standard CSname field conventions.
func (c Code) IsCSNameOp() bool {
	return c >= OpMapContext && c <= OpLinkObject
}

// String names the code for diagnostics — and for the metrics label the
// kernel builds on every Send, so a known code is two array indexings.
func (c Code) String() string {
	if hi, lo := int(c>>8), int(c&0xff); hi < len(codeTable) && lo < len(codeTable[hi]) && codeTable[hi][lo] != "" {
		return codeTable[hi][lo]
	}
	return fmt.Sprintf("Code(0x%04x)", uint16(c))
}

// codeTable[c>>8][c&0xff] is codeNames[c]: one row per code range
// (replies, then the three request ranges), wide enough for the longest.
var codeTable = func() (t [4][32]string) {
	for c, s := range codeNames {
		t[c>>8][c&0xff] = s
	}
	return t
}()

var codeNames = map[Code]string{
	ReplyOK:                 "OK",
	ReplyNotFound:           "NotFound",
	ReplyIllegalRequest:     "IllegalRequest",
	ReplyNoPermission:       "NoPermission",
	ReplyBadContext:         "BadContext",
	ReplyNotAContext:        "NotAContext",
	ReplyEndOfFile:          "EndOfFile",
	ReplyNoServerResources:  "NoServerResources",
	ReplyModeNotSupported:   "ModeNotSupported",
	ReplyBadArgs:            "BadArgs",
	ReplyDeviceError:        "DeviceError",
	ReplyTimeout:            "Timeout",
	ReplyNonexistentProcess: "NonexistentProcess",
	ReplyDuplicateName:      "DuplicateName",
	ReplyNotEmpty:           "NotEmpty",
	ReplyRetry:              "Retry",

	OpMapContext:        "MapContext",
	OpQueryObject:       "QueryObject",
	OpModifyObject:      "ModifyObject",
	OpRemoveObject:      "RemoveObject",
	OpRenameObject:      "RenameObject",
	OpAddContextName:    "AddContextName",
	OpDeleteContextName: "DeleteContextName",
	OpCreateInstance:    "CreateInstance",
	OpLoadProgram:       "LoadProgram",
	OpExecProgram:       "ExecProgram",
	OpLinkObject:        "LinkObject",

	OpGetContextName:  "GetContextName",
	OpGetInstanceName: "GetInstanceName",
	OpQueryInstance:   "QueryInstance",
	OpReadInstance:    "ReadInstance",
	OpWriteInstance:   "WriteInstance",
	OpReleaseInstance: "ReleaseInstance",
	OpEcho:            "Echo",
	OpKillProgram:     "KillProgram",
	OpCacheInvalidate: "CacheInvalidate",

	OpNSRegister:   "NSRegister",
	OpNSLookup:     "NSLookup",
	OpNSUnregister: "NSUnregister",
	OpNSList:       "NSList",
	OpOpenByUID:    "OpenByUID",
	OpRemoveByUID:  "RemoveByUID",
}

// Standard error values corresponding to the standard failure replies,
// matchable with errors.Is.
var (
	ErrNotFound           = errors.New("nonexistent name")
	ErrIllegalRequest     = errors.New("illegal request")
	ErrNoPermission       = errors.New("no permission")
	ErrBadContext         = errors.New("invalid context")
	ErrNotAContext        = errors.New("name does not specify a context")
	ErrEndOfFile          = errors.New("end of file")
	ErrNoServerResources  = errors.New("no server resources")
	ErrModeNotSupported   = errors.New("mode not supported")
	ErrBadArgs            = errors.New("bad arguments")
	ErrDeviceError        = errors.New("device error")
	ErrTimeout            = errors.New("timeout")
	ErrNonexistentProcess = errors.New("nonexistent process")
	ErrDuplicateName      = errors.New("duplicate name")
	ErrNotEmpty           = errors.New("context not empty")
	ErrRetry              = errors.New("retry")
)

// replyErrors is indexed by failure code, in code order: a table both
// directions read, so an error matching two entries (errors.Join, or two
// %w verbs) maps to the lower code on every call.
var replyErrors = [...]error{
	ReplyNotFound:           ErrNotFound,
	ReplyIllegalRequest:     ErrIllegalRequest,
	ReplyNoPermission:       ErrNoPermission,
	ReplyBadContext:         ErrBadContext,
	ReplyNotAContext:        ErrNotAContext,
	ReplyEndOfFile:          ErrEndOfFile,
	ReplyNoServerResources:  ErrNoServerResources,
	ReplyModeNotSupported:   ErrModeNotSupported,
	ReplyBadArgs:            ErrBadArgs,
	ReplyDeviceError:        ErrDeviceError,
	ReplyTimeout:            ErrTimeout,
	ReplyNonexistentProcess: ErrNonexistentProcess,
	ReplyDuplicateName:      ErrDuplicateName,
	ReplyNotEmpty:           ErrNotEmpty,
	ReplyRetry:              ErrRetry,
}

// ReplyError maps a reply code to a standard error, or nil for ReplyOK.
// Unknown failure codes map to ErrIllegalRequest.
func ReplyError(c Code) error {
	if c == ReplyOK {
		return nil
	}
	if int(c) < len(replyErrors) && replyErrors[c] != nil {
		return replyErrors[c]
	}
	return fmt.Errorf("%w: unknown reply code %v", ErrIllegalRequest, c)
}

// ErrorReply maps a standard error back to its reply code, the lowest
// whose error it matches; unrecognized errors map to ReplyIllegalRequest.
func ErrorReply(err error) Code {
	if err == nil {
		return ReplyOK
	}
	for code, e := range replyErrors {
		if e != nil && errors.Is(err, e) {
			return Code(code)
		}
	}
	return ReplyIllegalRequest
}
