// Package core implements the paper's primary contribution: the V-System
// name-handling protocol (§5). It provides contexts, the standard
// name-mapping procedure with cross-server forwarding (§5.4), a server
// skeleton any character-string-name-handling (CSNH) server embeds, and
// context-directory support (§5.6).
//
// Name interpretation is distributed: each server implements the naming of
// the objects it provides, plugging its object model into the engine via
// the ContextStore interface. The engine imposes only the protocol's
// minimal restrictions — left-to-right interpretation is the convention
// for hierarchical servers, and what a component looks like between
// separators is the server's business (§5.4), as the mail server's
// addresses and the Internet server's host:port names demonstrate.
package core

import (
	"errors"
	"fmt"

	"repro/internal/kernel"
	"repro/internal/proto"
)

// ContextID is a numeric identifier for a context (a set of
// (name, object) tuples) within one server. Ordinary context identifiers
// are server-assigned and valid only as long as the server process exists
// (§5.2).
type ContextID uint32

// CtxDefault is the standard default context used when a server
// implements only one context, and the conventional root of hierarchical
// servers (§5.2).
const CtxDefault ContextID = 0

// Well-known context identifiers with fixed values, specifying generic
// name spaces (§5.2).
const (
	CtxHome        ContextID = 0xFFFF0001 // the user's home directory
	CtxStdPrograms ContextID = 0xFFFF0002 // the standard program directory
	CtxPublic      ContextID = 0xFFFF0003 // the server's public root
)

// IsWellKnown reports whether ctx is one of the fixed well-known ids.
func IsWellKnown(ctx ContextID) bool { return ctx >= 0xFFFF0000 }

// ContextPair fully specifies a context in the V-System: the process that
// interprets names in it, and the context identifier within that server
// (§5.2).
type ContextPair struct {
	Server kernel.PID
	Ctx    ContextID
}

// String renders the pair for diagnostics.
func (cp ContextPair) String() string {
	return fmt.Sprintf("(%v, ctx %#x)", cp.Server, uint32(cp.Ctx))
}

// ObjectRef is a server-internal reference to a terminal (non-context)
// object: its descriptor tag and low-level identifier.
type ObjectRef struct {
	Tag proto.DescriptorTag
	ID  uint32
}

// EntryKind says which arm of an Entry holds its binding.
type EntryKind uint8

const (
	// EntryObject is a terminal object implemented by this server.
	EntryObject EntryKind = iota + 1
	// EntryContext is a sub-context on this server.
	EntryContext
	// EntryRemote is a context on another server; interpretation
	// continues there by forwarding the request (§5.4).
	EntryRemote
)

// Entry is the result of looking one name component up in a context: a
// value, whose Kind says which one of Object, Local and Remote is set.
type Entry struct {
	Kind   EntryKind
	Object ObjectRef
	Local  ContextID
	Remote ContextPair
}

// ObjectEntry, ContextEntry and RemoteEntry build the three Entry arms.
func ObjectEntry(tag proto.DescriptorTag, id uint32) Entry {
	return Entry{Kind: EntryObject, Object: ObjectRef{Tag: tag, ID: id}}
}

func ContextEntry(ctx ContextID) Entry { return Entry{Kind: EntryContext, Local: ctx} }

func RemoteEntry(pair ContextPair) Entry { return Entry{Kind: EntryRemote, Remote: pair} }

// ContextStore is the object model a server plugs into the name-mapping
// engine: a mapping from (context, component) to entries.
type ContextStore interface {
	// NormalizeContext validates a context id from a request and maps
	// well-known ids (home directory, standard programs, ...) to the
	// concrete context that implements them. It returns
	// proto.ErrBadContext for identifiers this server does not implement.
	NormalizeContext(ctx ContextID) (ContextID, error)
	// LookupComponent looks one name component up in a context,
	// returning proto.ErrNotFound itself if the component is unbound —
	// interpret reports the component, and a create meets it on every
	// call — and proto.ErrBadContext if the context is invalid.
	LookupComponent(ctx ContextID, component string) (Entry, error)
}

// Resolution is the outcome of interpreting a CSname as far as this
// server: where interpretation ended and what the final component bound
// to.
type Resolution struct {
	// Name is the full name from the request, Index the position where
	// this server began interpreting. Name and Last are views of the
	// request's segment (proto.CSName).
	Name  string
	Index int
	// Final is the context in which the final component was (or would
	// be) interpreted.
	Final ContextID
	// Last is the final name component. It is empty when the name
	// resolved to the context Final itself (an empty name, or a name
	// ending in the separator).
	Last string
	// Entry is the binding of the final component; nil when the
	// component is unbound (the caller decides between create-on-open
	// and not-found) or when Last is empty.
	Entry *Entry

	// bound is where Entry points when it is set, and fwd where a forward
	// interpret returns points, so a resolution is one piece of storage.
	bound Entry
	fwd   Forward
}

// ResolvesToContext reports whether the resolution denotes a context on
// this server rather than a terminal object, and returns it.
func (r *Resolution) ResolvesToContext() (ContextID, bool) {
	if r.Last == "" {
		return r.Final, true
	}
	if r.Entry != nil && r.Entry.Kind == EntryContext {
		return r.Entry.Local, true
	}
	return 0, false
}

// ContextOf returns the context the resolution denotes, or the standard
// error distinguishing an unbound name (ErrNotFound) from a name bound
// to a non-context object (ErrNotAContext).
func (r *Resolution) ContextOf() (ContextID, error) {
	if ctx, ok := r.ResolvesToContext(); ok {
		return ctx, nil
	}
	if r.Entry == nil {
		return 0, proto.ErrNotFound
	}
	return 0, proto.ErrNotAContext
}

// Forward directs the caller to pass the request on to the server
// implementing the next context, with interpretation continuing at Index
// in Pair.Ctx (§5.4).
type Forward struct {
	Pair  ContextPair
	Index int
}

// Separator is the conventional component separator of hierarchical V
// name spaces. The protocol itself imposes no syntax beyond the context
// prefix brackets; separators are a server convention (§5.4).
const Separator = '/'

// NameError reports where name interpretation failed: the component, its
// byte index within the name, the context it was interpreted in, and the
// server that reported the failure. It addresses the paper's §7
// observation that failures after cross-server forwarding are hard to
// explain to the user.
type NameError struct {
	Component string
	Index     int
	Ctx       ContextID
	Server    kernel.PID
	Err       error
}

// Error implements error.
func (e *NameError) Error() string {
	where := ""
	if e.Server != kernel.NilPID {
		where = fmt.Sprintf(" by server %v", e.Server)
	}
	return fmt.Sprintf("%v: component %q (byte %d, context %#x)%s",
		e.Err, e.Component, e.Index, uint32(e.Ctx), where)
}

// Unwrap exposes the underlying standard error for errors.Is.
func (e *NameError) Unwrap() error { return e.Err }

// Interpret runs the standard name-mapping procedure (§5.4) over a
// hierarchical store: starting at index in the name and context ctx, each
// component is looked up in the current context; context bindings update
// the current context; a remote binding stops interpretation and requests
// a forward. Parsing and lookup costs are charged to proc's virtual
// clock.
//
// A leading separator resets interpretation to the server's default
// (root) context, as with absolute pathnames.
func Interpret(store ContextStore, proc *kernel.Process, name string, index int, ctx ContextID) (*Resolution, *Forward, error) {
	return interpret(new(Resolution), store, proc, name, index, ctx, true)
}

// interpret is the procedure behind Interpret: it overwrites res, the
// storage of the Resolution or Forward it returns. forwardFinal false is
// the variant for operations on the *binding* of the final component
// rather than the entity it names (delete-context-name, §5.7): a final
// component bound to a remote context resolves here, to the local
// binding, instead of being forwarded to the remote server.
func interpret(res *Resolution, store ContextStore, proc *kernel.Process, name string, index int, ctx ContextID, forwardFinal bool) (*Resolution, *Forward, error) {
	model := proc.Kernel().Model()
	if index < 0 || index > len(name) {
		return nil, nil, fmt.Errorf("%w: name index %d out of range", proto.ErrBadArgs, index)
	}
	proc.ChargeCompute(model.NameParse(len(name) - index))

	pos := index
	if pos < len(name) && name[pos] == Separator {
		ctx = CtxDefault
		for pos < len(name) && name[pos] == Separator {
			pos++
		}
	}
	cur, err := store.NormalizeContext(ctx)
	if err != nil {
		return nil, nil, err
	}

	*res = Resolution{Name: name, Index: index, Final: cur}
	for pos < len(name) {
		// Scan one component.
		end := pos
		for end < len(name) && name[end] != Separator {
			end++
		}
		component := name[pos:end]
		next := end
		for next < len(name) && name[next] == Separator {
			next++
		}
		last := next >= len(name)

		if component == "." || component == "" {
			pos = next
			continue
		}

		proc.ChargeCompute(model.ContextLookupCost)
		entry, err := store.LookupComponent(cur, component)
		switch {
		case err != nil && errorsIsNotFound(err):
			if last {
				// Unbound final component: the operation decides whether
				// this is an error or a creation site.
				res.Final = cur
				res.Last = component
				res.Entry = nil
				return res, nil, nil
			}
			return nil, nil, &NameError{Component: component, Index: pos, Ctx: cur, Err: proto.ErrNotFound}
		case err != nil:
			return nil, nil, err
		}

		if entry.Kind == EntryRemote && (forwardFinal || !last) {
			// Interpretation continues at another server: forward with
			// the index at the first character not yet parsed (§5.4).
			res.fwd = Forward{Pair: entry.Remote, Index: next}
			return nil, &res.fwd, nil
		}
		if last {
			res.Final = cur
			res.Last = component
			res.bound = entry
			res.Entry = &res.bound
			return res, nil, nil
		}
		if entry.Kind != EntryContext {
			return nil, nil, &NameError{Component: component, Index: pos, Ctx: cur, Err: proto.ErrNotAContext}
		}
		cur = entry.Local
		res.Final = cur
		pos = next
	}
	// The name (or its remainder) named the context itself.
	res.Final = cur
	res.Last = ""
	res.Entry = nil
	return res, nil, nil
}

func errorsIsNotFound(err error) bool {
	return errors.Is(err, proto.ErrNotFound)
}

// MatchName reports whether a name matches a glob pattern: '*' matches
// any (possibly empty) run of bytes, '?' matches any single byte, and
// every other byte matches itself. It backs the §5.6 context-directory
// pattern extension. An empty pattern matches everything.
func MatchName(pattern, name string) bool {
	if pattern == "" {
		return true
	}
	// Iterative glob with single-star backtracking.
	var (
		p, n  int
		starP = -1
		starN int
	)
	for n < len(name) {
		switch {
		// The star case must come first: a '*' in the pattern is a
		// wildcard even when the name contains a literal '*' at the same
		// position.
		case p < len(pattern) && pattern[p] == '*':
			starP = p
			starN = n
			p++
		case p < len(pattern) && (pattern[p] == '?' || pattern[p] == name[n]):
			p++
			n++
		case starP >= 0:
			starN++
			p = starP + 1
			n = starN
		default:
			return false
		}
	}
	for p < len(pattern) && pattern[p] == '*' {
		p++
	}
	return p == len(pattern)
}

// FilterRecords returns the description records whose names match the
// pattern — the server-side filtering of the §5.6 extension, saving the
// collation and transmission of unwanted records.
func FilterRecords(records []proto.Descriptor, pattern string) []proto.Descriptor {
	if pattern == "" {
		return records
	}
	out := records[:0]
	for _, d := range records {
		if MatchName(pattern, d.Name) {
			out = append(out, d)
		}
	}
	return out
}
