package core

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/proto"
)

// MapStore is a reusable in-memory ContextStore for servers whose name
// spaces are simple tables: flat or shallow hierarchies of bindings.
// Larger servers (the file server) implement ContextStore over their own
// structures instead.
type MapStore struct {
	mu       sync.RWMutex
	contexts map[ContextID]map[string]Entry
}

// NewMapStore returns a store containing only the default (root) context.
func NewMapStore() *MapStore {
	return &MapStore{contexts: map[ContextID]map[string]Entry{CtxDefault: {}}}
}

// AddContext creates an (empty) context with the given id.
func (s *MapStore) AddContext(ctx ContextID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.contexts[ctx]; !ok {
		s.contexts[ctx] = make(map[string]Entry)
	}
}

// Bind defines name in ctx. It fails with proto.ErrDuplicateName if the
// name is already bound. The store keeps name: it must not be a view of
// a request (proto.CSName).
func (s *MapStore) Bind(ctx ContextID, name string, e Entry) error {
	if name == "" {
		return fmt.Errorf("%w: empty name", proto.ErrBadArgs)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.contexts[ctx]
	if !ok {
		return fmt.Errorf("%w: %#x", proto.ErrBadContext, uint32(ctx))
	}
	if _, dup := c[name]; dup {
		return fmt.Errorf("%q: %w", name, proto.ErrDuplicateName)
	}
	c[name] = e
	return nil
}

// Unbind removes name from ctx.
func (s *MapStore) Unbind(ctx ContextID, name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.contexts[ctx]
	if !ok {
		return fmt.Errorf("%w: %#x", proto.ErrBadContext, uint32(ctx))
	}
	if _, bound := c[name]; !bound {
		return fmt.Errorf("%q: %w", name, proto.ErrNotFound)
	}
	delete(c, name)
	return nil
}

// Names returns the sorted names bound in ctx.
func (s *MapStore) Names(ctx ContextID) ([]string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c, ok := s.contexts[ctx]
	if !ok {
		return nil, fmt.Errorf("%w: %#x", proto.ErrBadContext, uint32(ctx))
	}
	names := make([]string, 0, len(c))
	for n := range c {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

// Lookup returns the binding of name in ctx.
func (s *MapStore) Lookup(ctx ContextID, name string) (Entry, error) {
	return s.LookupComponent(ctx, name)
}

// NormalizeContext implements ContextStore.
func (s *MapStore) NormalizeContext(ctx ContextID) (ContextID, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if _, ok := s.contexts[ctx]; !ok {
		return 0, fmt.Errorf("%w: %#x", proto.ErrBadContext, uint32(ctx))
	}
	return ctx, nil
}

// LookupComponent implements ContextStore.
func (s *MapStore) LookupComponent(ctx ContextID, component string) (Entry, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c, ok := s.contexts[ctx]
	if !ok {
		return Entry{}, fmt.Errorf("%w: %#x", proto.ErrBadContext, uint32(ctx))
	}
	e, bound := c[component]
	if !bound {
		// Bare, as interpret needs it: see the ContextStore contract.
		return Entry{}, proto.ErrNotFound
	}
	return e, nil
}

var _ ContextStore = (*MapStore)(nil)
