// Package namemodel is the "concise semantic model of the V-System
// naming" the paper's §7 says the authors were hoping to develop: a pure,
// centralized reference model of the naming forest, used to check the
// distributed implementation.
//
// The model views the whole V domain the way §2.3 describes it — a
// distributed database of (name, object) tuples — as one flat map from
// *rooted names* to object values. A rooted name is (tree, path): the
// tree identifies a server's forest tree (Figure 4), the path is the
// component sequence from its root. Cross-server links collapse to
// aliases: interpretation of a path that traverses a link continues in
// the target tree, exactly like the protocol's forwarding, but with no
// messages, servers, or failures.
//
// The model is deliberately tiny: contexts are path prefixes, objects
// are leaves, links are (tree, path) pointers. The namemodel tests drive
// the real rig and the model with the same random operation sequences
// and require identical outcomes — an executable semantics for the
// protocol.
package namemodel

import (
	"fmt"
	"sort"
	"strings"
)

// Tree identifies one tree of the naming forest (one server's name
// space).
type Tree string

// Path is a rooted component sequence within a tree.
type Path []string

// String renders a path.
func (p Path) String() string { return "/" + strings.Join(p, "/") }

// clone copies a path.
func (p Path) clone() Path { return append(Path(nil), p...) }

// node is one vertex of the model forest.
type node struct {
	// kind discriminates the three §5 binding kinds.
	isContext bool
	link      *Target // non-nil: alias to a context in another tree
	object    []byte  // contents for leaf objects
	children  map[string]*node
}

// Target is a (tree, path) pointer — the model's rendering of a
// (server-pid, context-id) pair.
type Target struct {
	Tree Tree
	Path Path
}

// Model is the reference naming forest.
type Model struct {
	trees map[Tree]*node
}

// New returns an empty model.
func New() *Model { return &Model{trees: make(map[Tree]*node)} }

// AddTree creates an empty tree (a server's root context).
func (m *Model) AddTree(t Tree) {
	if _, ok := m.trees[t]; !ok {
		m.trees[t] = &node{isContext: true, children: make(map[string]*node)}
	}
}

// Outcome is the model's answer for a resolution: exactly one field set.
type Outcome struct {
	// Object is the contents of the resolved leaf object.
	Object []byte
	// Context is the canonical (tree, path) of the resolved context.
	Context *Target
	// Err is the standard failure: "notfound", "notacontext".
	Err string
}

// errOutcome builds a failure outcome.
func errOutcome(code string) Outcome { return Outcome{Err: code} }

const (
	ErrNotFound     = "notfound"
	ErrNotAContext  = "notacontext"
	ErrDuplicate    = "duplicate"
	ErrNotEmpty     = "notempty"
	ErrBadOperation = "badoperation"
)

// walk resolves (tree, path), following links mid-path the way the
// protocol forwards mid-interpretation. It returns the canonical
// location (the tree and node reached) and the final node, or a failure.
// followFinalLink controls whether a link at the *final* component is
// traversed (true for object operations, false for binding operations —
// mirroring core's interpret with and without forwardFinal).
func (m *Model) walk(t Tree, p Path, followFinalLink bool) (Tree, Path, *node, string) {
	cur, ok := m.trees[t]
	if !ok {
		return t, nil, nil, ErrNotFound
	}
	canonical := Path{}
	for i, comp := range p {
		if !cur.isContext {
			return t, canonical, nil, ErrNotAContext
		}
		child, ok := cur.children[comp]
		if !ok {
			return t, canonical, nil, ErrNotFound
		}
		last := i == len(p)-1
		if child.link != nil {
			if last && !followFinalLink {
				return t, append(canonical, comp), child, ""
			}
			// Interpretation continues in the target tree.
			rest := p[i+1:]
			full := append(child.link.Path.clone(), rest...)
			return m.walk(child.link.Tree, full, followFinalLink)
		}
		canonical = append(canonical, comp)
		cur = child
		if last {
			return t, canonical, cur, ""
		}
	}
	return t, canonical, cur, ""
}

// Resolve is the model's name interpretation: the §5.4 procedure with all
// distribution removed.
func (m *Model) Resolve(t Tree, p Path) Outcome {
	tree, canon, n, errCode := m.walk(t, p, true)
	if errCode != "" {
		return errOutcome(errCode)
	}
	if n.isContext {
		return Outcome{Context: &Target{Tree: tree, Path: canon}}
	}
	out := make([]byte, len(n.object))
	copy(out, n.object)
	return Outcome{Object: out}
}

// parentOf resolves the containing context of (tree, path) and the final
// component, following links through the *prefix* only.
func (m *Model) parentOf(t Tree, p Path) (*node, string, string) {
	if len(p) == 0 {
		return nil, "", ErrBadOperation
	}
	if len(p) == 1 {
		root, ok := m.trees[t]
		if !ok {
			return nil, "", ErrNotFound
		}
		return root, p[0], ""
	}
	tree, canon, n, errCode := m.walk(t, p[:len(p)-1], true)
	_ = tree
	_ = canon
	if errCode != "" {
		return nil, "", errCode
	}
	if !n.isContext {
		return nil, "", ErrNotAContext
	}
	return n, p[len(p)-1], ""
}

// Create binds a new leaf object at (tree, path) with contents.
func (m *Model) Create(t Tree, p Path, contents []byte) string {
	parent, name, errCode := m.parentOf(t, p)
	if errCode != "" {
		return errCode
	}
	if _, dup := parent.children[name]; dup {
		return ErrDuplicate
	}
	parent.children[name] = &node{object: append([]byte(nil), contents...)}
	return ""
}

// Mkdir binds a new context at (tree, path), matching the protocol's
// directory-mode create: an existing context (or a link to one) simply
// opens, an existing object is a duplicate-name failure.
func (m *Model) Mkdir(t Tree, p Path) string {
	parent, name, errCode := m.parentOf(t, p)
	if errCode != "" {
		return errCode
	}
	if existing, dup := parent.children[name]; dup {
		if existing.isContext || existing.link != nil {
			return ""
		}
		return ErrDuplicate
	}
	parent.children[name] = &node{isContext: true, children: make(map[string]*node)}
	return ""
}

// Link binds (tree, path) as a pointer to target — the Figure 4 curved
// arrow.
func (m *Model) Link(t Tree, p Path, target Target) string {
	parent, name, errCode := m.parentOf(t, p)
	if errCode != "" {
		return errCode
	}
	if _, dup := parent.children[name]; dup {
		return ErrDuplicate
	}
	tgt := target
	tgt.Path = target.Path.clone()
	parent.children[name] = &node{link: &tgt}
	return ""
}

// Remove unbinds the object or (empty) context at (tree, path). Links in
// the path prefix are followed, as in interpretation. A *final* link is
// only removable as a binding (unbindLink true, the protocol's
// delete-context-name); removing *through* it lands on the target
// context itself, which the protocol refuses (§5.7 semantics, reproduced
// by the implementation's remove-through-link behaviour).
func (m *Model) Remove(t Tree, p Path, unbindLink bool) string {
	parent, name, errCode := m.parentOf(t, p)
	if errCode != "" {
		return errCode
	}
	child, ok := parent.children[name]
	if !ok {
		return ErrNotFound
	}
	if child.link != nil && !unbindLink {
		return ErrBadOperation
	}
	if child.isContext && len(child.children) > 0 {
		return ErrNotEmpty
	}
	delete(parent.children, name)
	return ""
}

// List returns the sorted names bound in the context at (tree, path).
func (m *Model) List(t Tree, p Path) ([]string, string) {
	_, _, n, errCode := m.walk(t, p, true)
	if errCode != "" {
		return nil, errCode
	}
	if !n.isContext {
		return nil, ErrNotAContext
	}
	names := make([]string, 0, len(n.children))
	for name := range n.children {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, ""
}

// WriteObject replaces the contents of the object at (tree, path).
func (m *Model) WriteObject(t Tree, p Path, contents []byte) string {
	_, _, n, errCode := m.walk(t, p, true)
	if errCode != "" {
		return errCode
	}
	if n.isContext {
		return ErrNotAContext
	}
	n.object = append([]byte(nil), contents...)
	return ""
}

// Rename moves the binding at oldPath to newPath within the same tree.
func (m *Model) Rename(t Tree, oldPath, newPath Path) string {
	oldParent, oldName, errCode := m.parentOf(t, oldPath)
	if errCode != "" {
		return errCode
	}
	child, ok := oldParent.children[oldName]
	if !ok {
		return ErrNotFound
	}
	newParent, newName, errCode := m.parentOf(t, newPath)
	if errCode != "" {
		return errCode
	}
	if _, dup := newParent.children[newName]; dup {
		return ErrDuplicate
	}
	delete(oldParent.children, oldName)
	newParent.children[newName] = child
	return ""
}

// Objects enumerates every (tree, canonical path) of leaf objects — the
// model's global census, used to check reachability invariants.
func (m *Model) Objects() []string {
	var out []string
	for t, root := range m.trees {
		m.census(t, root, nil, &out)
	}
	sort.Strings(out)
	return out
}

func (m *Model) census(t Tree, n *node, prefix Path, out *[]string) {
	for name, child := range n.children {
		p := append(prefix.clone(), name)
		switch {
		case child.link != nil:
			// Links are names, not objects; their targets are counted in
			// their own tree.
		case child.isContext:
			m.census(t, child, p, out)
		default:
			*out = append(*out, fmt.Sprintf("%s:%s", t, p))
		}
	}
}

// MatchPattern is the model's definition of the §5.6 glob semantics: '*'
// matches any run, '?' any single byte. It is intentionally an
// independent implementation from core.MatchName, so the conformance
// tests cross-check the two.
func MatchPattern(pattern, name string) bool {
	if pattern == "" {
		return true
	}
	return matchAt(pattern, name)
}

func matchAt(p, n string) bool {
	if p == "" {
		return n == ""
	}
	switch p[0] {
	case '*':
		for i := 0; i <= len(n); i++ {
			if matchAt(p[1:], n[i:]) {
				return true
			}
		}
		return false
	case '?':
		return n != "" && matchAt(p[1:], n[1:])
	default:
		return n != "" && n[0] == p[0] && matchAt(p[1:], n[1:])
	}
}
