// Package nametree is the population-scale name index (PROTOCOL.md
// §14): a compressed radix (patricia) tree over string keys with
// copy-on-write nodes behind an atomically swapped root.
//
// The paper's prefix table was 2.6 KB of MC68000 data (§6); the
// population-scale workloads (ROADMAP items 2–3) resolve against
// 10⁵–10⁶ names, where the flat map tables the servers grew up with
// become hot-path liabilities: snapshot rebuilds, full copies under the
// server mutex, and linear first-match scans. The radix index replaces
// them with one structure serving every access pattern the name servers
// have:
//
//   - Get is the resolution fast path: lock-free (an atomic root load
//     and a pointer descent over immutable nodes) and zero-allocation,
//     so a server team's workers and a client's classifier probes never
//     contend with writers or with each other.
//   - Walk iterates a consistent snapshot in lexicographic key order
//     with no lock held, which is what lets directory fabrication,
//     table snapshots and Bindings() run off the immutable tree instead
//     of copying the table under the server mutex.
//   - Len and KeyBytes are atomic counters, so table-size probes
//     (prefix.TableBytes) cost two loads instead of an O(n) scan.
//
// Writers (Insert, Delete, Load) serialize on an internal mutex and
// publish by atomically swapping the root; readers therefore never
// observe a partially applied mutation, and a read overlapped by a write
// sees exactly the tree before or after it — the same semantics a mutex
// would give, without the reader ever blocking. Insert and Delete
// path-copy the affected spine; Load builds a whole table out of sight,
// editing its own nodes in place, and publishes it once.
package nametree

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
)

// node is one radix node, immutable once published: the compressed edge
// label from its parent, an optional value, and children sorted by the
// first byte of their labels (sibling labels never share a first byte).
//
// text is the label followed by those first bytes, one per child in
// child order, so the descent picks a child by scanning bytes that sit
// together instead of dereferencing one child and its label per probe.
// split is len(label). Keeping both in one string and split in hasVal's
// padding keeps the node in the size class it had without the bytes.
type node[V any] struct {
	text     string
	hasVal   bool
	split    uint32
	val      V
	children []*node[V]
}

func (n *node[V]) label() string { return n.text[:n.split] }

// leaf returns a childless node holding v under label.
func leaf[V any](label string, v V) *node[V] {
	return &node[V]{text: label, split: uint32(len(label)), hasVal: true, val: v}
}

// Tree is a copy-on-write compressed radix tree from string keys to V.
// The zero value is not ready; use New.
type Tree[V any] struct {
	mu       sync.Mutex // serializes writers; readers never take it
	root     atomic.Pointer[node[V]]
	count    atomic.Int64
	keyBytes atomic.Int64
}

// New returns an empty tree.
func New[V any]() *Tree[V] {
	t := &Tree[V]{}
	t.root.Store(&node[V]{})
	return t
}

// Len returns the number of keys (an atomic load).
func (t *Tree[V]) Len() int { return int(t.count.Load()) }

// KeyBytes returns the summed length of every stored key (an atomic
// load) — the table-size counter servers report without scanning.
func (t *Tree[V]) KeyBytes() int { return int(t.keyBytes.Load()) }

// childIndex returns the position of n's child whose label starts with
// b, or -1.
func (n *node[V]) childIndex(b byte) int {
	return strings.IndexByte(n.text[n.split:], b)
}

// child returns n's child whose label starts with b.
func (n *node[V]) child(b byte) *node[V] {
	if i := n.childIndex(b); i >= 0 {
		return n.children[i]
	}
	return nil
}

// Get returns the value stored under key. It is the resolution hit
// path: lock-free and zero-allocation.
func (t *Tree[V]) Get(key string) (V, bool) {
	n := t.root.Load()
	for {
		if len(key) == 0 {
			if n.hasVal {
				return n.val, true
			}
			var zero V
			return zero, false
		}
		c := n.child(key[0])
		if c == nil || !strings.HasPrefix(key, c.label()) {
			var zero V
			return zero, false
		}
		key = key[c.split:]
		n = c
	}
}

// GetSteps is Get instrumented with the number of nodes visited during
// the descent (the root counts as one). It is the deterministic
// virtual-cost probe the population-scale experiment reports against
// the flat-table baseline; the uninstrumented Get stays the hot path.
func (t *Tree[V]) GetSteps(key string) (v V, ok bool, steps int) {
	n := t.root.Load()
	steps = 1
	for {
		if len(key) == 0 {
			if n.hasVal {
				return n.val, true, steps
			}
			return v, false, steps
		}
		c := n.child(key[0])
		if c == nil || !strings.HasPrefix(key, c.label()) {
			return v, false, steps
		}
		key = key[c.split:]
		n = c
		steps++
	}
}

// Insert stores v under key, replacing any existing value. It reports
// whether a value was replaced.
func (t *Tree[V]) Insert(key string, v V) (replaced bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	root, replaced := insert(t.root.Load(), key, v)
	t.root.Store(root)
	if !replaced {
		t.count.Add(1)
		t.keyBytes.Add(int64(len(key)))
	}
	return replaced
}

// insert returns a copy of n with v stored under key (relative to n).
func insert[V any](n *node[V], key string, v V) (*node[V], bool) {
	if len(key) == 0 {
		cp := *n
		replaced := cp.hasVal
		cp.hasVal, cp.val = true, v
		return &cp, replaced
	}
	i := n.childIndex(key[0])
	if i < 0 {
		cp := *n
		cp.addChild(leaf(key, v))
		return &cp, false
	}
	c := n.children[i]
	common := commonPrefix(key, c.label())
	nc, replaced := c, false
	if common == len(c.label()) {
		nc, replaced = insert(c, key[common:], v)
	} else {
		// The key diverges inside c's label: split a copy of the edge.
		tail := *c
		nc = fork(&tail, key, common, v)
	}
	return n.withChild(i, nc), replaced
}

// withChild returns a copy of n whose i-th child is c, which starts with
// the byte the old one did.
func (n *node[V]) withChild(i int, c *node[V]) *node[V] {
	cp := *n
	cp.children = make([]*node[V], len(n.children))
	copy(cp.children, n.children)
	cp.children[i] = c
	return &cp
}

// fork splits tail's edge where key leaves it, after at bytes, and
// stores v under key there. It edits tail in place into the lower half
// and returns the new upper half, which holds v itself when key ends at
// the split and a leaf for the rest of key beside tail when it does not.
func fork[V any](tail *node[V], key string, at int, v V) *node[V] {
	mid := &node[V]{split: uint32(at)}
	label := tail.text[:at]
	tail.text, tail.split = tail.text[at:], tail.split-uint32(at)
	if at == len(key) {
		mid.hasVal, mid.val = true, v
		mid.text = label + tail.text[:1]
		mid.children = []*node[V]{tail}
		return mid
	}
	lf := leaf(key[at:], v)
	if lf.text[0] < tail.text[0] {
		mid.text = label + lf.text[:1] + tail.text[:1]
		mid.children = []*node[V]{lf, tail}
	} else {
		mid.text = label + tail.text[:1] + lf.text[:1]
		mid.children = []*node[V]{tail, lf}
	}
	return mid
}

// addChild adds c to n in sorted position, editing n in place but never
// the slice or string n had: a copy of a published node can take it.
func (n *node[V]) addChild(c *node[V]) {
	b := c.text[0]
	keys := n.text[n.split:]
	pos := 0
	for pos < len(keys) && keys[pos] < b {
		pos++
	}
	children := make([]*node[V], 0, len(n.children)+1)
	children = append(children, n.children[:pos]...)
	children = append(children, c)
	n.children = append(children, n.children[pos:]...)
	at := int(n.split) + pos
	n.text = n.text[:at] + c.text[:1] + n.text[at:]
}

// Load replaces the tree's contents with keys, key i bound to val(i):
// all of them or, if a key repeats, none. The new table is built out of
// sight — its nodes edited in place, no path copied per key — and
// published with one root swap, so a concurrent reader sees the whole
// old table or the whole new one.
func (t *Tree[V]) Load(keys []string, val func(i int) V) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	root := &node[V]{}
	bytes := 0
	for i, key := range keys {
		if load(root, key, val(i)) {
			return fmt.Errorf("nametree: load: key %q repeats", key)
		}
		bytes += len(key)
	}
	t.root.Store(root)
	t.count.Store(int64(len(keys)))
	t.keyBytes.Store(int64(bytes))
	return nil
}

// load stores v under key in the unpublished tree below n, in place. It
// reports whether key was already there.
func load[V any](n *node[V], key string, v V) (dup bool) {
	for len(key) > 0 {
		i := n.childIndex(key[0])
		if i < 0 {
			n.addChild(leaf(key, v))
			return false
		}
		c := n.children[i]
		common := commonPrefix(key, c.label())
		if common < len(c.label()) {
			n.children[i] = fork(c, key, common, v)
			return false
		}
		key = key[common:]
		n = c
	}
	dup = n.hasVal
	n.hasVal, n.val = true, v
	return dup
}

// Delete removes key, reporting whether it was present.
func (t *Tree[V]) Delete(key string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	root, removed := remove(t.root.Load(), key)
	if !removed {
		return false
	}
	t.root.Store(root)
	t.count.Add(-1)
	t.keyBytes.Add(int64(-len(key)))
	return true
}

// remove returns a copy of n with key (relative to n) removed,
// re-compressing pass-through nodes so the tree stays canonical.
func remove[V any](n *node[V], key string) (*node[V], bool) {
	if len(key) == 0 {
		if !n.hasVal {
			return n, false
		}
		cp := *n
		cp.hasVal = false
		var zero V
		cp.val = zero
		return &cp, true
	}
	i := n.childIndex(key[0])
	if i < 0 {
		return n, false
	}
	c := n.children[i]
	if !strings.HasPrefix(key, c.label()) {
		return n, false
	}
	nc, removed := remove(c, key[c.split:])
	if !removed {
		return n, false
	}
	if !nc.hasVal && len(nc.children) == 0 {
		// Prune the emptied leaf.
		cp := *n
		cp.children = make([]*node[V], 0, len(n.children)-1)
		cp.children = append(cp.children, n.children[:i]...)
		cp.children = append(cp.children, n.children[i+1:]...)
		at := int(n.split) + i
		cp.text = n.text[:at] + n.text[at+1:]
		return &cp, true
	}
	if !nc.hasVal && len(nc.children) == 1 {
		// Re-compress: a valueless single-child node merges with it.
		merged := *nc.children[0]
		merged.text = nc.label() + merged.text
		merged.split += nc.split
		nc = &merged
	}
	return n.withChild(i, nc), true
}

// commonPrefix returns the length of the longest common prefix of a
// and b.
func commonPrefix(a, b string) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// Walk visits every key/value pair of one consistent snapshot in
// lexicographic key order, stopping early if fn returns false. No lock
// is held: concurrent mutations do not perturb the walk.
func (t *Tree[V]) Walk(fn func(key string, v V) bool) {
	walk(t.root.Load(), make([]byte, 0, 64), fn)
}

func walk[V any](n *node[V], key []byte, fn func(key string, v V) bool) bool {
	key = append(key, n.label()...)
	if n.hasVal && !fn(string(key), n.val) {
		return false
	}
	for _, c := range n.children {
		if !walk(c, key, fn) {
			return false
		}
	}
	return true
}
