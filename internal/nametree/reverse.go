package nametree

// Reverse is the binding→names side of a Tree: for each value key K (a
// context pair, a server id, …) it keeps how many of the tree's names
// are bound to it and the lexicographically smallest of them — and
// nothing per name, because the tree it inverts already is the sorted
// name table. First answers the inverse-resolution question — "which
// name maps to this binding?" — with the exact sorted-order tie-break a
// linear first-match scan over that table gives.
//
// The caller keeps it in step with the tree: Add a name once when the
// tree binds it to k, Remove only a name that was added, and call First
// only when the tree holds exactly the names added and not yet removed.
// Add and Remove are two integer updates and at most one string compare.
// Removing the current smallest name leaves the smallest unknown; the
// next First finds it with an ordered Walk of the tree that stops at the
// first name bound to k. Reverse is not safe for concurrent use —
// callers guard it with the same mutex that serializes their tree
// writes.
type Reverse[K comparable, V any] struct {
	tree *Tree[V]
	key  func(V) (K, bool)
	m    map[K]revEntry
}

// revEntry is what Reverse keeps per value key. A key with no name left
// has no entry, so a later Add starts from a known smallest again.
type revEntry struct {
	n       uint32 // names bound to the key
	unknown bool   // the smallest was removed and not yet looked up again
	min     string // the smallest of them, unless unknown
}

// NewReverse returns an empty reverse index over t. key reports the
// value key a stored value is bound to; ok is false for a value that
// answers no inverse query.
func NewReverse[K comparable, V any](t *Tree[V], key func(V) (k K, ok bool)) *Reverse[K, V] {
	return &Reverse[K, V]{tree: t, key: key, m: make(map[K]revEntry)}
}

// Add records that name, not bound to k before, now is.
func (r *Reverse[K, V]) Add(k K, name string) {
	e := r.m[k]
	// A name added while the smallest is unknown is not thereby the
	// smallest of what is left: only First's walk ends that state.
	if e.n == 0 || !e.unknown && name < e.min {
		e.min = name
	}
	e.n++
	r.m[k] = e
}

// Remove records that name, added to k earlier, is no longer bound to it.
func (r *Reverse[K, V]) Remove(k K, name string) {
	e := r.m[k]
	if e.n <= 1 {
		delete(r.m, k)
		return
	}
	e.n--
	if !e.unknown && name == e.min {
		e.unknown, e.min = true, ""
	}
	r.m[k] = e
}

// First returns the lexicographically smallest name bound to k.
func (r *Reverse[K, V]) First(k K) (string, bool) {
	e, ok := r.m[k]
	if !ok {
		return "", false
	}
	if e.unknown {
		r.tree.Walk(func(name string, v V) bool {
			if vk, ok := r.key(v); ok && vk == k {
				e.unknown, e.min = false, name
			}
			return e.unknown
		})
		r.m[k] = e
	}
	return e.min, true
}
