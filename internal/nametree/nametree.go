// Package nametree is the population-scale name index (PROTOCOL.md
// §14): a compressed radix (patricia) tree over string keys, stored
// pointer-free in an append-only arena and published as immutable
// images behind an atomically swapped pointer.
//
// The paper's prefix table was 2.6 KB of MC68000 data (§6); the
// population-scale workloads (ROADMAP items 2–3) resolve against
// 10⁵–10⁶ names, where the flat map tables the servers grew up with
// become hot-path liabilities: snapshot rebuilds and full copies under
// the server mutex. The radix index replaces them with one structure
// serving every access pattern the name servers have:
//
//   - Get is the resolution fast path: lock-free (an atomic image load
//     and a descent that reads one record per level) and
//     zero-allocation, so a server team's workers and a client's
//     classifier probes never contend with writers or with each other.
//   - Walk iterates a consistent snapshot in lexicographic key order
//     with no lock held, which is what lets directory fabrication,
//     table snapshots and Bindings() run off the immutable tree instead
//     of copying the table under the server mutex. It stops where its
//     callback says, so a first-match query (the prefix server's
//     inverse lookup) reads only the names before its answer.
//   - Len and KeyBytes are atomic counters, so table-size probes
//     (prefix.TableBytes) cost two loads instead of an O(n) scan.
//
// Each node is one byte record in chunks of a byte arena, and its
// children are 4-byte refs into those chunks, so the table holds no
// pointer for the collector to mark: a million names are a few hundred
// byte chunks and their value chunks.
//
// Writers (Insert, Delete, Load) serialize on an internal mutex and
// publish by atomically swapping the image; readers therefore never
// observe a partially applied mutation, and a read overlapped by a write
// sees exactly the tree before or after it — the same semantics a mutex
// would give, without the reader ever blocking. Insert and Delete
// path-copy the affected spine into arena space past everything a
// published image reaches; Load writes a whole table into fresh chunks
// in one pass and publishes it once.
package nametree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
)

// The arena's shape. A record ref is a chunk number above refBits and a
// byte offset below. Record chunks start at minChunk bytes and double up
// to maxChunk; a record larger than that gets a chunk of its own, at
// offset 0. A value index is likewise a chunk number above valBits and a
// slot below; value chunks start at minVals values and double up to
// maxVals (64 KiB of the prefix table's 16-byte entries). Small first
// chunks keep a table of a handful of names a few hundred bytes.
//
// A writer compacts when the bytes of records no longer reachable from
// the root exceed compactRatio times those that are.
const (
	refBits      = 16
	maxChunk     = 1 << refBits
	minChunk     = 64
	valBits      = 12
	maxVals      = 1 << valBits
	minVals      = 8
	compactRatio = 2
)

// A record is one radix node, immutable once published:
//
//	uvarint   len(label)<<1 | hasVal
//	uvarint   k, the number of children
//	[4]byte   value index, only if hasVal
//	label     the compressed edge from the parent
//	[k]byte   each child's first label byte, strictly ascending
//	[4k]byte  each child's ref, little-endian
//
// so the label to match, the bytes to pick a child by and the ref to
// follow are one contiguous read. Sibling labels never share a first
// byte.

// image is one published tree: its record chunks, its value chunks and
// the root's ref. Nothing an image reaches is written after it is
// published, so a reader holding one needs no lock; writers append only
// past it, and chunks are never reallocated.
type image[V any] struct {
	recs [][]byte
	vals [][]V
	root uint32
}

func (m *image[V]) rec(ref uint32) []byte { return m.recs[ref>>refBits][ref&(maxChunk-1):] }

func (m *image[V]) val(i uint32) V { return m.vals[i>>valBits][i&(maxVals-1)] }

// Tree is a copy-on-write compressed radix tree from string keys to V.
// The zero value is not ready; use New.
type Tree[V any] struct {
	mu       sync.Mutex // serializes writers; readers never take it
	img      atomic.Pointer[image[V]]
	count    atomic.Int64
	keyBytes atomic.Int64
	a        arena[V] // guarded by mu
}

// New returns an empty tree.
func New[V any]() *Tree[V] {
	t := &Tree[V]{}
	t.a.root = t.a.put(node{})
	t.publish()
	return t
}

// Len returns the number of keys (an atomic load).
func (t *Tree[V]) Len() int { return int(t.count.Load()) }

// KeyBytes returns the summed length of every stored key (an atomic
// load) — the table-size counter servers report without scanning.
func (t *Tree[V]) KeyBytes() int { return int(t.keyBytes.Load()) }

// Get returns the value stored under key. It is the resolution hit
// path: lock-free and zero-allocation.
func (t *Tree[V]) Get(key string) (V, bool) {
	m := t.img.Load()
	if i, ok, _ := m.find(key); ok {
		return m.val(i), true
	}
	var zero V
	return zero, false
}

// GetSteps is Get instrumented with the number of nodes visited during
// the descent (the root counts as one). It is the deterministic
// virtual-cost probe the population-scale experiment reports against
// the flat-table baseline.
func (t *Tree[V]) GetSteps(key string) (v V, ok bool, steps int) {
	m := t.img.Load()
	i, ok, steps := m.find(key)
	if ok {
		v = m.val(i)
	}
	return v, ok, steps
}

// find descends to key's record and returns its value index, whether it
// holds a value, and how many records' labels matched on the way. It
// reads nothing outside the records it visits: the bytes after a record
// may be a writer's.
func (m *image[V]) find(key string) (vi uint32, ok bool, steps int) {
	ref := m.root
	for {
		r := m.rec(ref)
		h, k, p := header(r)
		v := p
		if h&1 != 0 {
			p += 4
		}
		l := h >> 1
		if len(key) < l || string(r[p:p+l]) != key[:l] {
			return 0, false, steps
		}
		steps++
		if len(key) == l {
			if h&1 == 0 {
				return 0, false, steps
			}
			return binary.LittleEndian.Uint32(r[v:]), true, steps
		}
		p += l
		i := bytes.IndexByte(r[p:p+k], key[l])
		if i < 0 {
			return 0, false, steps
		}
		key = key[l:]
		ref = binary.LittleEndian.Uint32(r[p+k+4*i:])
	}
}

// Insert stores v under key, replacing any existing value. It reports
// whether a value was replaced.
func (t *Tree[V]) Insert(key string, v V) (replaced bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	a := &t.a
	a.root, replaced = a.insert(a.node(a.root), key, v)
	t.publish()
	if !replaced {
		t.count.Add(1)
		t.keyBytes.Add(int64(len(key)))
	}
	return replaced
}

// Delete removes key, reporting whether it was present.
func (t *Tree[V]) Delete(key string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	a := &t.a
	root, _, removed := a.remove(a.node(a.root), key, true)
	if !removed {
		return false
	}
	a.root = root
	t.publish()
	t.count.Add(-1)
	t.keyBytes.Add(int64(-len(key)))
	return true
}

// Load replaces the tree's contents with keys, key i bound to val(i):
// all of them or, if a key repeats, none. It sorts the key indices once,
// a byte at a time, and writes the canonical tree in the same pass into
// fresh chunks — no path copied per key, no object per node — and
// publishes it with one swap, so a concurrent reader sees the whole old
// table or the whole new one.
func (t *Tree[V]) Load(keys []string, val func(i int) V) error {
	idx := make([]int32, len(keys))
	total := 0
	for i, k := range keys {
		idx[i] = int32(i)
		total += len(k)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	a := &t.a
	saved := *a
	a.recs, a.fill, a.live, a.dead = nil, 0, 0, 0
	a.vals, a.vfill, a.nvals = nil, 0, 0
	if len(keys) == 0 {
		a.root = a.put(node{})
	} else {
		l := &loader[V]{a: a, keys: keys, val: val, tmp: make([]int32, len(keys)), next: make([]byte, len(keys))}
		root, err := l.build(idx, 0, true)
		if err != nil {
			*a = saved
			return err
		}
		a.root = root
	}
	t.publish()
	t.count.Store(int64(len(keys)))
	t.keyBytes.Store(int64(total))
	return nil
}

// publish compacts the arena when dead records outweigh live ones by
// compactRatio, then swaps in an image of it. Caller holds mu.
func (t *Tree[V]) publish() {
	a := &t.a
	if a.dead > compactRatio*a.live {
		a.compact(int(t.count.Load()))
	}
	img := a.image
	t.img.Store(&img)
}

// Walk visits every key/value pair of one consistent snapshot in
// lexicographic key order, stopping early if fn returns false. No lock
// is held: concurrent mutations do not perturb the walk.
func (t *Tree[V]) Walk(fn func(key string, v V) bool) {
	m := t.img.Load()
	m.walk(m.root, make([]byte, 0, 64), fn)
}

func (m *image[V]) walk(ref uint32, key []byte, fn func(key string, v V) bool) bool {
	n := decode(m.rec(ref))
	key = append(key, n.label...)
	if n.hasVal && !fn(string(key), m.val(n.val)) {
		return false
	}
	for i := range n.keys {
		if !m.walk(n.child(i), key, fn) {
			return false
		}
	}
	return true
}

// node is a record decoded for a writer or a walk. Its slices alias the
// arena, or a writer's work buffers until put copies them into a new record;
// size is the length of the record it was decoded from.
type node struct {
	label, keys, refs []byte
	hasVal            bool
	val               uint32
	size              int
}

func decode(b []byte) node {
	h, k, p := header(b)
	n := node{hasVal: h&1 != 0}
	if n.hasVal {
		n.val = binary.LittleEndian.Uint32(b[p:])
		p += 4
	}
	l := p + h>>1
	n.label = b[p:l:l]
	n.keys = b[l : l+k : l+k]
	n.refs = b[l+k : l+5*k : l+5*k]
	n.size = l + 5*k
	return n
}

func (n node) child(i int) uint32 { return binary.LittleEndian.Uint32(n.refs[4*i:]) }

// header decodes a record's two uvarints — len(label)<<1 | hasVal and
// the child count — and returns them with the position after them.
func header(b []byte) (h, k, p int) {
	if b[0]|b[1] < 0x80 {
		return int(b[0]), int(b[1]), 2
	}
	x, n := binary.Uvarint(b)
	y, m := binary.Uvarint(b[n:])
	return int(x), int(y), n + m
}

func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// arena is the writers' side of a tree, guarded by Tree.mu: the image
// the next publication copies, how far its last chunks are filled, and
// the accounting that decides when to compact.
type arena[V any] struct {
	image[V]
	fill  int // bytes in use of the last record chunk
	vfill int // values in use of the last value chunk
	live  int // bytes of the records the root reaches
	dead  int // bytes of records it no longer reaches
	nvals int // values stored since the value chunks were last renumbered

	// compactions and renumbers count what compact has done, for tests.
	compactions, renumbers int

	// Work buffers for the record being built: a label, child bytes, child
	// refs. Load and compact use kb and rb as stacks.
	lab, kb, rb []byte
}

func (a *arena[V]) node(ref uint32) node { return decode(a.rec(ref)) }

// alloc reserves size bytes of record space past everything published
// and returns the ref and the bytes.
func (a *arena[V]) alloc(size int) (uint32, []byte) {
	last := len(a.recs) - 1
	if last < 0 || a.fill+size > len(a.recs[last]) {
		c := minChunk
		if last >= 0 {
			c = min(2*len(a.recs[last]), maxChunk)
		}
		if len(a.recs) == 1<<(32-refBits) {
			panic("nametree: record arena full")
		}
		a.recs = append(a.recs, make([]byte, max(c, size)))
		a.fill = 0
		last++
	}
	ref := uint32(last)<<refBits | uint32(a.fill)
	a.fill += size
	return ref, a.recs[last][a.fill-size : a.fill]
}

// put writes n as a new record and returns its ref.
func (a *arena[V]) put(n node) uint32 {
	h := uint64(len(n.label)) << 1
	size := len(n.label) + 5*len(n.keys)
	if n.hasVal {
		h |= 1
		size += 4
	}
	size += uvarintLen(h) + uvarintLen(uint64(len(n.keys)))
	ref, b := a.alloc(size)
	p := binary.PutUvarint(b, h)
	p += binary.PutUvarint(b[p:], uint64(len(n.keys)))
	if n.hasVal {
		binary.LittleEndian.PutUint32(b[p:], n.val)
		p += 4
	}
	p += copy(b[p:], n.label)
	p += copy(b[p:], n.keys)
	copy(b[p:], n.refs)
	a.live += size
	return ref
}

// drop accounts for n's record, which the next image no longer reaches.
func (a *arena[V]) drop(n node) {
	a.live -= n.size
	a.dead += n.size
}

// addVal stores v past every published value and returns its index.
func (a *arena[V]) addVal(v V) uint32 {
	last := len(a.vals) - 1
	if last < 0 || a.vfill == len(a.vals[last]) {
		c := minVals
		if last >= 0 {
			c = min(2*len(a.vals[last]), maxVals)
		}
		if len(a.vals) == 1<<(32-valBits) {
			panic("nametree: value arena full")
		}
		a.vals = append(a.vals, make([]V, c))
		a.vfill = 0
		last++
	}
	a.vals[last][a.vfill] = v
	a.vfill++
	a.nvals++
	return uint32(last)<<valBits | uint32(a.vfill-1)
}

// leaf writes a childless record holding v under label.
func (a *arena[V]) leaf(label string, v V) uint32 {
	a.lab = append(a.lab[:0], label...)
	return a.put(node{label: a.lab, hasVal: true, val: a.addVal(v)})
}

// withChild returns n with its i-th child's ref replaced by ref.
func (a *arena[V]) withChild(n node, i int, ref uint32) node {
	a.rb = append(a.rb[:0], n.refs...)
	binary.LittleEndian.PutUint32(a.rb[4*i:], ref)
	n.refs = a.rb
	return n
}

// addChild returns n with ref, whose label starts with b, added as a
// child in byte order.
func (a *arena[V]) addChild(n node, b byte, ref uint32) node {
	i, _ := slices.BinarySearch(n.keys, b)
	a.kb = slices.Insert(append(a.kb[:0], n.keys...), i, b)
	a.rb = slices.Insert(append(a.rb[:0], n.refs...), 4*i, 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(a.rb[4*i:], ref)
	n.keys, n.refs = a.kb, a.rb
	return n
}

// dropChild returns n without its i-th child.
func (a *arena[V]) dropChild(n node, i int) node {
	a.kb = append(append(a.kb[:0], n.keys[:i]...), n.keys[i+1:]...)
	a.rb = append(append(a.rb[:0], n.refs[:4*i]...), n.refs[4*i+4:]...)
	n.keys, n.refs = a.kb, a.rb
	return n
}

// insert writes a copy of n with v stored under key, which is relative
// to the end of n's label, and returns its ref and whether a value was
// replaced.
func (a *arena[V]) insert(n node, key string, v V) (uint32, bool) {
	a.drop(n)
	if len(key) == 0 {
		replaced := n.hasVal
		n.hasVal, n.val = true, a.addVal(v)
		return a.put(n), replaced
	}
	i := bytes.IndexByte(n.keys, key[0])
	if i < 0 {
		return a.put(a.addChild(n, key[0], a.leaf(key, v))), false
	}
	c := a.node(n.child(i))
	common := commonPrefix(key, c.label)
	var ref uint32
	replaced := false
	if common == len(c.label) {
		ref, replaced = a.insert(c, key[common:], v)
	} else {
		ref = a.fork(c, key, common, v)
	}
	return a.put(a.withChild(n, i, ref)), replaced
}

// fork splits c's edge where key leaves it, after at bytes, and stores v
// under key there. It returns the ref of the new upper half, which holds
// v itself when key ends at the split and a leaf for the rest of key
// beside c's lower half when it does not.
func (a *arena[V]) fork(c node, key string, at int, v V) uint32 {
	a.drop(c)
	mid := node{label: c.label[:at]}
	c.label = c.label[at:]
	tail := a.put(c)
	a.kb = append(a.kb[:0], c.label[0])
	a.rb = binary.LittleEndian.AppendUint32(a.rb[:0], tail)
	mid.keys, mid.refs = a.kb, a.rb
	if at == len(key) {
		mid.hasVal, mid.val = true, a.addVal(v)
	} else {
		mid = a.addChild(mid, key[at], a.leaf(key[at:], v))
	}
	return a.put(mid)
}

// remove writes a copy of n without key, which is relative to the end of
// n's label, and returns its ref, or gone when nothing of n is left.
// removed is false, and nothing is written, when key is not there.
func (a *arena[V]) remove(n node, key string, root bool) (ref uint32, gone, removed bool) {
	if len(key) == 0 {
		if !n.hasVal {
			return 0, false, false
		}
		n.hasVal = false
	} else {
		i := bytes.IndexByte(n.keys, key[0])
		if i < 0 {
			return 0, false, false
		}
		c := a.node(n.child(i))
		if len(key) < len(c.label) || key[:len(c.label)] != string(c.label) {
			return 0, false, false
		}
		ref, gone, removed := a.remove(c, key[len(c.label):], false)
		if !removed {
			return 0, false, false
		}
		if gone {
			n = a.dropChild(n, i)
		} else {
			n = a.withChild(n, i, ref)
		}
	}
	a.drop(n)
	ref, gone = a.settle(n, root)
	return ref, gone, true
}

// settle writes n, which a removal changed, in canonical form: below the
// root, a valueless record with no child is gone, and one with a single
// child merges into it.
func (a *arena[V]) settle(n node, root bool) (uint32, bool) {
	switch {
	case root || n.hasVal || len(n.keys) > 1:
		return a.put(n), false
	case len(n.keys) == 0:
		return 0, true
	}
	c := a.node(n.child(0))
	a.drop(c)
	a.lab = append(append(a.lab[:0], n.label...), c.label...)
	c.label = a.lab
	return a.put(c), false
}

// shortRange is the most keys bucket sorts by insertion. Below it,
// moving a few keys costs less than clearing and summing 257 counters,
// which every branching record of a population's tree would otherwise
// pay for a handful of children.
const shortRange = 32

// loader is one Load's state: the keys, their values, and the buffers
// its byte-at-a-time sort shares across the recursion.
type loader[V any] struct {
	a    *arena[V]
	keys []string
	val  func(int) V
	tmp  []int32    // the bucketed copy of a long range
	next []byte     // each key's byte after the range's common prefix
	cnt  [257]int32 // bucket counts: keys that end there, then each byte
}

// build writes the canonical subtree of the keys keys[idx[…]], which
// share their first from bytes, and returns its ref. The range's common
// prefix is the record's label; build moves the key that ends there, its
// value, to the front and buckets the rest by their next byte, in byte
// order, so each bucket is a child. Children are written before their
// parent, their first bytes and refs waiting on the kb and rb stacks;
// values are stored in key order.
func (l *loader[V]) build(idx []int32, from int, root bool) (uint32, error) {
	a, keys := l.a, l.keys
	first := keys[idx[0]]
	end := from
	if !root {
		end = len(first)
		for _, j := range idx[1:] {
			end = from + commonPrefix(first[from:end], keys[j][from:])
		}
	}
	if len(idx) > 1 {
		if err := l.bucket(idx, first[:end]); err != nil {
			return 0, err
		}
	}
	var n node
	rest := idx
	if len(keys[idx[0]]) == end {
		n.hasVal, n.val = true, a.addVal(l.val(int(idx[0])))
		rest = idx[1:]
	}
	kb, rb := len(a.kb), len(a.rb)
	for len(rest) > 0 {
		// The child's keys are the run that shares the first one's byte.
		b := keys[rest[0]][end]
		lo, hi := 1, len(rest)
		for lo < hi {
			if m := int(uint(lo+hi) >> 1); keys[rest[m]][end] == b {
				lo = m + 1
			} else {
				hi = m
			}
		}
		ref, err := l.build(rest[:lo], end, false)
		if err != nil {
			return 0, err
		}
		a.kb = append(a.kb, b)
		a.rb = binary.LittleEndian.AppendUint32(a.rb, ref)
		rest = rest[lo:]
	}
	a.lab = append(a.lab[:0], first[from:end]...)
	n.label, n.keys, n.refs = a.lab, a.kb[kb:], a.rb[rb:]
	ref := a.put(n)
	a.kb, a.rb = a.kb[:kb], a.rb[:rb]
	return ref, nil
}

// bucket reorders idx, whose keys all start with prefix, by their byte
// after it, stably, the key that is prefix itself first: a short range
// by insertion, a long one with one counting pass. Two keys that are
// prefix itself are a repeated key.
func (l *loader[V]) bucket(idx []int32, prefix string) error {
	end := len(prefix)
	next := l.next[:len(idx)]
	ended := 0
	for i, j := range idx {
		if k := l.keys[j]; len(k) > end {
			next[i] = k[end]
		} else {
			idx[i] = ^j // marks the key that is prefix
			ended++
		}
	}
	if ended > 1 {
		return fmt.Errorf("nametree: load: key %q repeats", prefix)
	}
	if len(idx) > shortRange {
		l.count(idx, next, ended)
		return nil
	}
	for i := 1; i < len(idx); i++ {
		j, b := idx[i], next[i]
		p := i
		for ; p > 0 && (j < 0 || idx[p-1] >= 0 && next[p-1] > b); p-- {
			idx[p], next[p] = idx[p-1], next[p-1]
		}
		idx[p], next[p] = j, b
	}
	if idx[0] < 0 {
		idx[0] = ^idx[0]
	}
	return nil
}

// count is bucket's counting pass over a long range: ended keys (at
// most one) that are the prefix, marked, then a bucket per next byte.
func (l *loader[V]) count(idx []int32, next []byte, ended int) {
	l.cnt = [257]int32{}
	l.cnt[0] = int32(ended)
	for i, j := range idx {
		if j >= 0 {
			l.cnt[int(next[i])+1]++
		}
	}
	sum := int32(0)
	for c, n := range l.cnt {
		l.cnt[c] = sum
		sum += n
	}
	tmp := l.tmp[:len(idx)]
	for i, j := range idx {
		c := 0
		if j >= 0 {
			c = int(next[i]) + 1
		} else {
			j = ^j
		}
		tmp[l.cnt[c]] = j
		l.cnt[c]++
	}
	copy(idx, tmp)
}

// compact copies the records the root reaches into fresh chunks — and
// the values too, renumbered, when most of those stored are dead — so
// the next image drops what path copies left behind. Published images
// keep the chunks they have. keys is the number of live values.
func (a *arena[V]) compact(keys int) {
	old := a.image
	a.recs, a.fill, a.live, a.dead = nil, 0, 0, 0
	renumber := a.nvals > 2*keys
	if renumber {
		a.vals, a.vfill, a.nvals = nil, 0, 0
		a.renumbers++
	}
	a.rb = a.rb[:0]
	a.root = a.copyTree(&old, old.root, renumber)
	a.compactions++
}

// copyTree writes the subtree at ref in from into a's fresh chunks,
// children first, and returns its new ref.
func (a *arena[V]) copyTree(from *image[V], ref uint32, renumber bool) uint32 {
	n := decode(from.rec(ref))
	if renumber && n.hasVal {
		n.val = a.addVal(from.val(n.val))
	}
	rb := len(a.rb)
	for i := range n.keys {
		c := a.copyTree(from, n.child(i), renumber)
		a.rb = binary.LittleEndian.AppendUint32(a.rb, c)
	}
	n.refs = a.rb[rb:]
	ref = a.put(n)
	a.rb = a.rb[:rb]
	return ref
}

// commonPrefix returns the length of the longest common prefix of a
// and b.
func commonPrefix[A, B string | []byte](a A, b B) int {
	n := min(len(a), len(b))
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}
