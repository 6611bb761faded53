package nametree

import (
	"bytes"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/popgen"
	"repro/internal/raceflag"
)

// checkTree asserts what every mutation must leave true of the whole
// published tree: a record's child bytes are its children's first label
// bytes, strictly sorted; below the root no label is empty and no
// valueless record has fewer than two children (the tree is canonical,
// so its shape depends on the key set alone); Len and KeyBytes count
// what a walk would find; and the arena's live bytes are exactly the
// bytes of the records the root reaches, which is what compaction
// decides by.
func checkTree[V any](t testing.TB, tr *Tree[V]) {
	t.Helper()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	m := tr.img.Load()
	count, keyBytes, recBytes := 0, 0, 0
	var visit func(n node, depth int)
	visit = func(n node, depth int) {
		depth += len(n.label)
		recBytes += n.size
		if n.hasVal {
			count++
			keyBytes += depth
		}
		for i, b := range n.keys {
			c := decode(m.rec(n.child(i)))
			if len(c.label) == 0 || c.label[0] != b {
				t.Fatalf("node %q: child %d has label %q under byte %q", n.label, i, c.label, b)
			}
			if i > 0 && n.keys[i-1] >= b {
				t.Fatalf("node %q: child bytes %q not strictly sorted", n.label, n.keys)
			}
			if !c.hasVal && len(c.keys) < 2 {
				t.Fatalf("node %q: valueless with %d children", c.label, len(c.keys))
			}
			visit(c, depth)
		}
	}
	root := decode(m.rec(m.root))
	if len(root.label) != 0 {
		t.Fatalf("root has label %q", root.label)
	}
	visit(root, 0)
	if tr.Len() != count || tr.KeyBytes() != keyBytes {
		t.Fatalf("Len=%d KeyBytes=%d, tree holds %d keys of %d bytes", tr.Len(), tr.KeyBytes(), count, keyBytes)
	}
	if m.root != tr.a.root || recBytes != tr.a.live {
		t.Fatalf("published root %d, arena's %d; records reached hold %d bytes, arena counts %d live", m.root, tr.a.root, recBytes, tr.a.live)
	}
}

// walkKeys returns the tree's keys in Walk order.
func walkKeys[V any](tr *Tree[V]) (keys []string) {
	tr.Walk(func(k string, _ V) bool { keys = append(keys, k); return true })
	return keys
}

// model is the naive reference: a plain map plus a sort on demand.
type model map[string]int

func (m model) sortedKeys() []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// genKey builds a hierarchical dot-separated key from a small vocabulary
// so generated keys share prefixes — the shape the radix tree exists to
// compress.
func genKey(r *rand.Rand) string {
	vocab := []string{"storage", "home", "pub", "mail", "shared", "archive", "s", "st", "stor", ""}
	depth := 1 + r.Intn(4)
	parts := make([]string, depth)
	for i := range parts {
		parts[i] = vocab[r.Intn(len(vocab))]
	}
	return strings.Join(parts, ".")
}

// TestPropertyVsModel drives the same randomized insert/delete/lookup
// stream through the tree and the naive sorted-map reference and
// requires exact agreement: membership, values, walk order, and the Len/KeyBytes counters.
func TestPropertyVsModel(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	tr := New[int]()
	ref := model{}
	for step := 0; step < 20000; step++ {
		key := genKey(r)
		switch r.Intn(10) {
		case 0, 1, 2, 3, 4: // insert
			replaced := tr.Insert(key, step)
			_, had := ref[key]
			if replaced != had {
				t.Fatalf("step %d: Insert(%q) replaced=%v, model had=%v", step, key, replaced, had)
			}
			ref[key] = step
			checkTree(t, tr)
		case 5, 6: // delete
			removed := tr.Delete(key)
			_, had := ref[key]
			if removed != had {
				t.Fatalf("step %d: Delete(%q) removed=%v, model had=%v", step, key, removed, had)
			}
			delete(ref, key)
			checkTree(t, tr)
		default: // lookup on a fresh query
			q := genKey(r)
			got, ok := tr.Get(q)
			want, wantOK := ref[q]
			if ok != wantOK || (ok && got != want) {
				t.Fatalf("step %d: Get(%q) = (%d,%v), model (%d,%v)", step, q, got, ok, want, wantOK)
			}
		}
		if tr.Len() != len(ref) {
			t.Fatalf("step %d: Len=%d, model %d", step, tr.Len(), len(ref))
		}
	}
	// Final structural agreement: walk order and key-byte accounting.
	var walked []string
	bytes := 0
	tr.Walk(func(k string, v int) bool {
		if want := ref[k]; v != want {
			t.Fatalf("Walk(%q) = %d, model %d", k, v, want)
		}
		walked = append(walked, k)
		bytes += len(k)
		return true
	})
	wantKeys := ref.sortedKeys()
	if len(walked) != len(wantKeys) {
		t.Fatalf("Walk visited %d keys, model has %d", len(walked), len(wantKeys))
	}
	for i, k := range walked {
		if k != wantKeys[i] {
			t.Fatalf("Walk order[%d] = %q, want %q", i, k, wantKeys[i])
		}
	}
	if tr.KeyBytes() != bytes {
		t.Fatalf("KeyBytes = %d, walked total %d", tr.KeyBytes(), bytes)
	}
}

// TestGetStepsAgreesWithGet pins that the instrumented descent is the
// same lookup, and that steps on hits are bounded by the key's node
// depth (≤ len(key)+1).
func TestGetStepsAgreesWithGet(t *testing.T) {
	tr := New[int]()
	keys := []string{"", "a", "ab", "abc", "abd", "b.c.d", "b.c", "zig"}
	for i, k := range keys {
		tr.Insert(k, i)
	}
	for _, q := range append(keys, "abcd", "zag", "b.", "c") {
		v1, ok1 := tr.Get(q)
		v2, ok2, steps := tr.GetSteps(q)
		if v1 != v2 || ok1 != ok2 {
			t.Fatalf("GetSteps(%q) = (%d,%v), Get = (%d,%v)", q, v2, ok2, v1, ok1)
		}
		if steps < 1 || steps > len(q)+1 {
			t.Fatalf("GetSteps(%q): implausible step count %d", q, steps)
		}
	}
}

// TestWalkEarlyStop pins that a false return halts the walk.
func TestWalkEarlyStop(t *testing.T) {
	tr := New[int]()
	for i, k := range []string{"a", "b", "c", "d"} {
		tr.Insert(k, i)
	}
	var seen []string
	tr.Walk(func(k string, _ int) bool {
		seen = append(seen, k)
		return len(seen) < 2
	})
	if len(seen) != 2 || seen[0] != "a" || seen[1] != "b" {
		t.Fatalf("early-stopped walk saw %v", seen)
	}
}

// TestConcurrentReaders hammers lock-free reads and walks while a writer
// churns the tree with inserts, deletes and whole-table loads, and
// requires that the writer drove several compactions and value
// renumberings while the readers ran. Each value carries its own
// complement, so a read of a record or value a writer was still filling
// shows as a torn value; under -race this is the publication safety
// test. The final tree must equal the writer's model.
func TestConcurrentReaders(t *testing.T) {
	type val struct{ n, check int }
	whole := func(n int) val { return val{n, ^n} }
	torn := func(v val) bool { return v.check != ^v.n || v.n < 0 || v.n >= 1<<20 }
	tr := New[val]()
	ref := model{}
	keys := make([]string, 256)
	for i := range keys {
		keys[i] = genKey(rand.New(rand.NewSource(int64(i))))
		tr.Insert(keys[i], whole(i))
		ref[keys[i]] = i
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if i%64 == 63 {
					last := ""
					tr.Walk(func(k string, v val) bool {
						if k < last || torn(v) {
							t.Errorf("Walk observed %q after %q, value %+v", k, last, v)
						}
						last = k
						return true
					})
					continue
				}
				q := keys[r.Intn(len(keys))]
				if v, ok := tr.Get(q); ok && torn(v) {
					t.Errorf("Get(%q) observed torn value %+v", q, v)
					return
				}
			}
		}(int64(g))
	}
	for i := 0; i < 5000; i++ {
		k := keys[i%len(keys)]
		switch {
		case i%1000 == 999:
			// A whole-table replacement is published like any other write.
			all := ref.sortedKeys()
			if err := tr.Load(all, whole); err != nil {
				t.Fatal(err)
			}
			for j, k := range all {
				ref[k] = j
			}
		case i%3 == 0:
			tr.Delete(k)
			delete(ref, k)
		default:
			tr.Insert(k, whole(i))
			ref[k] = i
		}
	}
	tr.mu.Lock()
	compactions, renumbers := tr.a.compactions, tr.a.renumbers
	tr.mu.Unlock()
	close(stop)
	wg.Wait()
	t.Logf("%d compactions, %d of them renumbering values, under 4 readers", compactions, renumbers)
	if compactions < 5 || renumbers < 2 {
		t.Fatalf("%d compactions and %d renumberings while readers ran, want at least 5 and 2", compactions, renumbers)
	}
	checkTree(t, tr)
	got := model{}
	tr.Walk(func(k string, v val) bool { got[k] = v.n; return true })
	if !maps.Equal(got, ref) {
		t.Fatalf("tree holds %d keys, model %d, or a value differs", len(got), len(ref))
	}
}

// TestLoadMatchesInsert: Load installs exactly the tree the same keys
// build one Insert at a time — same Walk, same descent length per key —
// whatever was there before, and installs nothing when a key repeats.
func TestLoadMatchesInsert(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	names := popgen.NewPopulation(3000, 0.5, 1).Names
	seen := map[string]bool{}
	var keys []string
	for _, k := range names {
		seen[k] = true
		keys = append(keys, k)
	}
	for i := 0; i < 3000; i++ {
		if k := genKey(r); !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	r.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })

	one := New[int]()
	for i, k := range keys {
		one.Insert(k, i)
	}
	bulk := New[int]()
	bulk.Insert("gone.after.load", -1)
	if err := bulk.Load(keys, func(i int) int { return i }); err != nil {
		t.Fatal(err)
	}
	checkTree(t, one)
	checkTree(t, bulk)
	if _, ok := bulk.Get("gone.after.load"); ok {
		t.Fatal("Load kept a key of the table it replaced")
	}
	w1, w2 := walkKeys(one), walkKeys(bulk)
	if len(w1) != len(keys) || len(w2) != len(keys) {
		t.Fatalf("walked %d and %d keys, want %d", len(w1), len(w2), len(keys))
	}
	for i := range w1 {
		if w1[i] != w2[i] {
			t.Fatalf("Walk[%d]: Insert built %q, Load %q", i, w1[i], w2[i])
		}
	}
	for i, k := range keys {
		v1, _, s1 := one.GetSteps(k)
		v2, ok, s2 := bulk.GetSteps(k)
		if !ok || v1 != i || v2 != i || s1 != s2 {
			t.Fatalf("GetSteps(%q): Insert (%d, %d steps), Load (%d, %v, %d steps)", k, v1, s1, v2, ok, s2)
		}
	}

	if err := bulk.Load(append(keys[:10:10], keys[3]), func(i int) int { return -i }); err == nil {
		t.Fatal("Load accepted a repeated key")
	}
	if v, ok := bulk.Get(keys[3]); !ok || v != 3 || bulk.Len() != len(keys) {
		t.Fatalf("failed Load changed the table: Get = (%d, %v), Len = %d", v, ok, bulk.Len())
	}
	// Loaded nodes are ordinary nodes: single-key writes go on from them.
	bulk.Delete(keys[0])
	bulk.Insert("after.load", 1)
	checkTree(t, bulk)
}

// rangeKeys returns n keys that all start with "pre", shuffled: when
// withPrefix, "pre" itself is one of them. The byte after "pre" is one
// of five, 0x00 and 0xff among them, so the range has buckets of several
// keys and a key that sorts right after the one that is the prefix.
func rangeKeys(n int, withPrefix bool) []string {
	var keys []string
	if withPrefix {
		keys = append(keys, "pre")
	}
	for i := 0; len(keys) < n; i++ {
		keys = append(keys, "pre"+string("\x00am\xffb"[i%5])+strconv.Itoa(i))
	}
	r := rand.New(rand.NewSource(int64(n)))
	r.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	return keys
}

// TestLoadSortsShortAndLongRanges covers both ways Load's bucket orders
// a range: by insertion up to shortRange keys, by counting past it. At
// shortRange-1, shortRange and shortRange+1 keys under one common
// prefix, with and without a key that is the prefix, Load builds the
// tree one-at-a-time Insert builds (same Walk, same GetSteps), and
// insertion leaves every range in the counting pass's order. A repeat of
// the prefix key is refused from a short range and a long one with the
// same error, and leaves the table as it was.
func TestLoadSortsShortAndLongRanges(t *testing.T) {
	for _, n := range []int{shortRange - 1, shortRange, shortRange + 1} {
		for _, withPrefix := range []bool{false, true} {
			keys := rangeKeys(n, withPrefix)
			one := New[int]()
			for i, k := range keys {
				one.Insert(k, i)
			}
			bulk := New[int]()
			if err := bulk.Load(keys, func(i int) int { return i }); err != nil {
				t.Fatal(err)
			}
			checkTree(t, bulk)
			if w1, w2 := walkKeys(one), walkKeys(bulk); !slices.Equal(w1, w2) {
				t.Fatalf("%d keys, prefix %v: Insert walks %q, Load %q", n, withPrefix, w1, w2)
			}
			for i, k := range keys {
				_, _, s1 := one.GetSteps(k)
				v, ok, s2 := bulk.GetSteps(k)
				if !ok || v != i || s1 != s2 {
					t.Fatalf("GetSteps(%q): %d steps after Insert, (%d, %v, %d) after Load", k, s1, v, ok, s2)
				}
			}

			if n > shortRange {
				continue
			}
			l := &loader[int]{keys: keys, next: make([]byte, n), tmp: make([]int32, n)}
			sorted, counted := make([]int32, n), make([]int32, n)
			ended := 0
			for i, k := range keys {
				sorted[i], counted[i] = int32(i), int32(i)
				if k == "pre" {
					counted[i] = ^counted[i]
					ended++
				} else {
					l.next[i] = k[3]
				}
			}
			l.count(counted, l.next, ended)
			if err := l.bucket(sorted, "pre"); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(sorted, counted) {
				t.Fatalf("%d keys, prefix %v: insertion orders %v, counting %v", n, withPrefix, sorted, counted)
			}
		}
	}

	var errs []string
	for _, n := range []int{shortRange - 1, shortRange + 1} {
		tr := New[int]()
		tr.Insert("kept", 1)
		keys := append(rangeKeys(n, true), "pre")
		err := tr.Load(keys, func(i int) int { return i })
		if err == nil {
			t.Fatalf("Load of %d keys accepted \"pre\" twice", len(keys))
		}
		errs = append(errs, err.Error())
		checkTree(t, tr)
		if w := walkKeys(tr); !slices.Equal(w, []string{"kept"}) {
			t.Fatalf("failed Load of %d keys left %q", len(keys), w)
		}
	}
	if errs[0] != errs[1] || errs[0] != `nametree: load: key "pre" repeats` {
		t.Fatalf("short and long ranges refuse the repeat with %q and %q", errs[0], errs[1])
	}
}

// TestFiveNameTreeFootprint bounds the live heap of a table of a
// handful of names — the paper rig's prefix tables — at 800 bytes (720
// measured): the tree, its image, and record and value chunks that start
// small and double. An arena that started at its full 64 KiB chunks
// would hold over 128 KiB per table.
func TestFiveNameTreeFootprint(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector's shadow allocations are not the tree's")
	}
	const trees, maxBytes = 100, 800
	heap := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	kept := make([]*Tree[[4]uint32], trees)
	before := heap()
	for i := range kept {
		tr := New[[4]uint32]()
		for j, name := range []string{"storage", "home", "bin", "mail", "sys"} {
			tr.Insert(name, [4]uint32{uint32(j)})
		}
		kept[i] = tr
	}
	per := float64(heap()-before) / trees
	t.Logf("a five-name tree holds %.0f bytes", per)
	if per > maxBytes {
		t.Fatalf("a five-name tree holds %.0f bytes, bound %d", per, maxBytes)
	}
	runtime.KeepAlive(kept)
}

// TestLongKeyAndWideNode drives the two records the old node layout
// never had to encode: a 100,000-byte label, longer than a chunk and
// than a one-byte length field, and a node with all 256 children, more
// than a one-byte count — through Insert, Get, Walk, Delete and Load.
func TestLongKeyAndWideNode(t *testing.T) {
	long := strings.Repeat("x", 100_000)
	keys := []string{long, long[:50_000] + "y", long + "z", "w"}
	for b := 0; b < 256; b++ {
		keys = append(keys, "w"+string([]byte{byte(b)}))
	}
	one := New[int]()
	for i, k := range keys {
		one.Insert(k, i)
	}
	bulk := New[int]()
	if err := bulk.Load(keys, func(i int) int { return i }); err != nil {
		t.Fatal(err)
	}
	sorted := slices.Clone(keys)
	slices.Sort(sorted)
	for _, tr := range []*Tree[int]{one, bulk} {
		checkTree(t, tr)
		for i, k := range keys {
			if v, ok := tr.Get(k); !ok || v != i {
				t.Fatalf("Get(key %d, %d bytes) = (%d, %v)", i, len(k), v, ok)
			}
		}
		for _, q := range []string{long[:99_999], long + "x", long[:50_000], "wx\x00"} {
			if _, ok := tr.Get(q); ok {
				t.Fatalf("Get of a %d-byte key never inserted hit", len(q))
			}
		}
		if !slices.Equal(walkKeys(tr), sorted) {
			t.Fatal("Walk is not the sorted key set")
		}
		m := tr.img.Load()
		root := decode(m.rec(m.root))
		w := decode(m.rec(root.child(bytes.IndexByte(root.keys, 'w'))))
		if len(w.keys) != 256 || !w.hasVal {
			t.Fatalf("node \"w\" has %d children, value %v; want 256 and a value", len(w.keys), w.hasVal)
		}
	}
	r := rand.New(rand.NewSource(5))
	r.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	for i, k := range keys {
		if !one.Delete(k) {
			t.Fatalf("Delete of a %d-byte key missed", len(k))
		}
		if i%16 == 0 || len(k) > 2 {
			checkTree(t, one)
		}
	}
	if one.Len() != 0 || one.KeyBytes() != 0 {
		t.Fatalf("drained tree: Len=%d KeyBytes=%d", one.Len(), one.KeyBytes())
	}
}

// firstMatch is the inverse query a caller answers off the tree (the
// prefix server's handleInverse): an ordered Walk that stops at the first
// name whose value is k. It reports that name, whether there was one, and
// the names the walk visited, in order.
func firstMatch(tr *Tree[int], k int) (name string, ok bool, visited []string) {
	tr.Walk(func(n string, v int) bool {
		visited = append(visited, n)
		if v == k {
			name, ok = n, true
		}
		return !ok
	})
	return name, ok, visited
}

// TestReverseFirstMatchesSortedScan pins what the inverse query relies
// on: Walk visits the names in sorted order and stops at the first one
// the callback refuses. Against a model — the sorted name table and a
// linear scan over it — the walk for value k must visit exactly the
// names up to and including k's first match, or every name when k has
// none. The tree grows to 10⁴ names over the values -1…4 (5 is never
// bound, so its walk visits every name); every tenth step removes some
// value's smallest name, the one a walk for it stops at, and the step
// after adds to that value again. The table is drained smallest name
// first, and the empty table is queried before and after.
func TestReverseFirstMatchesSortedScan(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	tr := New[int]()
	const keys = 5
	var sorted []string // the model: every name in the tree, sorted
	vals := map[string]int{}
	first := func(k int) {
		t.Helper()
		want := slices.IndexFunc(sorted, func(n string) bool { return vals[n] == k })
		got, ok, visited := firstMatch(tr, k)
		if want < 0 {
			if ok || !slices.Equal(visited, sorted) {
				t.Fatalf("value %d bound to nothing: walk found (%q,%v) after visiting %d of %d names", k, got, ok, len(visited), len(sorted))
			}
			return
		}
		if !ok || got != sorted[want] || !slices.Equal(visited, sorted[:want+1]) {
			t.Fatalf("first match of %d = (%q,%v) after %d names, a sorted scan finds %q at %d", k, got, ok, len(visited), sorted[want], want)
		}
	}
	add := func(k int) {
		name := genKey(r) + "." + strconv.Itoa(r.Intn(1_000_000))
		i, dup := slices.BinarySearch(sorted, name)
		if dup {
			return
		}
		tr.Insert(name, k)
		sorted = slices.Insert(sorted, i, name)
		vals[name] = k
	}
	remove := func(name string) {
		i, _ := slices.BinarySearch(sorted, name)
		if !tr.Delete(name) || sorted[i] != name {
			t.Fatalf("Delete(%q) missed", name)
		}
		sorted = slices.Delete(sorted, i, i+1)
		delete(vals, name)
	}
	for k := -1; k <= keys; k++ {
		first(k) // the empty table
	}
	lastMinKey := -1
	for step := 0; len(sorted) < 10_000; step++ {
		switch {
		case step%10 == 9 && len(sorted) > 0:
			lastMinKey = r.Intn(keys)
			if min, ok, _ := firstMatch(tr, lastMinKey); ok {
				remove(min)
			}
		case step%10 == 0 && lastMinKey >= 0:
			add(lastMinKey)
		case r.Intn(4) == 0 && len(sorted) > 0:
			remove(sorted[r.Intn(len(sorted))])
		default:
			add(r.Intn(keys+1) - 1)
		}
		if r.Intn(3) == 0 {
			first(r.Intn(keys))
		}
	}
	for k := -1; k <= keys; k++ {
		first(k)
	}
	for len(sorted) > 0 {
		remove(sorted[0])
		if len(sorted)%1000 == 0 {
			first(r.Intn(keys))
		}
	}
	for k := -1; k <= keys; k++ {
		first(k)
	}
}

// TestEmptyKey pins that the empty string is a legal key (the root).
func TestEmptyKey(t *testing.T) {
	tr := New[string]()
	if _, ok := tr.Get(""); ok {
		t.Fatal("empty tree claims to hold the empty key")
	}
	tr.Insert("", "root")
	if v, ok := tr.Get(""); !ok || v != "root" {
		t.Fatalf("Get(\"\") = (%q,%v)", v, ok)
	}
	if !tr.Delete("") || tr.Len() != 0 {
		t.Fatal("Delete(\"\") failed")
	}
}

// TestReverseEdges walks one value through every state by hand: an
// empty table, the smallest name removed so the walk goes one name
// further, a larger name added behind a non-matching one, a smaller name
// added in front of everything, and drained to an empty table again.
func TestReverseEdges(t *testing.T) {
	tr := New[int]()
	first := func(want string, visited ...string) {
		t.Helper()
		got, ok, seen := firstMatch(tr, 7)
		if ok != (want != "") || got != want || !slices.Equal(seen, visited) {
			t.Fatalf("first match = (%q,%v) visiting %q, want %q visiting %q", got, ok, seen, want, visited)
		}
	}
	first("")
	tr.Insert("c", 7)
	tr.Insert("b", 1)
	tr.Insert("d", 7)
	first("c", "b", "c")
	tr.Delete("c") // the first match goes: the walk reaches the next one
	first("d", "b", "d")
	tr.Insert("e", 7)
	first("d", "b", "d")
	tr.Insert("a", 7) // smaller than every name: the walk stops at once
	first("a", "a")
	for _, n := range []string{"a", "d", "e"} {
		tr.Delete(n)
	}
	first("", "b")
	tr.Delete("b")
	first("")
}
