package fileserver

import (
	"container/list"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/raceflag"
)

// flatCache is the buffer cache as it was before it was indexed by file:
// one map of pages and a container/list LRU, with invalidate scanning the
// whole map. It is the reference the indexed cache must be
// indistinguishable from.
type flatCache struct {
	cap   int
	pages map[pageKey]*list.Element
	lru   *list.List // front = most recently used; values are pageKey
}

func newFlatCache(capPages int) *flatCache {
	return &flatCache{cap: capPages, pages: make(map[pageKey]*list.Element), lru: list.New()}
}

func (c *flatCache) contains(ino uint32, block int64) bool {
	el, ok := c.pages[pageKey{ino, block}]
	if ok {
		c.lru.MoveToFront(el)
	}
	return ok
}

func (c *flatCache) insert(ino uint32, block int64) {
	key := pageKey{ino, block}
	if el, ok := c.pages[key]; ok {
		c.lru.MoveToFront(el)
		return
	}
	c.pages[key] = c.lru.PushFront(key)
	for c.lru.Len() > c.cap {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.pages, oldest.Value.(pageKey))
	}
}

// access is blockCache.access made of the reference's two operations.
func (c *flatCache) access(ino uint32, block int64, add bool) bool {
	if c.contains(ino, block) {
		return true
	}
	if add {
		c.insert(ino, block)
	}
	return false
}

func (c *flatCache) invalidate(ino uint32) {
	for key, el := range c.pages {
		if key.ino == ino {
			c.lru.Remove(el)
			delete(c.pages, key)
		}
	}
}

// order is the eviction order, most recently used first.
func (c *flatCache) order() []pageKey {
	var keys []pageKey
	for el := c.lru.Front(); el != nil; el = el.Next() {
		keys = append(keys, el.Value.(pageKey))
	}
	return keys
}

// order walks the LRU ring, most recently used first, checking on the way
// that the ring, the index and the per-file chains describe the same
// pages.
func (c *blockCache) order(t *testing.T) []pageKey {
	t.Helper()
	var keys []pageKey
	for p := c.lru.older; p != &c.lru; p = p.older {
		if _, q := c.find(p.key); p.older.newer != p || q != p {
			t.Fatalf("LRU ring broken at %+v", p.key)
		}
		keys = append(keys, p.key)
	}
	chained := 0
	for ino, head := range c.files {
		if head == nil || head.prev != nil {
			t.Fatalf("file %d: chain head %+v", ino, head)
		}
		for p := head; p != nil; p = p.next {
			if _, q := c.find(p.key); p.key.ino != ino || q != p || (p.next != nil && p.next.prev != p) {
				t.Fatalf("file %d: chain broken at %+v", ino, p.key)
			}
			chained++
		}
	}
	indexed := 0
	for _, p := range c.index {
		if p != nil {
			indexed++
		}
	}
	if len(keys) != c.size || chained != c.size || indexed != c.size {
		t.Fatalf("ring has %d pages, chains %d, index %d, size %d", len(keys), chained, indexed, c.size)
	}
	return keys
}

// TestBlockCacheAgainstFlatReference: random traffic at a capacity small
// enough to evict constantly; the two caches must agree on every answer,
// on their size and on the whole eviction order after every operation.
func TestBlockCacheAgainstFlatReference(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c, ref := newBlockCache(8), newFlatCache(8)
		for step := 0; step < 4000; step++ {
			ino, block := uint32(rng.Intn(5)), int64(rng.Intn(6))
			var what string
			switch op := rng.Intn(40); {
			case op < 34:
				add := op < 20
				what = fmt.Sprintf("access(%d, %d, %v)", ino, block, add)
				if got, want := c.access(ino, block, add), ref.access(ino, block, add); got != want {
					t.Fatalf("seed %d step %d: %s = %v, reference %v", seed, step, what, got, want)
				}
			default:
				what = fmt.Sprintf("invalidate(%d)", ino)
				c.invalidate(ino)
				ref.invalidate(ino)
			}
			if got, want := c.order(t), ref.order(); !reflect.DeepEqual(got, want) || c.size != len(want) {
				t.Fatalf("seed %d step %d: after %s size %d, order\n got %v\nwant %v", seed, step, what, c.size, got, want)
			}
		}
	}
}

// TestInvalidateUncachedFileZeroAlloc: every create and every truncating
// open invalidates a file that, nearly always, has nothing buffered; that
// must cost one lookup — no scan of the other files' pages, no allocation
// — and a full cache must take a new page without allocating either.
func TestInvalidateUncachedFileZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("AllocsPerRun counts the race detector's own allocations")
	}
	c := newBlockCache(defaultCachePages)
	for i := 0; i < 2*defaultCachePages; i++ {
		c.access(uint32(i%40), int64(i), true)
	}
	before := c.order(t)
	if allocs := testing.AllocsPerRun(1000, func() { c.invalidate(99) }); allocs != 0 {
		t.Fatalf("invalidate of a file with no buffered pages: %v allocs", allocs)
	}
	if after := c.order(t); !reflect.DeepEqual(after, before) {
		t.Fatal("invalidate of a file with no buffered pages disturbed the cache")
	}
	block := int64(0)
	if allocs := testing.AllocsPerRun(1000, func() { block++; c.access(7, 1000+block, true) }); allocs != 0 {
		t.Fatalf("insert into a full cache: %v allocs", allocs)
	}
	if c.size != defaultCachePages {
		t.Fatalf("size = %d", c.size)
	}
}

// TestBlockCacheAccessZeroAlloc: on a full cache, a hit, a miss that
// buffers nothing and a miss that evicts for its page are each a probe
// of the fixed table and a few pointer writes, never an allocation; nor
// is the rewrite of a truncated file, whose pages the truncate freed.
func TestBlockCacheAccessZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("AllocsPerRun counts the race detector's own allocations")
	}
	c := newBlockCache(defaultCachePages)
	for i := 0; i < defaultCachePages; i++ {
		c.access(uint32(i%7), int64(i), true)
	}
	block := int64(0)
	for _, tc := range []struct {
		name string
		op   func()
	}{
		{"hit", func() { c.access(uint32(block%7), block, true); block = (block + 1) % defaultCachePages }},
		{"miss", func() { c.access(99, block, false); block++ }},
		{"evicting miss", func() { c.access(3, 1<<40+block, true); block++ }},
		// A truncated file's pages go to the free list and its rewrite
		// takes them back, though the cache is then under budget.
		{"truncate then rewrite", func() {
			c.invalidate(50)
			for b := int64(0); b < 4; b++ {
				c.access(50, b, true)
			}
		}},
	} {
		if allocs := testing.AllocsPerRun(1000, tc.op); allocs != 0 {
			t.Errorf("%s: %v allocs", tc.name, allocs)
		}
	}
	if c.order(t); c.size != defaultCachePages {
		t.Fatalf("size = %d", c.size)
	}
}
