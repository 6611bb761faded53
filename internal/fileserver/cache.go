package fileserver

import (
	"math/bits"
	"sync"
)

// blockCache is the file server's buffer cache: pages read from (or
// written through to) the disk stay in server memory, so repeated access
// costs no disk time — the paper's program-load measurement explicitly
// assumes "the program text is already in the file server's memory
// buffers" (§3.1). LRU with a fixed page budget.
//
// Pages are found through a fixed open-addressed table: linear probing
// from a key's multiplicative hash, at most half full because it has
// twice the budget's slots (rounded up to a power of two), and a removal
// shifts the entries behind it back so no probe meets a tombstone.
type blockCache struct {
	mu    sync.Mutex
	cap   int
	size  int              // pages buffered
	index []*page          // len is a power of two ≥ 2·cap; nil is empty
	shift uint8            // 64 − log2(len(index))
	files map[uint32]*page // each file's chain of buffered pages
	lru   page             // ring sentinel: lru.older is the most recently used page
	free  *page            // pages invalidate dropped, chained by next, for access to take back
}

type pageKey struct {
	ino   uint32
	block int64
}

// page is one buffered page. It sits on the cache-wide LRU ring and on
// the chain of its own file's pages, which is what lets invalidate visit
// one file's pages and nothing else.
type page struct {
	key          pageKey
	newer, older *page // LRU ring
	prev, next   *page // file chain, headed at blockCache.files[key.ino]
}

// defaultCachePages is the default buffer cache size, 256 × 512 B =
// 128 KB — of the order of the paper's file server buffer pools.
const defaultCachePages = 256

func newBlockCache(capPages int) *blockCache {
	if capPages <= 0 {
		capPages = defaultCachePages
	}
	slots := 2
	for slots < 2*capPages {
		slots *= 2
	}
	c := &blockCache{cap: capPages, index: make([]*page, slots), shift: uint8(64 - bits.TrailingZeros(uint(slots))), files: make(map[uint32]*page)}
	c.lru.newer, c.lru.older = &c.lru, &c.lru
	return c
}

// home is the slot where k's probe starts: the top bits of its one
// integer key times 2⁶⁴/φ (Fibonacci hashing).
func (c *blockCache) home(k pageKey) int {
	return int((uint64(k.ino)<<32 ^ uint64(k.block)) * 0x9E3779B97F4A7C15 >> c.shift)
}

// find returns the slot holding key's page, or the empty slot that ends
// its probe (with a nil page).
func (c *blockCache) find(k pageKey) (int, *page) {
	mask := len(c.index) - 1
	for i := c.home(k); ; i = (i + 1) & mask {
		if p := c.index[i]; p == nil || p.key == k {
			return i, p
		}
	}
}

// unindex empties p's slot, moving back each later entry of the probe
// run whose home does not lie between the hole and it.
func (c *blockCache) unindex(p *page) {
	mask := len(c.index) - 1
	hole, _ := c.find(p.key)
	for j := (hole + 1) & mask; c.index[j] != nil; j = (j + 1) & mask {
		if q := c.index[j]; (j-c.home(q.key))&mask >= (j-hole)&mask {
			c.index[hole], hole = q, j
		}
	}
	c.index[hole] = nil
	c.size--
}

// touch makes p the most recently used page, linking it into the LRU
// ring if it is new.
func (c *blockCache) touch(p *page) {
	if p.newer != nil {
		p.newer.older, p.older.newer = p.older, p.newer
	}
	p.newer, p.older = &c.lru, c.lru.older
	p.older.newer, c.lru.older = p, p
}

// drop unlinks p from the LRU ring, its file's chain and the index.
func (c *blockCache) drop(p *page) {
	p.newer.older, p.older.newer = p.older, p.newer
	if p.next != nil {
		p.next.prev = p.prev
	}
	switch {
	case p.prev != nil:
		p.prev.next = p.next
	case p.next != nil:
		c.files[p.key.ino] = p.next
	default:
		delete(c.files, p.key.ino)
	}
	c.unindex(p)
}

// access looks the page up once: a buffered page is made the most
// recently used and access reports a hit; an unbuffered one is recorded as
// buffered if add is set, evicting the least recently used page if the
// budget is exceeded.
func (c *blockCache) access(ino uint32, block int64, add bool) (hit bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := pageKey{ino, block}
	slot, p := c.find(key)
	if p != nil {
		c.touch(p)
		return true
	}
	if !add {
		return false
	}
	switch {
	case c.free != nil:
		// A page a truncate or remove dropped.
		p, c.free = c.free, c.free.next
		*p = page{key: key}
	case c.size < c.cap:
		p = &page{key: key}
	default:
		// A full cache recycles its victim's page for the newcomer; the
		// victim's removal may move entries, so the probe is redone.
		p = c.lru.newer
		c.drop(p)
		*p = page{key: key}
		slot, _ = c.find(key)
	}
	c.touch(p)
	if p.next = c.files[ino]; p.next != nil {
		p.next.prev = p
	}
	c.files[ino] = p
	c.index[slot] = p
	c.size++
	return false
}

// invalidate drops all buffered pages of one file (truncate/remove) onto
// the free list, where the next pages access adds come from: the pages
// never exceed the budget, so neither does the list.
func (c *blockCache) invalidate(ino uint32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for p := c.files[ino]; p != nil; p = c.files[ino] {
		c.drop(p)
		*p = page{next: c.free}
		c.free = p
	}
}
