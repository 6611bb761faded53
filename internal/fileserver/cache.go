package fileserver

import "sync"

// blockCache is the file server's buffer cache: pages read from (or
// written through to) the disk stay in server memory, so repeated access
// costs no disk time — the paper's program-load measurement explicitly
// assumes "the program text is already in the file server's memory
// buffers" (§3.1). LRU with a fixed page budget.
type blockCache struct {
	mu    sync.Mutex
	cap   int
	pages map[pageKey]*page
	files map[uint32]*page // each file's chain of buffered pages
	lru   page             // ring sentinel: lru.older is the most recently used page
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
	c := &blockCache{cap: capPages, pages: make(map[pageKey]*page, capPages), files: make(map[uint32]*page)}
	c.lru.newer, c.lru.older = &c.lru, &c.lru
	return c
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
	delete(c.pages, p.key)
}

// access looks the page up once: a buffered page is made the most
// recently used and access reports a hit; an unbuffered one is recorded as
// buffered if add is set, evicting the least recently used page if the
// budget is exceeded.
func (c *blockCache) access(ino uint32, block int64, add bool) (hit bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := pageKey{ino, block}
	if p, ok := c.pages[key]; ok {
		c.touch(p)
		return true
	}
	if !add {
		return false
	}
	var p *page
	if len(c.pages) < c.cap {
		p = &page{key: key}
	} else {
		// A full cache recycles its victim's page for the newcomer.
		p = c.lru.newer
		c.drop(p)
		*p = page{key: key}
	}
	c.touch(p)
	if p.next = c.files[ino]; p.next != nil {
		p.next.prev = p
	}
	c.files[ino] = p
	c.pages[key] = p
	return false
}

// invalidate drops all buffered pages of one file (truncate/remove).
func (c *blockCache) invalidate(ino uint32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for p := c.files[ino]; p != nil; p = c.files[ino] {
		c.drop(p)
	}
}
