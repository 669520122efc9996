package segment

import (
	"container/list"
	"sync"

	"desksearch/internal/postings"
)

// DefaultCacheBytes is the block-cache budget used when NewCache is given
// a non-positive limit: enough to keep a working set of hot terms decoded
// without approaching the heap cost of eager loading.
const DefaultCacheBytes = 64 << 20

// Cache is a bounded LRU of decoded posting blocks, shared by every lazy
// Reader of a catalog so the memory budget is global, not per-segment.
// Entries are keyed by (reader, term ordinal) and there is one per block,
// at the richest tier decoded so far: a counts-only list (IDs and
// frequencies, what Reader.Counts decodes) is replaced by the full list
// the first time Reader.Lookup wants the term's positions, and never the
// other way round. Closing a reader drops its entries. Safe for
// concurrent use.
type Cache struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	lru      *list.List // front = most recent; values are *cacheEntry
	entries  map[cacheKey]*list.Element
}

type cacheKey struct {
	owner *Reader
	ord   int
}

type cacheEntry struct {
	key   cacheKey
	l     *postings.List
	pos   bool // l is the full decode of a positional block
	bytes int64
}

// NewCache returns a cache holding at most maxBytes of decoded postings,
// counted as listBytes counts them; non-positive means DefaultCacheBytes.
func NewCache(maxBytes int64) *Cache {
	if maxBytes <= 0 {
		maxBytes = DefaultCacheBytes
	}
	return &Cache{
		maxBytes: maxBytes,
		lru:      list.New(),
		entries:  make(map[cacheKey]*list.Element),
	}
}

// Bytes returns the current estimated size of the cached blocks.
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// MaxBytes returns the cache's byte budget — the bound eviction enforces,
// surfaced for observability (/stats) alongside Bytes.
func (c *Cache) MaxBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.maxBytes
}

// get returns the cached list of (owner, ord). With needPos only a full
// decode answers; a counts-only entry is then a miss, and the put that
// follows the caller's decode replaces it.
func (c *Cache) get(owner *Reader, ord int, needPos bool) (*postings.List, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[cacheKey{owner, ord}]
	if !ok {
		return nil, false
	}
	e := el.Value.(*cacheEntry)
	if needPos && !e.pos {
		return nil, false
	}
	c.lru.MoveToFront(el)
	return e.l, true
}

// put caches l as the decode of (owner, ord); pos says it carries the
// block's positions. An entry already there stays unless l is the richer
// tier, in which case l takes its place and the bytes are re-accounted.
func (c *Cache) put(owner *Reader, ord int, l *postings.List, pos bool) {
	size := listBytes(l)
	if size > c.maxBytes {
		return // would evict everything and still not fit
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	key := cacheKey{owner, ord}
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*cacheEntry)
		c.lru.MoveToFront(el)
		if e.pos || !pos {
			return // lost a race with a concurrent miss of the same tier
		}
		c.bytes += size - e.bytes
		owner.cached.Add(size - e.bytes)
		e.l, e.pos, e.bytes = l, true, size
	} else {
		c.entries[key] = c.lru.PushFront(&cacheEntry{key: key, l: l, pos: pos, bytes: size})
		c.bytes += size
		owner.cached.Add(size)
	}
	for c.bytes > c.maxBytes {
		c.evictOldest()
	}
}

// evictOldest removes the LRU entry. Caller holds c.mu.
func (c *Cache) evictOldest() {
	el := c.lru.Back()
	if el == nil {
		return
	}
	e := el.Value.(*cacheEntry)
	c.lru.Remove(el)
	delete(c.entries, e.key)
	c.bytes -= e.bytes
	e.key.owner.cached.Add(-e.bytes)
}

// dropOwner evicts every entry owned by r (called from Reader.Close).
func (c *Cache) dropOwner(r *Reader) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var next *list.Element
	for el := c.lru.Front(); el != nil; el = next {
		next = el.Next()
		e := el.Value.(*cacheEntry)
		if e.key.owner != r {
			continue
		}
		c.lru.Remove(el)
		delete(c.entries, e.key)
		c.bytes -= e.bytes
		r.cached.Add(-e.bytes)
	}
}

// entryOverhead is what one cached block costs beside its posting data:
// the postings.List struct (80 B), the cacheEntry (48), the LRU's
// list.Element (48) and the entry's slot in the map (24 B of key and value,
// about 40 at the map's average load). Charged per entry, so a cache full of
// one-posting lists holds what MaxBytes says, not several times that.
const entryOverhead = 80 + 48 + 48 + 40

// listBytes is a decoded list's heap footprint as the cache charges it:
// the fixed per-entry overhead, four bytes per ID, four per explicit
// frequency when the list stores any (a boolean list does not), and for
// a positional list one slice header per posting plus four bytes per
// position — exact since DecodePositional lays positions out flat.
func listBytes(l *postings.List) int64 {
	n := int64(l.Len())
	b := entryOverhead + 4*n
	switch {
	case l.HasPositions():
		b += 24 * n
		for i := 0; i < l.Len(); i++ {
			b += 4 * int64(len(l.PositionsAt(i)))
		}
	case l.HasCounts():
		b += 4 * n
	}
	return b
}
