package core

import (
	"container/list"
	"sync"
	"sync/atomic"

	"lamassu/internal/layout"
)

// blockCache is the per-FS LRU cache of verified plaintext data blocks
// and decoded metadata blocks, keyed by (file name, block index). It
// lets repeated reads skip the backend read, the AES-CBC decryption
// and the SHA-256 integrity re-hash (data blocks), or the AES-GCM open
// (metadata blocks).
//
// Coherence model: an entry is inserted only after the block was read
// from the backing store and passed verification, and every path that
// changes on-disk state — commit, truncate, re-key, recovery, remove —
// invalidates the affected entries before or at the point the store
// changes. Inserts are generation-guarded: a reader snapshots the
// cache generation before it touches the backing store, and the insert
// is dropped if any invalidation ran in between, so a read that raced
// a commit can never re-install pre-commit bytes after the
// invalidation already happened. Together with the engine's
// single-writer-per-file assumption (see the package comment), a hit
// therefore always returns the bytes a fresh backend read would have
// produced.
//
// All methods are safe for concurrent use and are no-ops on a nil
// *blockCache, so a disabled cache costs one nil check on the read
// path.
type blockCache struct {
	mu  sync.Mutex
	cap int
	ll  *list.List // front = most recently used
	m   map[cacheKey]*list.Element
	// gen counts invalidations (bumped under mu, read lock-free by
	// snapshot). Global rather than per-name: a put rejected because an
	// unrelated file invalidated concurrently is only a skipped
	// optimization, and the counter costs no per-name state.
	gen atomic.Uint64

	hits   atomic.Int64
	misses atomic.Int64
}

type cacheKind uint8

const (
	cacheData cacheKind = iota
	cacheMeta
)

// cacheKey addresses one cached block: a data block by its logical
// data-block index, a metadata block by its segment index.
type cacheKey struct {
	name string
	kind cacheKind
	idx  int64
}

type cacheEntry struct {
	key  cacheKey
	data []byte            // cacheData: plaintext block (len BlockSize)
	meta *layout.MetaBlock // cacheMeta: decoded block (private copy)
}

// newBlockCache returns a cache holding up to capBlocks entries (data
// and metadata blocks each count as one), or nil when capBlocks <= 0.
func newBlockCache(capBlocks int) *blockCache {
	if capBlocks <= 0 {
		return nil
	}
	return &blockCache{
		cap: capBlocks,
		ll:  list.New(),
		m:   make(map[cacheKey]*list.Element, capBlocks),
	}
}

// getData copies the cached plaintext of data block dbi into dst and
// reports whether it was present. The copy happens outside the cache
// lock — entries are immutable once inserted (put replaces the list
// element's value, never mutates it), so only the lookup and LRU
// bookkeeping need the mutex and concurrent hits don't serialize on
// the memcpy.
func (c *blockCache) getData(name string, dbi int64, dst []byte) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	el, ok := c.m[cacheKey{name, cacheData, dbi}]
	var e *cacheEntry
	if ok {
		c.ll.MoveToFront(el)
		e = el.Value.(*cacheEntry)
	}
	c.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return false
	}
	copy(dst, e.data)
	c.hits.Add(1)
	return true
}

// snapshot returns the current invalidation generation; pass it to
// putData/putMeta so an insert racing an invalidation is dropped.
func (c *blockCache) snapshot() uint64 {
	if c == nil {
		return 0
	}
	return c.gen.Load()
}

// putData stores a copy of the verified plaintext of data block dbi,
// unless the cache generation moved past gen since the caller's
// snapshot (the block may have been rewritten while it was being
// read).
func (c *blockCache) putData(name string, dbi int64, src []byte, gen uint64) {
	if c == nil {
		return
	}
	c.put(cacheKey{name, cacheData, dbi}, &cacheEntry{data: append([]byte(nil), src...)}, gen)
}

// getMeta returns a private copy of the cached decoded metadata block
// of segment seg, or nil. As in getData, the clone happens outside
// the lock.
func (c *blockCache) getMeta(name string, seg int64) *layout.MetaBlock {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	el, ok := c.m[cacheKey{name, cacheMeta, seg}]
	var e *cacheEntry
	if ok {
		c.ll.MoveToFront(el)
		e = el.Value.(*cacheEntry)
	}
	c.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return nil
	}
	c.hits.Add(1)
	return e.meta.Clone()
}

// putMeta stores a private copy of the decoded metadata block of
// segment seg, under the same generation guard as putData.
func (c *blockCache) putMeta(name string, seg int64, m *layout.MetaBlock, gen uint64) {
	if c == nil {
		return
	}
	c.put(cacheKey{name, cacheMeta, seg}, &cacheEntry{meta: m.Clone()}, gen)
}

func (c *blockCache) put(key cacheKey, e *cacheEntry, gen uint64) {
	e.key = key
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.gen.Load() != gen {
		// An invalidation ran after the caller read the backing store;
		// its bytes may predate that change. Skipping the insert is
		// always safe — the next read re-fetches.
		return
	}
	if el, ok := c.m[key]; ok {
		el.Value = e
		c.ll.MoveToFront(el)
		return
	}
	c.m[key] = c.ll.PushFront(e)
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.m, oldest.Value.(*cacheEntry).key)
	}
}

// invalidateData drops the entry for data block dbi, if present.
func (c *blockCache) invalidateData(name string, dbi int64) {
	c.invalidate(cacheKey{name, cacheData, dbi})
}

// invalidateDataBlocks drops the entries for a batch of data blocks in
// one critical section with a single generation bump (a commit calls
// this once for its whole batch rather than once per block).
func (c *blockCache) invalidateDataBlocks(name string, dbis []int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.gen.Add(1)
	for _, dbi := range dbis {
		if el, ok := c.m[cacheKey{name, cacheData, dbi}]; ok {
			c.ll.Remove(el)
			delete(c.m, cacheKey{name, cacheData, dbi})
		}
	}
	c.mu.Unlock()
}

// invalidateMeta drops the entry for segment seg's metadata block.
func (c *blockCache) invalidateMeta(name string, seg int64) {
	c.invalidate(cacheKey{name, cacheMeta, seg})
}

func (c *blockCache) invalidate(key cacheKey) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.gen.Add(1)
	if el, ok := c.m[key]; ok {
		c.ll.Remove(el)
		delete(c.m, key)
	}
	c.mu.Unlock()
}

// invalidateFile drops every entry belonging to name — used by the
// whole-file mutators (truncate, re-key, recovery, remove).
func (c *blockCache) invalidateFile(name string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.gen.Add(1)
	for key, el := range c.m {
		if key.name == name {
			c.ll.Remove(el)
			delete(c.m, key)
		}
	}
	c.mu.Unlock()
}

// CacheStats is a snapshot of the block cache's counters.
type CacheStats struct {
	// Capacity is the configured maximum number of entries (0 when the
	// cache is disabled).
	Capacity int
	// Entries is the current number of cached blocks.
	Entries int
	// Hits and Misses count lookups since the FS was created.
	Hits, Misses int64
}

// HitRate returns Hits/(Hits+Misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// stats returns the current counters.
func (c *blockCache) stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	entries := c.ll.Len()
	c.mu.Unlock()
	return CacheStats{
		Capacity: c.cap,
		Entries:  entries,
		Hits:     c.hits.Load(),
		Misses:   c.misses.Load(),
	}
}
