package analysis

// The generation-keyed query result cache: the third stage of the query
// engine. A frame is immutable and tagged with the generation it was built
// from, so a QueryResult computed against (study, generation) never goes
// stale — it can only become unreachable when the generation advances. That
// makes the cache trivially correct: keys embed the generation (a study's
// aggregate is never replaced, only merged into), and invalidation is just
// new keys shadowing old ones until the LRU evicts the orphans.
//
// One cache is shared across every study a process serves; entries are
// bounded both by count and by an approximate byte budget so a burst of
// distinct queries cannot grow memory without limit.

import (
	"container/list"
	"sync"
)

// QueryCacheStats is a point-in-time snapshot of cache counters, exported
// on /healthz by the service layer. Hits and Misses count lookups, not
// queries: core.Study.QueryInfoJSON looks a text up as received and, when it
// is not canonical, its canonical text too, so a respelled query served from
// the canonical entry counts a miss and a hit.
type QueryCacheStats struct {
	Hits       uint64 `json:"hits"`
	Misses     uint64 `json:"misses"`
	Evictions  uint64 `json:"evictions"`
	Entries    int    `json:"entries"`
	Bytes      int64  `json:"bytes"`
	MaxEntries int    `json:"max_entries"`
	MaxBytes   int64  `json:"max_bytes"`
}

// cacheKey identifies one cached result. Entries are stored under canonical
// text (the parse→format fixpoint), so syntactic variants of the same
// expression share an entry; a lookup may carry any text, and every one is
// counted in the hit and miss counters.
type cacheKey struct {
	study      string
	generation uint64
	query      string
}

// cacheEntry is an LRU element payload. body is the serialized JSON
// response for res (as the service writes it), cached alongside so a hit
// skips json.Marshal on the serving path; nil when the owner never
// materialized one.
type cacheEntry struct {
	key  cacheKey
	res  QueryResult
	body []byte
	size int64
}

// QueryCache is a bounded LRU of QueryResults keyed by
// (study, generation, canonical query text). All methods are safe
// for concurrent use and safe on a nil receiver (a nil cache never hits,
// making "caching disabled" the zero-configuration path).
type QueryCache struct {
	mu         sync.Mutex
	maxEntries int
	maxBytes   int64
	bytes      int64
	ll         *list.List // front = most recent
	entries    map[cacheKey]*list.Element

	hits, misses, evictions uint64
}

// NewQueryCache builds a cache bounded to maxEntries results and an
// approximate maxBytes of cached points. Bounds ≤ 0 mean unbounded on that
// axis (but at least one bound should be set; the callers always set both).
func NewQueryCache(maxEntries int, maxBytes int64) *QueryCache {
	return &QueryCache{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		ll:         list.New(),
		entries:    make(map[cacheKey]*list.Element),
	}
}

// resultSize approximates an entry's memory footprint: struct overhead plus
// the strings, the 24-byte Points and the serialized body.
func resultSize(key cacheKey, res QueryResult, body []byte) int64 {
	const overhead = 160 // key + entry + element bookkeeping, roughly
	return overhead +
		int64(len(key.study)+len(key.query)) +
		int64(len(res.Query)+len(res.Kind)+len(res.Series.Name)) +
		int64(24*len(res.Series.Points)) +
		int64(len(body))
}

// Get returns the cached result and serialized body for the key, marking it
// most recently used. The returned QueryResult is a shallow clone: it shares
// the immutable Points backing array with the cache, so callers must treat
// Series.Points as read-only (every existing consumer — JSON encoding,
// rendering, Series.Value — already does). The body, when non-nil, is
// likewise shared and must not be mutated; it may be nil even on a hit when
// the entry was stored without one. The unnamed uint64 is ignored: it was
// an aggregate-replacement epoch, and stays in the signature until the
// benchmark harness's call sites drop it.
func (c *QueryCache) Get(study string, _, generation uint64, query string) (QueryResult, []byte, bool) {
	if c == nil {
		return QueryResult{}, nil, false
	}
	key := cacheKey{study, generation, query}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		return QueryResult{}, nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	ent := el.Value.(*cacheEntry)
	return ent.res, ent.body, true
}

// Put stores a result (and optionally its serialized JSON body; nil is
// fine) under the key, evicting least-recently-used entries while either
// bound is exceeded. Storing an oversized single result is a no-op rather
// than a cache flush. The unnamed uint64 is ignored, as in Get.
func (c *QueryCache) Put(study string, _, generation uint64, query string, res QueryResult, body []byte) {
	if c == nil {
		return
	}
	key := cacheKey{study, generation, query}
	size := resultSize(key, res, body)
	if c.maxBytes > 0 && size > c.maxBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		ent := el.Value.(*cacheEntry)
		c.bytes += size - ent.size
		ent.res, ent.body, ent.size = res, body, size
		c.ll.MoveToFront(el)
	} else {
		c.entries[key] = c.ll.PushFront(&cacheEntry{key: key, res: res, body: body, size: size})
		c.bytes += size
	}
	for c.ll.Len() > 0 &&
		((c.maxEntries > 0 && c.ll.Len() > c.maxEntries) ||
			(c.maxBytes > 0 && c.bytes > c.maxBytes)) {
		c.evictOldest()
	}
}

// evictOldest drops the least-recently-used entry. Callers hold c.mu.
func (c *QueryCache) evictOldest() {
	el := c.ll.Back()
	ent := el.Value.(*cacheEntry)
	c.ll.Remove(el)
	delete(c.entries, ent.key)
	c.bytes -= ent.size
	c.evictions++
}

// Stats snapshots the cache counters.
func (c *QueryCache) Stats() QueryCacheStats {
	if c == nil {
		return QueryCacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return QueryCacheStats{
		Hits:       c.hits,
		Misses:     c.misses,
		Evictions:  c.evictions,
		Entries:    c.ll.Len(),
		Bytes:      c.bytes,
		MaxEntries: c.maxEntries,
		MaxBytes:   c.maxBytes,
	}
}
