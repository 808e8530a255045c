package analysis

import (
	"fmt"
	"testing"
)

// cachedResult builds a small series result for cache tests.
func cachedResult(query string, points int) QueryResult {
	res := QueryResult{Query: query, Kind: "series"}
	res.Series.Name = query
	res.Series.Points = make([]Point, points)
	return res
}

func TestQueryCacheHitMiss(t *testing.T) {
	c := NewQueryCache(8, 1<<20)
	res := cachedResult("pct(adv-rc4 / total)", 75)
	c.Put("notary", 0, 100, res.Query, res, nil)

	got, _, ok := c.Get("notary", 0, 100, res.Query)
	if !ok {
		t.Fatal("expected a hit on the stored key")
	}
	if got.Query != res.Query || len(got.Series.Points) != 75 {
		t.Fatalf("hit returned wrong result: %+v", got)
	}
	// Any coordinate change misses: generation advance (ingest), different
	// study, different query.
	misses := []struct {
		study string
		gen   uint64
		query string
	}{
		{"notary", 101, res.Query},
		{"other", 100, res.Query},
		{"notary", 100, "count(total)"},
	}
	for _, m := range misses {
		if _, _, ok := c.Get(m.study, 0, m.gen, m.query); ok {
			t.Errorf("unexpected hit for %v", m)
		}
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 3 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 1 hit / 3 misses / 1 entry", st)
	}
}

func TestQueryCacheEntryEviction(t *testing.T) {
	c := NewQueryCache(3, 1<<20)
	for i := 0; i < 5; i++ {
		q := fmt.Sprintf("q%d", i)
		c.Put("s", 0, 1, q, cachedResult(q, 10), nil)
	}
	st := c.Stats()
	if st.Entries != 3 || st.Evictions != 2 {
		t.Fatalf("stats = %+v, want 3 entries / 2 evictions", st)
	}
	// LRU order: q0 and q1 evicted, q2..q4 retained.
	if _, _, ok := c.Get("s", 0, 1, "q0"); ok {
		t.Error("oldest entry survived eviction")
	}
	if _, _, ok := c.Get("s", 0, 1, "q4"); !ok {
		t.Error("newest entry was evicted")
	}
	// A Get refreshes recency: touch q2, insert two more, q3 dies first.
	if _, _, ok := c.Get("s", 0, 1, "q2"); !ok {
		t.Fatal("q2 missing")
	}
	c.Put("s", 0, 1, "q5", cachedResult("q5", 10), nil)
	c.Put("s", 0, 1, "q6", cachedResult("q6", 10), nil)
	if _, _, ok := c.Get("s", 0, 1, "q2"); !ok {
		t.Error("recently used entry was evicted")
	}
	if _, _, ok := c.Get("s", 0, 1, "q3"); ok {
		t.Error("least recently used entry survived")
	}
}

func TestQueryCacheByteBudget(t *testing.T) {
	// Each 100-point entry costs ~2400 B + overhead; a 6 KB budget holds two.
	c := NewQueryCache(100, 6000)
	for i := 0; i < 4; i++ {
		q := fmt.Sprintf("q%d", i)
		c.Put("s", 0, 1, q, cachedResult(q, 100), nil)
	}
	st := c.Stats()
	if st.Entries != 2 || st.Bytes > 6000 {
		t.Fatalf("stats = %+v, want 2 entries within the 6000-byte budget", st)
	}
	// A single result over the whole budget is refused, not cached.
	c.Put("s", 0, 1, "huge", cachedResult("huge", 1000), nil)
	if _, _, ok := c.Get("s", 0, 1, "huge"); ok {
		t.Error("oversized result was cached")
	}
	// Replacing an entry under the same key adjusts the byte account.
	before := c.Stats().Bytes
	c.Put("s", 0, 1, "q3", cachedResult("q3", 10), nil)
	if after := c.Stats().Bytes; after >= before {
		t.Errorf("replacing with a smaller result grew bytes: %d -> %d", before, after)
	}
}

func TestQueryCacheNilSafe(t *testing.T) {
	var c *QueryCache
	c.Put("s", 0, 1, "q", cachedResult("q", 1), nil)
	if _, _, ok := c.Get("s", 0, 1, "q"); ok {
		t.Error("nil cache hit")
	}
	if st := c.Stats(); st != (QueryCacheStats{}) {
		t.Errorf("nil cache stats = %+v", st)
	}
}

// TestQueryCacheBody pins the serialized-body side channel: a hit returns
// the exact bytes stored with the result, the body counts against the byte
// budget, and entries stored without one return nil.
func TestQueryCacheBody(t *testing.T) {
	c := NewQueryCache(8, 1<<20)
	res := cachedResult("count(total)", 10)
	body, err := res.EncodeJSONBody()
	if err != nil {
		t.Fatal(err)
	}
	c.Put("s", 0, 1, res.Query, res, body)
	_, got, ok := c.Get("s", 0, 1, res.Query)
	if !ok || string(got) != string(body) {
		t.Fatalf("hit body = %q (ok=%v), want stored body", got, ok)
	}

	c.Put("s", 0, 1, "bodyless", res, nil)
	if _, b, ok := c.Get("s", 0, 1, "bodyless"); !ok || b != nil {
		t.Fatalf("bodyless entry returned body %q (ok=%v)", b, ok)
	}

	// The body is part of the accounted size.
	with := resultSize(cacheKey{"s", 1, res.Query}, res, body)
	without := resultSize(cacheKey{"s", 1, res.Query}, res, nil)
	if with != without+int64(len(body)) {
		t.Errorf("body not accounted: %d vs %d + %d", with, without, len(body))
	}
}

// TestQueryCacheHitAllocs pins the cache hit to O(1) allocations — the
// returned clone shares the immutable Points backing array, so a hit costs
// a map lookup plus the result copy, never a per-point copy.
func TestQueryCacheHitAllocs(t *testing.T) {
	c := NewQueryCache(8, 1<<20)
	res := cachedResult("pct(adv-rc4 / total)", 75)
	c.Put("notary", 0, 100, res.Query, res, nil)
	if n := testing.AllocsPerRun(200, func() {
		if _, _, ok := c.Get("notary", 0, 100, res.Query); !ok {
			t.Fatal("miss")
		}
	}); n != 0 {
		t.Errorf("cache hit: %.1f allocs/run, want 0", n)
	}
}
