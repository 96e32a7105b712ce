package server

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/zipchannel/zipchannel/internal/obs"
)

func key(s string) Key { return cacheKey("compress", "lz77", "", []byte(s)) }

// TestCacheKeySeparation guards the NUL-separated domain: op/codec/body
// boundaries must not be ambiguous.
func TestCacheKeySeparation(t *testing.T) {
	a := cacheKey("compress", "lz77", "", []byte("x"))
	b := cacheKey("compres", "slz77", "", []byte("x"))
	c := cacheKey("compress", "lz77x", "", []byte(""))
	if a == b || a == c || b == c {
		t.Fatal("cache keys collide across field boundaries")
	}
	if a != cacheKey("compress", "lz77", "", []byte("x")) {
		t.Fatal("cache key not deterministic")
	}
}

// TestLRUEviction fills a small cache past its budget and checks the
// least-recently-used entry goes first, with counters tracking.
func TestLRUEviction(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewLRUBackend(100, reg, "server.cache")

	val := bytes.Repeat([]byte("v"), 40)
	c.Put(key("a"), val)
	c.Put(key("b"), val)
	// Touch "a" so "b" is now least recently used.
	if _, ok := c.Get(key("a")); !ok {
		t.Fatal("a should be cached")
	}
	// 40 more bytes pushes size to 120 > 100: "b" must be evicted.
	c.Put(key("c"), val)
	if _, ok := c.Get(key("b")); ok {
		t.Fatal("b should have been evicted (LRU)")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.Get(key(k)); !ok {
			t.Fatalf("%s should still be cached", k)
		}
	}
	snap := reg.Snapshot()
	if snap.Counters["server.cache.evictions"] != 1 {
		t.Fatalf("evictions = %d, want 1", snap.Counters["server.cache.evictions"])
	}
	if got := snap.Gauges["server.cache.bytes"]; got != 80 {
		t.Fatalf("cache.bytes gauge = %v, want 80", got)
	}
	if got := snap.Gauges["server.cache.entries"]; got != 2 {
		t.Fatalf("cache.entries gauge = %v, want 2", got)
	}
}

// TestOversizedValueNotCached: a value bigger than the whole budget is
// passed through without evicting everything else.
func TestOversizedValueNotCached(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewLRUBackend(100, reg, "server.cache")
	c.Put(key("small"), []byte("tiny"))
	c.Put(key("huge"), bytes.Repeat([]byte("h"), 200))
	if _, ok := c.Get(key("huge")); ok {
		t.Fatal("oversized value should not be cached")
	}
	if _, ok := c.Get(key("small")); !ok {
		t.Fatal("small value should have survived the oversized put")
	}
}

// TestRePutRefreshesRecency: writing an existing key must not double-count
// its size, and must move it to the front.
func TestRePutRefreshesRecency(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewLRUBackend(100, reg, "server.cache")
	val := bytes.Repeat([]byte("v"), 40)
	c.Put(key("a"), val)
	c.Put(key("b"), val)
	c.Put(key("a"), val) // refresh, no size change
	if c.size != 80 {
		t.Fatalf("size = %d after re-put, want 80", c.size)
	}
	c.Put(key("c"), val) // evicts b, not a
	if _, ok := c.Get(key("a")); !ok {
		t.Fatal("a should have been refreshed by re-put")
	}
	if _, ok := c.Get(key("b")); ok {
		t.Fatal("b should have been evicted")
	}
}

// TestManyEntries churns enough keys to force repeated evictions and keeps
// the budget invariant.
func TestManyEntries(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewLRUBackend(1000, reg, "server.cache")
	for i := 0; i < 200; i++ {
		c.Put(key(fmt.Sprintf("k%d", i)), bytes.Repeat([]byte("x"), 90))
	}
	if c.size > 1000 {
		t.Fatalf("cache size %d exceeds budget 1000", c.size)
	}
	if snap := reg.Snapshot(); snap.Counters["server.cache.evictions"] == 0 {
		t.Fatal("expected evictions under churn")
	}
}
