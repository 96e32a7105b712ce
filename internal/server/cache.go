package server

import (
	"container/list"
	"crypto/sha256"
	"sync"

	"github.com/zipchannel/zipchannel/internal/fault"
	"github.com/zipchannel/zipchannel/internal/obs"
)

// cacheKey addresses a response by content: SHA-256 over (op, codec,
// level, body) with NUL separators so ("compress","lz77x") and
// ("compressx","lz77") can never collide. Identical bodies through the
// same codec+op+level always map to the same entry regardless of which
// client sent them — the content-addressed sharing that makes the cache a
// realistic stage for cross-request compression side channels (see
// PAPERS.md: Schwarzl et al., Debreach). The level dimension backs the
// Vary: X-Zip-Level HTTP semantics: a level-partitioned entry can never
// be served for a different level.
func cacheKey(op, codecName, level string, body []byte) Key {
	h := sha256.New()
	h.Write([]byte(op))
	h.Write([]byte{0})
	h.Write([]byte(codecName))
	h.Write([]byte{0})
	h.Write([]byte(level))
	h.Write([]byte{0})
	h.Write(body)
	var k Key
	h.Sum(k[:0])
	return k
}

// lruIndex is the byte-budgeted recency index both local tiers embed:
// the MRU→LRU list, the key map, strict byte accounting, the five
// standard series under prefix (.hits, .misses, .evictions, .bytes,
// .entries) and the evict-over-budget loop. V is what a tier keeps per
// entry beyond its length (the memory tier: the value and its checksum;
// the disk tier: nothing). unlink, when set, runs for every entry that
// leaves the index (the disk tier removes the entry's file). Callers
// hold mu around every method but Stats.
type lruIndex[V any] struct {
	mu     sync.Mutex
	max    int64      // byte budget for stored values
	size   int64      // current stored bytes
	order  *list.List // front = most recently used; values are *lruEntry[V]
	items  map[Key]*list.Element
	unlink func(Key)

	hits      *obs.Counter
	misses    *obs.Counter
	evictions *obs.Counter
	bytes     *obs.Gauge
	entries   *obs.Gauge
	// reg and prefix back the lazily-registered failure series
	// (.corruptions_detected, .read_errors, .write_errors), so a run
	// that never sees one keeps its metrics snapshot byte-identical to
	// a pre-integrity build.
	reg    *obs.Registry
	prefix string
}

type lruEntry[V any] struct {
	key Key
	n   int64 // stored value bytes
	v   V
}

func (x *lruIndex[V]) init(maxBytes int64, reg *obs.Registry, prefix string, unlink func(Key)) {
	x.max = maxBytes
	x.order = list.New()
	x.items = map[Key]*list.Element{}
	x.unlink = unlink
	x.hits = reg.Counter(prefix + ".hits")
	x.misses = reg.Counter(prefix + ".misses")
	x.evictions = reg.Counter(prefix + ".evictions")
	x.bytes = reg.Gauge(prefix + ".bytes")
	x.entries = reg.Gauge(prefix + ".entries")
	x.reg = reg
	x.prefix = prefix
}

// find returns key's element, counting a miss when it is absent.
func (x *lruIndex[V]) find(key Key) (*list.Element, *lruEntry[V]) {
	el, ok := x.items[key]
	if !ok {
		x.misses.Inc()
		return nil, nil
	}
	return el, el.Value.(*lruEntry[V])
}

// hit marks el most recently used and counts a hit.
func (x *lruIndex[V]) hit(el *list.Element) {
	x.order.MoveToFront(el)
	x.hits.Inc()
}

// fail counts a miss plus one on the series named by suffix, dropping el
// (when non-nil) so the caller's re-put heals the entry.
func (x *lruIndex[V]) fail(el *list.Element, suffix string) {
	if el != nil {
		x.remove(el)
	}
	x.reg.Counter(x.prefix + suffix).Inc()
	x.misses.Inc()
}

// insert stores (or refreshes) key as most recently used with n value
// bytes, without evicting; evict restores the budget.
func (x *lruIndex[V]) insert(key Key, n int64, v V) {
	if el, ok := x.items[key]; ok {
		ent := el.Value.(*lruEntry[V])
		x.size += n - ent.n
		ent.n, ent.v = n, v
		x.order.MoveToFront(el)
		return
	}
	x.items[key] = x.order.PushFront(&lruEntry[V]{key: key, n: n, v: v})
	x.size += n
}

// evict drops least-recently-used entries until the byte budget holds.
func (x *lruIndex[V]) evict() {
	for x.size > x.max {
		x.remove(x.order.Back())
		x.evictions.Inc()
	}
	x.sync()
}

func (x *lruIndex[V]) remove(el *list.Element) {
	ent := x.order.Remove(el).(*lruEntry[V])
	delete(x.items, ent.key)
	x.size -= ent.n
	if x.unlink != nil {
		x.unlink(ent.key)
	}
	x.sync()
}

func (x *lruIndex[V]) sync() {
	x.bytes.Set(float64(x.size))
	x.entries.Set(float64(len(x.items)))
}

// Stats implements CacheBackend for both local tiers: the current entry
// count and stored value bytes.
func (x *lruIndex[V]) Stats() (entries int, bytes int64) {
	x.mu.Lock()
	defer x.mu.Unlock()
	return len(x.items), x.size
}

// LRUBackend is a byte-budgeted in-memory LRU of codec responses, modeled
// on the MemoryCache of the httpcache reference repo but with strict size
// accounting, obs counters, and end-to-end integrity: every entry stores a
// SHA-256 of its value, verified on each hit, so a corrupted stored
// response (a flipped bit in "storage", injected via internal/fault in
// chaos runs) is detected and re-fetched instead of served — a cache can
// degrade to a miss but never to wrong bytes. It is the reference
// CacheBackend implementation and the hot tier of the default hierarchy.
type LRUBackend struct {
	lruIndex[memValue]
}

type memValue struct {
	val []byte
	sum [sha256.Size]byte // integrity checksum of val, fixed at put time
}

// NewLRUBackend creates a cache holding at most maxBytes (> 0) of
// values, hanging its counters off reg under prefix (e.g. "server.cache"
// → server.cache.hits; the single-backend default keeps the metric names
// every earlier build used).
func NewLRUBackend(maxBytes int64, reg *obs.Registry, prefix string) *LRUBackend {
	c := &LRUBackend{}
	c.init(maxBytes, reg, prefix, nil)
	return c
}

// Name implements CacheBackend.
func (c *LRUBackend) Name() string { return "lru" }

// Get returns the cached value and marks the entry most recently used. A
// stored value that fails its integrity check is dropped and counted as a
// corruption plus a miss — the caller recomputes and re-puts. The returned
// slice is shared; callers must not mutate it.
func (c *LRUBackend) Get(key Key) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ent := c.find(key)
	if el == nil {
		return nil, false
	}
	if sha256.Sum256(ent.v.val) != ent.v.sum {
		c.fail(el, ".corruptions_detected")
		return nil, false
	}
	c.hit(el)
	return ent.v.val, true
}

// CorruptStored simulates a storage bit-flip on the entry under key (the
// server.cache.get KindCorrupt fault): the stored value is replaced with a
// corrupted copy while its checksum keeps the original digest, so the next
// Get detects the damage. In-flight responses holding the old slice are
// unaffected (the flip lands in storage, not in buffers already handed
// out). No-op when the key is absent.
func (c *LRUBackend) CorruptStored(key Key, in fault.Injection) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		ent := el.Value.(*lruEntry[memValue])
		ent.v.val = in.CorruptCopy(ent.v.val)
	}
}

// Put inserts val under key, evicting least-recently-used entries until the
// byte budget holds. Values larger than the whole budget are not cached.
// Re-putting an existing key refreshes its recency and heals its stored
// bytes (the value is correct by construction: the key hashes the full
// input, and a corrupted entry was just recomputed by the caller).
func (c *LRUBackend) Put(key Key, val []byte) {
	if int64(len(val)) > c.max {
		return
	}
	v := memValue{val: val, sum: sha256.Sum256(val)}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.insert(key, int64(len(val)), v)
	c.evict()
}

// Close implements CacheBackend; an in-memory store has nothing to release.
func (c *LRUBackend) Close() error { return nil }
