package server

import (
	"github.com/zipchannel/zipchannel/internal/fault"
	"github.com/zipchannel/zipchannel/internal/obs"
)

// TieredBackend composes a small fast hot tier over a large slow cold
// tier (in zipserverd: an in-memory LRU over disk). Semantics:
//
//   - Get: hot hit wins; a cold hit is promoted into the hot tier on its
//     way out (so a re-hit is cheap); a double miss is a miss.
//   - Put: write-through to both tiers, so hot evictions never lose a
//     still-warm entry that the cold tier can hold.
//   - Integrity: each tier carries its own SHA-256 verification. A
//     corrupt hot entry degrades to the cold tier; a corrupt cold entry
//     degrades to a miss. Corrupt bytes can never cross a tier boundary
//     because promotion re-verifies on the cold tier's Get.
//
// The composite maintains the aggregate hits/misses series under its own
// prefix (the classic "server.cache" names, so single-LRU dashboards and
// zipload's hit-rate report keep working unchanged), while each tier
// keeps its per-tier series (server.cache.hot.*, server.cache.cold.*) —
// the per-tier hit rates the cluster bench reports.
type TieredBackend struct {
	hot, cold CacheBackend

	hits       *obs.Counter
	misses     *obs.Counter
	promotions *obs.Counter
}

// NewTiered composes hot over cold with aggregate counters under prefix.
func NewTiered(hot, cold CacheBackend, reg *obs.Registry, prefix string) *TieredBackend {
	return &TieredBackend{
		hot:        hot,
		cold:       cold,
		hits:       reg.Counter(prefix + ".hits"),
		misses:     reg.Counter(prefix + ".misses"),
		promotions: reg.Counter(prefix + ".promotions"),
	}
}

// Name implements CacheBackend.
func (t *TieredBackend) Name() string {
	return "tiered(" + t.hot.Name() + "/" + t.cold.Name() + ")"
}

// Get implements CacheBackend: hot, then cold with promotion.
func (t *TieredBackend) Get(key Key) ([]byte, bool) {
	if val, ok := t.hot.Get(key); ok {
		t.hits.Inc()
		return val, true
	}
	if val, ok := t.cold.Get(key); ok {
		t.hot.Put(key, val)
		t.promotions.Inc()
		t.hits.Inc()
		return val, true
	}
	t.misses.Inc()
	return nil, false
}

// Put implements CacheBackend (write-through).
func (t *TieredBackend) Put(key Key, val []byte) {
	t.hot.Put(key, val)
	t.cold.Put(key, val)
}

// CorruptStored implements CacheBackend. The chaos target is the cold
// tier ("corrupt cold-tier entry" is the scenario the hierarchy must
// absorb: the hot copy — if any — still serves, and once it evicts, the
// cold read must detect the damage rather than serve it).
func (t *TieredBackend) CorruptStored(key Key, in fault.Injection) {
	t.cold.CorruptStored(key, in)
}

// Stats implements CacheBackend: occupancy summed over tiers (a
// write-through entry counts in each tier holding it, matching what the
// tiers' own gauges report).
func (t *TieredBackend) Stats() (entries int, bytes int64) {
	he, hb := t.hot.Stats()
	ce, cb := t.cold.Stats()
	return he + ce, hb + cb
}

// Close implements CacheBackend.
func (t *TieredBackend) Close() error {
	herr, cerr := t.hot.Close(), t.cold.Close()
	if herr != nil {
		return herr
	}
	return cerr
}
