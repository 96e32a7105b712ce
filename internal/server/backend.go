package server

// This file defines the pluggable cache-backend contract (DESIGN.md §10).
// The server composes backends into one hot/cold hierarchy per process,
// reachable only through /v1; every implementation — in-memory LRU,
// disk, tiered composite — obeys the same observable semantics, pinned
// by the internal/server/cachetest conformance suite:
//
//   - content-addressed Get/Put under a byte budget with LRU-order
//     eviction and hit/miss/eviction counters,
//   - per-entry SHA-256 integrity: a corrupted stored value is detected
//     on Get, counted, dropped, and reported as a miss — a backend can
//     degrade to a miss but never to wrong bytes,
//   - safety under concurrent use (the conformance suite runs every
//     backend under -race).
//
// Backends register their fault points (server.cache.disk.*) with the
// same internal/fault registry the rest of the server uses; with faults
// disarmed a backend's byte behavior is identical to a fault-free build.

import (
	"crypto/sha256"

	"github.com/zipchannel/zipchannel/internal/fault"
)

// Key is a content address: SHA-256 over (op, codec, level, body) — see
// cacheKey.
type Key = [sha256.Size]byte

// CacheBackend is the storage contract behind the server's response
// cache. Implementations must be safe for concurrent use. The server
// treats a nil CacheBackend as "caching disabled"; implementations do not
// need to support nil receivers through the interface.
type CacheBackend interface {
	// Name identifies the backend ("lru", "disk", "tiered") for
	// /healthz and logs.
	Name() string
	// Get returns the value stored under key and whether it was present
	// and intact. The returned slice is shared; callers must not mutate
	// it. A value failing its integrity check is dropped and reported as
	// a miss.
	Get(key Key) ([]byte, bool)
	// Put stores val under key, evicting least-recently-used entries to
	// hold the byte budget. Values larger than the whole budget are not
	// stored. Re-putting an existing key refreshes recency and heals the
	// stored bytes.
	Put(key Key, val []byte)
	// Stats reports current occupancy (entries, stored value bytes).
	Stats() (entries int, bytes int64)
	// CorruptStored simulates a storage bit-flip on key's entry (chaos
	// runs only): the stored value is damaged while the recorded
	// integrity checksum keeps the original digest, so the next Get must
	// detect it. No-op when key is absent.
	CorruptStored(key Key, in fault.Injection)
	// Close releases backend resources (files).
	// Backends remain usable as always-miss stores after Close.
	Close() error
}
