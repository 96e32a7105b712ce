package taint

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// The interning pool, the ID table, the singleton table and the union
// memo. All are process-wide: parallel experiment tasks share canonical
// sets (they are immutable), and the only locks are per-shard mutexes held
// for a hash lookup or a small insert, so cross-task contention stays
// negligible.
//
// Hash-consing gives the properties the hot path leans on:
//
//   - every canonical set has a unique uint32 ID (0 is the empty set), so
//     shadow state stores IDs, not pointers, and set equality is ID
//     equality;
//   - Union can be memoized on the ordered operand *ID pair*: the same
//     pair of canonical sets always unions to the same canonical set;
//   - steady-state propagation (the same tag combinations recurring for
//     every input byte) performs no allocation at all.
//
// A set is entered in the ID table under its intern shard's lock, before
// its ID is returned to anyone, so every goroutine that holds an ID can
// resolve it without a lock. The memo is a bounded cache (a shard is reset
// when full), so long server-style processes cannot grow it without bound;
// the intern pool itself retains every distinct set ever built, which is
// bounded by the number of distinct tag combinations the analyzed program
// produces.

const (
	internShards = 64
	// unionMemoShardBits sizes the memo at 1<<unionMemoShardBits shards.
	unionMemoShardBits = 6
	// unionMemoMax bounds one memo shard; on overflow the shard is
	// dropped and refilled (plain cache semantics, correctness is
	// unaffected).
	unionMemoMax = 1 << 14
	// singletonMax bounds the lock-free singleton table; larger tags take
	// the intern pool's locked path.
	singletonMax = 1 << 20
)

// chunked is a lock-free growable array indexed from 1. Chunk k of the
// fixed directory holds indices [2^k, 2^(k+1)); it is allocated on first
// use and published with a compare-and-swap, so elements never move and
// readers never lock.
type chunked[T any] struct {
	dir [32]atomic.Pointer[[]T]
}

// slot returns element i (i >= 1), allocating its chunk if needed.
func (c *chunked[T]) slot(i uint32) *T {
	k := bits.Len32(i) - 1
	p := c.dir[k].Load()
	if p == nil {
		fresh := make([]T, 1<<k)
		if c.dir[k].CompareAndSwap(nil, &fresh) {
			p = &fresh
		} else {
			p = c.dir[k].Load()
		}
	}
	return &(*p)[i-1<<k]
}

// at returns element i, or the zero T if its chunk was never allocated.
func (c *chunked[T]) at(i uint32) (v T) {
	k := bits.Len32(i) - 1
	if p := c.dir[k].Load(); p != nil {
		v = (*p)[i-1<<k]
	}
	return v
}

// hashTags is FNV-1a over the tag words, mixed per 32-bit tag.
func hashTags(tags []Tag) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, t := range tags {
		h ^= uint64(t)
		h *= prime64
	}
	return h
}

type internShard struct {
	mu sync.RWMutex
	m  map[uint64][]*Set // hash -> candidates (collision chain)
}

var (
	internPool [internShards]*internShard
	// lastID is the most recently issued set ID.
	lastID atomic.Uint32
	// byID resolves a set ID back to its canonical set. An entry is
	// written once, before its ID escapes the intern shard lock.
	byID chunked[*Set]
	// singletons maps tag+1 to the ID of the canonical one-tag set, the
	// shadow of every freshly read input byte; 0 means not yet built.
	singletons chunked[atomic.Uint32]
)

func init() {
	for i := range internPool {
		internPool[i] = &internShard{m: map[uint64][]*Set{}}
	}
	for i := range unionMemo {
		unionMemo[i] = &unionShard{m: map[uint64]uint32{}}
	}
}

// ByID returns the canonical set with the given ID: nil for ID 0 and for
// an ID no set has been given.
func ByID(id uint32) *Set {
	if id == 0 {
		return nil
	}
	return byID.at(id)
}

// singletonID returns the ID of the canonical one-tag set.
func singletonID(t Tag) uint32 {
	if t >= singletonMax {
		return intern([]Tag{t}).id
	}
	slot := singletons.slot(uint32(t) + 1)
	if id := slot.Load(); id != 0 {
		return id
	}
	// Racing builders intern the same canonical set and store the same ID.
	id := intern([]Tag{t}).id
	slot.Store(id)
	return id
}

// intern canonicalizes a sorted, deduplicated tag slice. The slice is
// adopted (not copied) when it becomes the canonical set, so callers must
// not retain it.
func intern(tags []Tag) *Set {
	if len(tags) == 0 {
		return nil
	}
	h := hashTags(tags)
	sh := internPool[h%internShards]

	sh.mu.RLock()
	if s := sh.find(h, tags); s != nil {
		sh.mu.RUnlock()
		return s
	}
	sh.mu.RUnlock()

	sh.mu.Lock()
	defer sh.mu.Unlock()
	if s := sh.find(h, tags); s != nil {
		return s
	}
	id := lastID.Add(1)
	if id == 0 {
		// 2^32 sets of at least 32 bytes each exhaust memory first.
		panic("taint: set ID space exhausted")
	}
	s := &Set{tags: tags, id: id}
	*byID.slot(id) = s
	sh.m[h] = append(sh.m[h], s)
	return s
}

// find returns the canonical set for tags under the shard lock, or nil.
func (sh *internShard) find(h uint64, tags []Tag) *Set {
	for _, cand := range sh.m[h] {
		if tagsEqual(cand.tags, tags) {
			return cand
		}
	}
	return nil
}

func tagsEqual(a, b []Tag) bool {
	if len(a) != len(b) {
		return false
	}
	for i, t := range a {
		if b[i] != t {
			return false
		}
	}
	return true
}

type unionShard struct {
	mu sync.RWMutex
	m  map[uint64]uint32 // ordered ID pair -> union ID
}

var unionMemo [1 << unionMemoShardBits]*unionShard

// unionID is Union at the ID level, the form the Word operations use.
func unionID(a, b uint32) uint32 {
	if a == 0 || a == b {
		return b
	}
	if b == 0 {
		return a
	}
	if a > b {
		a, b = b, a // (a, b) and (b, a) share one memo entry
	}
	k := uint64(a)<<32 | uint64(b)
	sh := unionMemo[(k*0x9e3779b97f4a7c15)>>(64-unionMemoShardBits)]
	sh.mu.RLock()
	u, ok := sh.m[k]
	sh.mu.RUnlock()
	if ok {
		return u
	}
	u = unionSlow(ByID(a), ByID(b)).id
	sh.mu.Lock()
	if len(sh.m) >= unionMemoMax {
		sh.m = make(map[uint64]uint32, unionMemoMax/4)
	}
	sh.m[k] = u
	sh.mu.Unlock()
	return u
}
