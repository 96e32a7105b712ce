package taint

import "sync"

// The interning pool and the union memo. Both are process-wide and
// sharded: parallel experiment tasks share canonical sets (they are
// immutable), and a shard's mutex is only ever held for a hash lookup or
// a small insert, so cross-task contention stays negligible.
//
// Hash-consing gives three properties the hot path leans on:
//
//   - structural equality is pointer equality (Set.Equal fast path),
//   - Union can be memoized on the operand *pointers*: the same pair of
//     canonical sets always unions to the same canonical set,
//   - steady-state propagation (the same tag combinations recurring for
//     every input byte) performs no allocation at all.
//
// The memo is a bounded cache (a shard is reset when full), so long
// server-style processes cannot grow it without bound; the intern pool
// itself retains every distinct set ever built, which is bounded by the
// number of distinct tag combinations the analyzed program produces.

const (
	internShards    = 64
	unionMemoShards = 64
	// unionMemoMax bounds one memo shard; on overflow the shard is
	// dropped and refilled (plain cache semantics, correctness is
	// unaffected).
	unionMemoMax = 1 << 14
)

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

var internPool [internShards]*internShard

// singletonCache maps a tag to its canonical single-tag set, the shadow
// of every freshly read input byte: an RWMutex-guarded map in front of
// the general pool, so repeat lookups take only the read lock.
var singletonCache struct {
	mu sync.RWMutex
	m  map[Tag]*Set
}

func init() {
	for i := range internPool {
		internPool[i] = &internShard{m: map[uint64][]*Set{}}
	}
	singletonCache.m = map[Tag]*Set{}
}

// singleton returns the canonical one-tag set.
func singleton(t Tag) *Set {
	singletonCache.mu.RLock()
	s := singletonCache.m[t]
	singletonCache.mu.RUnlock()
	if s != nil {
		return s
	}
	s = intern([]Tag{t})
	singletonCache.mu.Lock()
	if prev := singletonCache.m[t]; prev != nil {
		s = prev
	} else {
		singletonCache.m[t] = s
	}
	singletonCache.mu.Unlock()
	return s
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
	s := &Set{tags: tags, hash: h}
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

// unionKey is an ordered operand pair; Union normalizes (a, b) and (b, a)
// to the same key so the memo is direction-independent.
type unionKey struct{ a, b *Set }

type unionShard struct {
	mu sync.RWMutex
	m  map[unionKey]*Set
}

var unionMemo [unionMemoShards]*unionShard

func init() {
	for i := range unionMemo {
		unionMemo[i] = &unionShard{m: map[unionKey]*Set{}}
	}
}

func unionMemoKey(a, b *Set) (unionKey, *unionShard) {
	if a.hash > b.hash || (a.hash == b.hash && len(a.tags) > len(b.tags)) {
		a, b = b, a
	}
	k := unionKey{a, b}
	return k, unionMemo[(a.hash^(b.hash*31))%unionMemoShards]
}

func unionMemoGet(a, b *Set) (*Set, bool) {
	k, sh := unionMemoKey(a, b)
	sh.mu.RLock()
	u, ok := sh.m[k]
	sh.mu.RUnlock()
	return u, ok
}

func unionMemoPut(a, b *Set, u *Set) {
	k, sh := unionMemoKey(a, b)
	sh.mu.Lock()
	if len(sh.m) >= unionMemoMax {
		sh.m = make(map[unionKey]*Set, unionMemoMax/4)
	}
	sh.m[k] = u
	sh.mu.Unlock()
}
