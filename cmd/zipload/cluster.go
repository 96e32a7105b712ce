package main

// Cluster-mode support for zipload: a consistent-hash router over N
// zipserverd instances, each with its own cache hierarchy, plus the
// order-insensitive response digest that proves a ring-routed cluster of
// tiered instances serves byte-for-byte the same responses as a
// single-LRU baseline. Routing is a pure function of the request (codec
// name + body), so it never consumes a client's RNG stream — the request
// sequence is identical whether it lands on 1 instance or 10.

import (
	"crypto/sha256"
	"hash/fnv"
	"sort"
	"strconv"
)

// ringVnodes is the number of virtual nodes each instance contributes to
// the hash ring. 64 keeps the max/min key-share imbalance small for the
// 2-8 instance clusters the bench target boots, while the ring stays a
// few hundred entries — one binary search per request.
const ringVnodes = 64

// ring is a consistent-hash router: a key is owned by the first virtual
// node clockwise from its hash, so resizing the cluster by one instance
// remaps only ~1/N of the key space (mod-N routing would reshuffle
// nearly all of it, flushing every instance's cache).
type ring struct {
	urls   []string
	hashes []uint64 // sorted virtual-node positions
	owner  []int    // owner[i] = index into urls of hashes[i]
}

func newRing(urls []string) *ring {
	r := &ring{urls: urls}
	if len(urls) <= 1 {
		return r // degenerate ring: everything routes to urls[0]
	}
	type vnode struct {
		h   uint64
		idx int
	}
	vns := make([]vnode, 0, len(urls)*ringVnodes)
	for i, u := range urls {
		for v := 0; v < ringVnodes; v++ {
			vns = append(vns, vnode{fnv64str(u + "#" + strconv.Itoa(v)), i})
		}
	}
	sort.Slice(vns, func(a, b int) bool { return vns[a].h < vns[b].h })
	r.hashes = make([]uint64, len(vns))
	r.owner = make([]int, len(vns))
	for i, vn := range vns {
		r.hashes[i] = vn.h
		r.owner[i] = vn.idx
	}
	return r
}

// pick returns the owning instance index for one request. The routing
// key is (codec, body) — the same material that addresses the server
// cache — so every repeat of a hot key lands on the instance that
// already holds it.
func (r *ring) pick(name string, body []byte) int {
	if len(r.urls) <= 1 {
		return 0
	}
	h := fnv.New64a()
	h.Write([]byte(name))
	h.Write([]byte{0})
	h.Write(body)
	pos := h.Sum64()
	i := sort.Search(len(r.hashes), func(j int) bool { return r.hashes[j] >= pos })
	if i == len(r.hashes) {
		i = 0 // wrap: past the last vnode, the first one owns it
	}
	return r.owner[i]
}

// owners returns the distinct instance indices owning the key's ring
// position and its successors, in ring order starting at the primary —
// the candidate list failover and hedging walk. owners(...)[0] is always
// pick(...), so health-blind callers and the degraded-mode path agree on
// the primary.
func (r *ring) owners(name string, body []byte) []int {
	if len(r.urls) <= 1 {
		return []int{0}
	}
	h := fnv.New64a()
	h.Write([]byte(name))
	h.Write([]byte{0})
	h.Write(body)
	pos := h.Sum64()
	i := sort.Search(len(r.hashes), func(j int) bool { return r.hashes[j] >= pos })
	out := make([]int, 0, len(r.urls))
	seen := make([]bool, len(r.urls))
	for k := 0; k < len(r.hashes) && len(out) < len(r.urls); k++ {
		o := r.owner[(i+k)%len(r.hashes)]
		if !seen[o] {
			seen[o] = true
			out = append(out, o)
		}
	}
	return out
}

func fnv64str(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// xorDigest folds one response body's SHA-256 into an order-insensitive
// accumulator: XOR commutes, so concurrent clients can each fold locally
// and merge at the end, and two runs that received the same multiset of
// response bodies — in any order, from any number of instances — end at
// the same value. (Pairs of identical responses cancel, but they cancel
// identically in the runs being compared; any single corrupted response
// flips the digest.)
func xorDigest(acc *[sha256.Size]byte, body []byte) {
	sum := sha256.Sum256(body)
	for i := range acc {
		acc[i] ^= sum[i]
	}
}
