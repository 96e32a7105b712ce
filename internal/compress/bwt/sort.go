package bwt

import (
	"cmp"
	"errors"
	"slices"
	"sort"
)

// errAbandon is the internal signal that mainSort's work budget was
// exhausted by a too-repetitive block (Fig 6's "abandon mainSort
// mid-way and continue with fallbackSort").
var errAbandon = errors.New("bwt: mainSort abandoned")

// FtabSize is the 2-byte-pair frequency table size (65536 pairs plus the
// cumulative-sum slot, as in bzip2's 65537-entry ftab).
const FtabSize = 65537

// mainSort sorts all rotations of block using bzip2's strategy: a
// frequency table over 2-byte prefixes (the §IV-D gadget — every
// increment is reported to the tracer), bucket placement, then per-bucket
// comparison sorting under a work budget. It returns the sorted rotation
// indices, or errAbandon when the budget is exhausted.
func mainSort(block []byte, workLimit int, tr Tracer) ([]int32, error) {
	n := len(block)
	if n == 0 {
		return nil, nil
	}

	// Listing 3: the 2-byte frequency table, built in reverse order with
	// j carrying a sliding byte pair.
	ftab := make([]int32, FtabSize)
	j := uint32(block[0]) << 8
	for i := n - 1; i >= 0; i-- {
		j = (j >> 8) | (uint32(block[i]) << 8)
		if tr != nil {
			tr.FtabInc(uint16(j))
		}
		ftab[j]++
	}
	if tr != nil {
		tr.Work(n)
	}

	// Bucket boundaries: cumulative counts.
	starts := make([]int32, FtabSize)
	var sum int32
	for k := 0; k < FtabSize; k++ {
		starts[k] = sum
		if k < FtabSize-1 {
			sum += ftab[k]
		}
	}

	// Place each rotation into its 2-byte bucket.
	ptr := make([]int32, n)
	fill := make([]int32, FtabSize)
	copy(fill, starts)
	for i := 0; i < n; i++ {
		pair := uint32(block[i])<<8 | uint32(block[(i+1)%n])
		ptr[fill[pair]] = int32(i)
		fill[pair]++
	}

	// Sort inside each bucket by full rotation order, under a budget.
	work := 0
	budget := workLimit
	var abandoned bool
	cmp := func(a, b int32) bool {
		// Compare rotations starting at a and b beyond their shared
		// 2-byte prefix.
		for k := 0; k < n; k++ {
			ca := block[(int(a)+k)%n]
			cb := block[(int(b)+k)%n]
			work++
			if ca != cb {
				return ca < cb
			}
		}
		return a < b // identical rotations: stable by index
	}
	for pair := 0; pair < FtabSize-1 && !abandoned; pair++ {
		lo, hi := starts[pair], fill[pair]
		if hi-lo <= 1 {
			continue
		}
		bucket := ptr[lo:hi]
		sort.Slice(bucket, func(x, y int) bool { return cmp(bucket[x], bucket[y]) })
		if work > budget {
			abandoned = true
		}
	}
	if tr != nil {
		tr.Work(work)
	}
	if abandoned {
		if tr != nil {
			tr.MainSortAbandon(work)
		}
		return nil, errAbandon
	}
	return ptr, nil
}

// fallbackSort is the guaranteed-progress sorter bzip2 retreats to: here a
// Manber-Myers prefix-doubling sort over rotations, O(n log^2 n)
// regardless of repetitiveness. Each round packs a rotation's rank pair
// into one key, rank[i]<<32 | rank[(i+k) mod n], sorts the previous
// round's order by it, and ranks the result by comparing neighbours.
// Work counts the sort's comparator calls.
func fallbackSort(block []byte, tr Tracer) []int32 {
	n := len(block)
	if n == 0 {
		return nil
	}
	type rotation struct {
		key uint64
		idx int32
	}
	rank := make([]int32, n)
	rots := make([]rotation, n)
	for i, b := range block {
		rank[i] = int32(b)
		rots[i].idx = int32(i)
	}
	work := 0
	for k := 1; ; k *= 2 {
		for j := range rots {
			i := int(rots[j].idx)
			rots[j].key = uint64(rank[i])<<32 | uint64(rank[(i+k)%n])
		}
		slices.SortFunc(rots, func(a, b rotation) int {
			work++
			return cmp.Compare(a.key, b.key)
		})
		r := int32(0)
		rank[rots[0].idx] = 0
		for j := 1; j < n; j++ {
			if rots[j].key != rots[j-1].key {
				r++
			}
			rank[rots[j].idx] = r
		}
		if int(r) == n-1 || k >= n {
			break
		}
	}
	if tr != nil {
		tr.Work(work)
	}
	// The ranks are spent: reuse their slice for the sorted indices.
	for j, rot := range rots {
		rank[j] = rot.idx
	}
	return rank
}

// rotationOrder sorts the rotations of block without comparisons: a
// cyclic Manber-Myers prefix doubling whose rounds are counting sorts.
// One byte-bucket pass ranks the rotations by their first byte. Each
// round then takes the order by second key, rank[i+k], straight from
// the previous order (rotation sa[j]-k mod n follows sa[j]), sorts it
// stably by first key rank[i] into the class buckets the last re-rank
// recorded, and re-ranks neighbours by the pair; it stops once all n
// ranks are distinct. The order of an aperiodic block is unique, so it
// is fallbackSort's and mainSort's. A block with a proper period has
// identical rotations, whose order is a tie-break of the comparison
// sorts: rotationOrder returns nil for it, once ranks over prefixes of
// length k >= n still tie.
func rotationOrder(block []byte) []int32 {
	n := len(block)
	if n == 0 {
		return nil
	}
	buf := make([]int32, 3*n+max(n, 256))
	sa, tmp, rank := buf[:n:n], buf[n:2*n:2*n], buf[2*n:3*n:3*n]
	start := buf[3*n:] // start[r]: where class r's bucket begins in sa
	for _, b := range block {
		start[b]++
	}
	var sum int32
	for b := range 256 {
		start[b], sum = sum, sum+start[b]
	}
	for i, b := range block {
		sa[start[b]] = int32(i)
		start[b]++
	}
	classes := rerank(sa, rank, start, func(a, b int32) bool { return block[a] != block[b] })
	for k := int32(1); int(classes) < n; k *= 2 {
		if int(k) >= n {
			return nil
		}
		for j, i := range sa {
			if i -= k; i < 0 {
				i += int32(n)
			}
			tmp[j] = i
		}
		for _, i := range tmp {
			r := rank[i]
			sa[start[r]] = i
			start[r]++
		}
		classes = rerank(sa, tmp, start, func(a, b int32) bool {
			if rank[a] != rank[b] {
				return true
			}
			if a += k; int(a) >= n {
				a -= int32(n)
			}
			if b += k; int(b) >= n {
				b -= int32(n)
			}
			return rank[a] != rank[b]
		})
		rank, tmp = tmp, rank
	}
	return sa
}

// rerank writes into rank the class of each rotation in the order sa,
// where differ reports whether neighbours belong to different classes,
// records where each class begins in start, and returns the class count.
func rerank(sa, rank, start []int32, differ func(a, b int32) bool) int32 {
	classes := int32(1)
	start[0] = 0
	rank[sa[0]] = 0
	for j := 1; j < len(sa); j++ {
		if differ(sa[j-1], sa[j]) {
			start[classes] = int32(j)
			classes++
		}
		rank[sa[j]] = classes - 1
	}
	return classes
}

// sortBlock applies the Fig 6 control flow: full-size blocks start in
// mainSort and may abandon to fallbackSort; short blocks go straight to
// fallbackSort. Only a Tracer observes that control flow and its Work,
// so an untraced block whose rotations are all distinct takes
// rotationOrder's comparison-free order instead, the same permutation.
func sortBlock(block []byte, fullSize bool, workFactor int, tr Tracer) []int32 {
	if tr == nil {
		if ptr := rotationOrder(block); ptr != nil {
			return ptr
		}
		// The block has a proper period p, a divisor of n, so p <= n/2.
		// mainSort could only abandon it when n > 2·workFactor: the
		// identical rotations i, i+p, i+2p, ... are adjacent in the
		// sorted order, a correct comparison sort compares every
		// adjacent pair of its output, and mainSort's comparator walks
		// all n bytes of two identical rotations. That is n-p >= n/2
		// such compares, work >= n²/2 > workFactor·n, and mainSort
		// abandons after the bucket that crosses its budget. Going
		// straight to fallbackSort yields the same order.
		fullSize = fullSize && len(block) <= 2*workFactor
	}
	if fullSize {
		if tr != nil {
			tr.MainSortEnter()
		}
		ptr, err := mainSort(block, workFactor*len(block), tr)
		if err == nil {
			return ptr
		}
		// Too repetitive: retreat (Fig 6).
	}
	if tr != nil {
		tr.FallbackSortEnter()
	}
	return fallbackSort(block, tr)
}
