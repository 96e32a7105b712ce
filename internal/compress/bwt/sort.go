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

// sortBlock applies the Fig 6 control flow: full-size blocks start in
// mainSort and may abandon to fallbackSort; short blocks go straight to
// fallbackSort.
func sortBlock(block []byte, fullSize bool, workFactor int, tr Tracer) []int32 {
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
