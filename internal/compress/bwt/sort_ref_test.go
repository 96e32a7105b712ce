package bwt

import (
	"bytes"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/zipchannel/zipchannel/internal/corpus"
)

// referenceFallbackSort is the previous fallbackSort: the same prefix
// doubling, but sort.Slice over rotation indices with a comparator that
// looks both ranks up (rank[(i+k)%n]) on every call. fallbackSort must
// reproduce its permutation and its Work total exactly; both sort with
// the same pdqsort, so the comparator sequence is the same.
func referenceFallbackSort(block []byte, tr Tracer) []int32 {
	n := len(block)
	if n == 0 {
		return nil
	}
	rank := make([]int32, n)
	tmp := make([]int32, n)
	idx := make([]int32, n)
	for i := 0; i < n; i++ {
		idx[i] = int32(i)
		rank[i] = int32(block[i])
	}
	work := 0
	for k := 1; ; k *= 2 {
		key := func(i int32) (int32, int32) {
			return rank[i], rank[(int(i)+k)%n]
		}
		sort.Slice(idx, func(x, y int) bool {
			ax, bx := key(idx[x])
			ay, by := key(idx[y])
			work++
			if ax != ay {
				return ax < ay
			}
			return bx < by
		})
		tmp[idx[0]] = 0
		for i := 1; i < n; i++ {
			a1, b1 := key(idx[i-1])
			a2, b2 := key(idx[i])
			tmp[idx[i]] = tmp[idx[i-1]]
			if a1 != a2 || b1 != b2 {
				tmp[idx[i]]++
			}
		}
		copy(rank, tmp)
		if int(rank[idx[n-1]]) == n-1 {
			break
		}
		if k >= n {
			break
		}
	}
	if tr != nil {
		tr.Work(work)
	}
	return idx
}

// TestFallbackSortMatchesReference requires fallbackSort to return the
// reference's permutation, ties between identical rotations included
// (they decide origPtr), and to report the same Work, on random blocks
// over 1..256 symbols, periodic blocks, all-equal blocks and 4 KiB
// blocks of the BrotliLike corpus.
func TestFallbackSortMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	var blocks [][]byte
	for i := 0; i < 150; i++ {
		b := make([]byte, 1+rng.Intn(2000))
		alpha := 1 + rng.Intn(256)
		for j := range b {
			b[j] = byte(rng.Intn(alpha))
		}
		blocks = append(blocks, b)
	}
	for _, period := range []string{"ab", "abc", "abcab", "zip-bwt", "aab"} {
		blocks = append(blocks, bytes.Repeat([]byte(period), 1+rng.Intn(600)))
	}
	for _, n := range []int{1, 2, 3, 64, 4096} {
		blocks = append(blocks, bytes.Repeat([]byte{'x'}, n))
	}
	for _, f := range corpus.BrotliLike(1) {
		blocks = append(blocks, f.Data[:min(len(f.Data), 4<<10)])
	}
	for i, block := range blocks {
		var want, got collector
		wantPtr := referenceFallbackSort(block, &want)
		gotPtr := fallbackSort(block, &got)
		if !slices.Equal(gotPtr, wantPtr) {
			t.Fatalf("block %d (%d bytes): permutation differs from the reference", i, len(block))
		}
		if got.work != want.work {
			t.Fatalf("block %d (%d bytes): Work = %d, reference %d", i, len(block), got.work, want.work)
		}
	}
}
