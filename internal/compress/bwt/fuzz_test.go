package bwt

import (
	"bytes"
	"slices"
	"testing"

	"github.com/zipchannel/zipchannel/internal/corpus"
)

// FuzzRoundTrip asserts Decompress(Compress(x)) == x for arbitrary
// inputs, at the default block size and at a small one that forces
// multi-block streams (and with it the fallbackSort path for short
// tails).
func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte("a"))
	f.Add([]byte("banana banana banana"))
	f.Add(bytes.Repeat([]byte{0xaa}, 600))
	f.Add([]byte("abracadabra abracadabra abracadabra"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64<<10 {
			data = data[:64<<10]
		}
		for _, blockSize := range []int{0, 256} {
			comp, err := Compress(data, Options{BlockSize: blockSize})
			if err != nil {
				t.Fatalf("Compress(block=%d, %d bytes): %v", blockSize, len(data), err)
			}
			got, err := Decompress(comp)
			if err != nil {
				t.Fatalf("Decompress(block=%d, %d bytes): %v", blockSize, len(data), err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("round trip mismatch (block=%d): %d bytes in, %d out", blockSize, len(data), len(got))
			}
		}
	})
}

// FuzzRotationOrder checks rotationOrder against both comparison sorts:
// it must return nil exactly for a block with a proper period (one with
// identical rotations), and otherwise the permutation fallbackSort and
// an unbounded mainSort return. Inputs are capped at 1 KiB because
// mainSort's comparisons walk up to n bytes each.
func FuzzRotationOrder(f *testing.F) {
	f.Add([]byte("a"))
	f.Add([]byte("BANANA"))
	f.Add(bytes.Repeat([]byte("abcab"), 40))
	f.Add(bytes.Repeat([]byte("ab"), 300))
	f.Add(append(bytes.Repeat([]byte("ab"), 300), 'c'))
	f.Add(bytes.Repeat([]byte{0}, 700))
	for _, c := range corpus.BrotliLike(1)[:4] {
		f.Add(c.Data[:min(len(c.Data), 1<<10)])
	}
	f.Fuzz(func(t *testing.T, block []byte) {
		if len(block) == 0 {
			return
		}
		block = block[:min(len(block), 1<<10)]
		got := rotationOrder(block)
		n := len(block)
		// A rotation by s in 1..n-1 equals the block exactly when the
		// block occurs at offset s of itself doubled.
		periodic := bytes.Index(slices.Concat(block[1:], block), block) < n-1
		if (got == nil) != periodic {
			t.Fatalf("%d bytes: rotationOrder nil = %v, block periodic = %v", n, got == nil, periodic)
		}
		if periodic {
			return
		}
		if !slices.Equal(got, fallbackSort(block, nil)) {
			t.Fatalf("%d bytes: rotationOrder differs from fallbackSort", n)
		}
		main, err := mainSort(block, 1<<40, nil)
		if err != nil || !slices.Equal(got, main) {
			t.Fatalf("%d bytes: rotationOrder differs from mainSort (err %v)", n, err)
		}
	})
}
