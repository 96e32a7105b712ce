package bwt

import (
	"errors"
	"runtime"
	"testing"

	"github.com/zipchannel/zipchannel/internal/compress/huffcoding"
)

// craftStream writes a one-block stream declaring block length n whose
// symbol stream is syms, which must end in EOB.
func craftStream(t *testing.T, n uint32, syms []uint16) []byte {
	t.Helper()
	var w huffcoding.BitWriter
	w.WriteBits(magic, 32)
	w.WriteBits(1, 32) // blocks
	w.WriteBits(n, 32)
	w.WriteBits(0, 32) // origPtr
	if err := encodeMultiTable(&w, syms); err != nil {
		t.Fatal(err)
	}
	return w.Bytes()
}

// zeroRunBomb declares a 10-byte block but codes 24 RUNA digits, a zero
// run of 2^24-1 bytes: before the run was checked against the declared
// length, decoding its 283 bytes allocated about 119 MB, and every
// further digit doubled that.
func zeroRunBomb(t *testing.T) []byte {
	syms := make([]uint16, 25)
	syms[24] = symEOB // the rest are symRunA
	return craftStream(t, 10, syms)
}

// TestDecompressRejectsZeroRunBomb requires the bomb to fail as corrupt
// with less than 64 KiB allocated.
func TestDecompressRejectsZeroRunBomb(t *testing.T) {
	bomb := zeroRunBomb(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Decompress(bomb)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Decompress(bomb) error = %v, want ErrCorrupt", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 64<<10 {
		t.Fatalf("Decompress(bomb) allocated %d bytes, want < 64 KiB", alloc)
	}
}

// groupCountBomb is a 21-byte stream whose one block declares 2^24
// Huffman groups and then ends: the selector table was allocated from
// the declared count, 16.8 MB, before the first selector was read.
func groupCountBomb() []byte {
	var w huffcoding.BitWriter
	w.WriteBits(magic, 32)
	w.WriteBits(1, 32)  // blocks
	w.WriteBits(10, 32) // block length
	w.WriteBits(0, 32)  // origPtr
	w.WriteBits(1, 3)   // tables
	w.WriteBits(1<<24, 32)
	return w.Bytes()
}

// TestDecompressRejectsGroupCountBomb requires a group count the input
// cannot hold selectors for to fail as corrupt with less than 64 KiB
// allocated.
func TestDecompressRejectsGroupCountBomb(t *testing.T) {
	bomb := groupCountBomb()
	if len(bomb) != 21 {
		t.Fatalf("bomb is %d bytes, want 21", len(bomb))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Decompress(bomb)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Decompress(bomb) error = %v, want ErrCorrupt", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 64<<10 {
		t.Fatalf("Decompress(bomb) allocated %d bytes, want < 64 KiB", alloc)
	}
}

// TestDecompressRejectsBadSymbols covers two streams zrleEncode never
// writes: symbol 257 (MTF value 256, which used to decode silently to
// byte 0) and a literal past the declared block length.
func TestDecompressRejectsBadSymbols(t *testing.T) {
	for name, stream := range map[string][]byte{
		"symbol 257":       craftStream(t, 1, []uint16{257, symEOB}),
		"literal past end": craftStream(t, 1, []uint16{2, 3, symEOB}),
	} {
		if _, err := Decompress(stream); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: error = %v, want ErrCorrupt", name, err)
		}
	}
}
