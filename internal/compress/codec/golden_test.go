package codec

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"

	"github.com/zipchannel/zipchannel/internal/corpus"
)

// codecGolden is the sha256 of every registered codec's Compress output
// over goldenInputs. The experiment digests pin the compressors' work
// counts, not their bytes; this pins the bytes, so an encoder rewrite
// that changes its output fails here.
const codecGolden = "9b5dff1eda5c6d47ef240b8bcadce7e6899d4c5fc32db096e1dded1336f2fd5c"

// goldenInputs is the BrotliLike(1) corpus with each file capped at
// 4 KiB (the fallbackSort path a short bwt block takes), plus a full
// 10 KB English block that bwt sorts in mainSort and a 3 KB periodic
// block, whose identical rotations tie in fallbackSort and so decide
// the order of equal keys and with it origPtr.
func goldenInputs() [][]byte {
	var ins [][]byte
	for _, f := range corpus.BrotliLike(1) {
		ins = append(ins, f.Data[:min(len(f.Data), 4<<10)])
	}
	ins = append(ins, corpus.EnglishText(rand.New(rand.NewSource(7)), 10000))
	ins = append(ins, bytes.Repeat([]byte("zip-bwt"), 3000/7))
	return ins
}

// TestCodecGolden requires the compressed bytes of every codec to match
// the recorded digest.
func TestCodecGolden(t *testing.T) {
	h := sha256.New()
	for _, c := range All() {
		for i, in := range goldenInputs() {
			out, err := c.Compress(in)
			if err != nil {
				t.Fatalf("%s: input %d: %v", c.Name, i, err)
			}
			h.Write([]byte(c.Name))
			h.Write(out)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != codecGolden {
		t.Fatalf("compressed bytes digest = %s, want %s", got, codecGolden)
	}
}
