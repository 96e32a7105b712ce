package bwt

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, src []byte, opts Options) []byte {
	t.Helper()
	comp, err := Compress(src, opts)
	if err != nil {
		t.Fatalf("Compress: %v", err)
	}
	back, err := Decompress(comp)
	if err != nil {
		t.Fatalf("Decompress: %v", err)
	}
	if !bytes.Equal(back, src) {
		t.Fatalf("round trip mismatch: got %d bytes, want %d", len(back), len(src))
	}
	return comp
}

func TestRLE1RoundTrip(t *testing.T) {
	cases := [][]byte{
		nil,
		{1},
		[]byte("abc"),
		[]byte("aaaa"),
		[]byte("aaaaa"),
		bytes.Repeat([]byte{'x'}, 255),
		bytes.Repeat([]byte{'x'}, 256),
		bytes.Repeat([]byte{'x'}, 1000),
		[]byte("aaabbbbcccccdddddddd"),
	}
	for _, src := range cases {
		enc := rle1Encode(src)
		dec, err := rle1Decode(enc)
		if err != nil {
			t.Fatalf("decode %q: %v", src, err)
		}
		if !bytes.Equal(dec, src) {
			t.Errorf("rle1 round trip failed for %d bytes", len(src))
		}
	}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(5000)
		src := make([]byte, n)
		for i := 0; i < n; {
			run := min(1+rng.Intn(400), n-i)
			b := byte(rng.Intn(4))
			for j := 0; j < run; j++ {
				src[i+j] = b
			}
			i += run
		}
		dec, err := rle1Decode(rle1Encode(src))
		return err == nil && bytes.Equal(dec, src)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMTFRoundTrip(t *testing.T) {
	prop := func(src []byte) bool {
		return bytes.Equal(mtfDecode(mtfEncode(src)), src)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestZRLERoundTrip(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(2000)
		mtf := make([]byte, n)
		for i := range mtf {
			if rng.Intn(3) > 0 {
				mtf[i] = 0 // zero-dominated, like real MTF output
			} else {
				mtf[i] = byte(1 + rng.Intn(255))
			}
		}
		syms := zrleEncode(mtf)
		dec, used, err := zrleDecode(syms, len(mtf))
		return err == nil && used == len(syms) && bytes.Equal(dec, mtf)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestInverseBWTKnownVector(t *testing.T) {
	// BANANA's BWT (rotation sort) is NNBAAA with the original at row 3.
	block := []byte("BANANA")
	ptr := fallbackSort(block, nil)
	n := len(block)
	last := make([]byte, n)
	orig := 0
	for i, p := range ptr {
		last[i] = block[(int(p)+n-1)%n]
		if p == 0 {
			orig = i
		}
	}
	if string(last) != "NNBAAA" {
		t.Errorf("BWT(BANANA) = %q, want NNBAAA", last)
	}
	if got := inverseBWT(last, orig); string(got) != "BANANA" {
		t.Errorf("inverse BWT = %q", got)
	}
}

func TestSortersAgree(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(400)
		block := make([]byte, n)
		alpha := 1 + rng.Intn(8)
		for i := range block {
			block[i] = byte(rng.Intn(alpha))
		}
		mp, err := mainSort(block, 1<<40, nil) // effectively unlimited budget
		if err != nil {
			return false
		}
		fp := fallbackSort(block, nil)
		// Rotation *content* order must agree; equal rotations may park in
		// either index order, so compare the rotations themselves.
		for i := range mp {
			if mp[i] == fp[i] {
				continue
			}
			for k := 0; k < n; k++ {
				a := block[(int(mp[i])+k)%n]
				b := block[(int(fp[i])+k)%n]
				if a != b {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestRoundTripBasic(t *testing.T) {
	cases := map[string][]byte{
		"empty":      nil,
		"one":        {9},
		"banana":     []byte("BANANA"),
		"text":       []byte(strings.Repeat("block sorting brings similar contexts together. ", 300)),
		"zeros":      make([]byte, 30000),
		"multiblock": bytes.Repeat([]byte("0123456789abcdef"), 2000), // > 3 blocks
	}
	for name, src := range cases {
		t.Run(name, func(t *testing.T) { roundTrip(t, src, Options{}) })
	}
}

func TestRoundTripRandomProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(30000)
		src := make([]byte, n)
		alpha := 1 + rng.Intn(255)
		for i := range src {
			src[i] = byte(rng.Intn(alpha))
		}
		comp, err := Compress(src, Options{})
		if err != nil {
			return false
		}
		back, err := Decompress(comp)
		return err == nil && bytes.Equal(back, src)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestCompressionRatioOnText(t *testing.T) {
	src := []byte(strings.Repeat("the burrows-wheeler transform groups similar characters. ", 600))
	comp := roundTrip(t, src, Options{})
	if len(comp) > len(src)/3 {
		t.Errorf("text compressed to %d/%d; want < 1/3", len(comp), len(src))
	}
}

// collector implements Tracer for control-flow tests.
type collector struct {
	BaseTracer
	blocks    int
	mainEnter int
	fallback  int
	abandons  int
	ftab      []uint16
	work      int
}

func (c *collector) BlockStart(int, int) { c.blocks++ }
func (c *collector) MainSortEnter()      { c.mainEnter++ }
func (c *collector) MainSortAbandon(int) { c.abandons++ }
func (c *collector) FallbackSortEnter()  { c.fallback++ }
func (c *collector) FtabInc(j uint16)    { c.ftab = append(c.ftab, j) }
func (c *collector) Work(n int)          { c.work += n }

// Fig 6: full blocks go to mainSort; the short tail goes straight to
// fallbackSort.
func TestControlFlowFullVsShortBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	src := make([]byte, 25000) // 2 full 10k blocks + 5k tail
	rng.Read(src)
	var c collector
	roundTrip(t, src, Options{Tracer: &c})
	if c.blocks != 3 {
		t.Fatalf("blocks = %d, want 3", c.blocks)
	}
	if c.mainEnter != 2 {
		t.Errorf("mainSort entries = %d, want 2 (full blocks only)", c.mainEnter)
	}
	if c.fallback != 1 {
		t.Errorf("fallbackSort entries = %d, want 1 (the tail)", c.fallback)
	}
	if c.abandons != 0 {
		t.Errorf("random data should not abandon mainSort (%d)", c.abandons)
	}
}

// Fig 6: too-repetitive full blocks abandon mainSort mid-way.
func TestControlFlowAbandonOnRepetitiveInput(t *testing.T) {
	src := bytes.Repeat([]byte("ab"), 10000) // 2 highly repetitive blocks
	var c collector
	roundTrip(t, src, Options{Tracer: &c, WorkFactor: 2})
	if c.mainEnter == 0 {
		t.Fatal("full repetitive blocks should still enter mainSort first")
	}
	if c.abandons == 0 {
		t.Error("repetitive input should abandon mainSort (Fig 6)")
	}
	if c.fallback != c.abandons {
		t.Errorf("each abandon should fall back: %d abandons, %d fallbacks", c.abandons, c.fallback)
	}
}

// The ftab trace must match Listing 3's ground truth: iteration k handles
// i = n-1-k with j = block[i]<<8 | block[(i+1)%n], over the RLE1'd block.
func TestFtabTraceMatchesGroundTruth(t *testing.T) {
	src := []byte("ILLINOIS IS REPETITIVE ENOUGH TO BE INTERESTING")
	var c collector
	// BlockSize = len(src) makes the block "full", entering mainSort
	// (short blocks go straight to fallbackSort and build no ftab).
	if _, err := Compress(src, Options{Tracer: &c, BlockSize: len(src)}); err != nil {
		t.Fatal(err)
	}
	block := rle1Encode(src)
	n := len(block)
	if len(c.ftab) != n {
		t.Fatalf("ftab trace has %d entries, want %d", len(c.ftab), n)
	}
	for k := 0; k < n; k++ {
		i := n - 1 - k
		want := uint16(block[i])<<8 | uint16(block[(i+1)%n])
		if c.ftab[k] != want {
			t.Errorf("ftab[%d] = %#x, want %#x", k, c.ftab[k], want)
		}
	}
}

func TestDecompressCorrupt(t *testing.T) {
	comp, err := Compress([]byte("some data to compress, repeated, repeated"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decompress(comp[:8]); err == nil {
		t.Error("truncated stream should fail")
	}
	bad := append([]byte(nil), comp...)
	bad[0] ^= 0xff
	if _, err := Decompress(bad); err == nil {
		t.Error("bad magic should fail")
	}
	if _, err := Decompress(nil); err == nil {
		t.Error("empty stream should fail")
	}
}

func TestWorkReported(t *testing.T) {
	var c collector
	src := bytes.Repeat([]byte("workload "), 2000)
	if _, err := Compress(src, Options{Tracer: &c}); err != nil {
		t.Fatal(err)
	}
	if c.work == 0 {
		t.Error("tracer should receive work units")
	}
}
