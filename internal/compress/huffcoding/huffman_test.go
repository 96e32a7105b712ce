package huffcoding

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBitIORoundTrip(t *testing.T) {
	var w BitWriter
	w.WriteBits(0b101, 3)
	w.WriteBits(0xff, 8)
	w.WriteBits(0, 1)
	w.WriteBits(0x12345, 20)
	r := NewBitReader(w.Bytes())
	if v, _ := r.ReadBits(3); v != 0b101 {
		t.Errorf("got %b", v)
	}
	if v, _ := r.ReadBits(8); v != 0xff {
		t.Errorf("got %x", v)
	}
	if v, _ := r.ReadBits(1); v != 0 {
		t.Errorf("got %d", v)
	}
	if v, _ := r.ReadBits(20); v != 0x12345 {
		t.Errorf("got %x", v)
	}
	if _, err := r.ReadBits(8); !errors.Is(err, ErrUnexpectedEOF) {
		t.Errorf("expected EOF, got %v", err)
	}
}

// TestBitReaderBitsLeft checks that BitsLeft counts every unread bit,
// including the ones already buffered from a partly consumed byte, and
// that it and Offset always sum to the stream length.
func TestBitReaderBitsLeft(t *testing.T) {
	r := NewBitReader([]byte{0xa5, 0x5a, 0xff})
	total := 24
	for _, n := range []uint{3, 8, 1, 12} {
		if got := r.BitsLeft(); got != total-r.Offset() {
			t.Fatalf("BitsLeft() = %d at offset %d, want %d", got, r.Offset(), total-r.Offset())
		}
		if _, err := r.ReadBits(n); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.BitsLeft(); got != 0 {
		t.Fatalf("BitsLeft() = %d after reading all 24 bits, want 0", got)
	}
	if _, err := r.ReadBits(1); !errors.Is(err, ErrUnexpectedEOF) {
		t.Fatalf("read past end: got %v, want ErrUnexpectedEOF", err)
	}
	if got := NewBitReader(nil).BitsLeft(); got != 0 {
		t.Fatalf("empty reader BitsLeft() = %d, want 0", got)
	}
}

func TestBitIOPropertyRoundTrip(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(100)
		vals := make([]uint32, n)
		widths := make([]uint, n)
		var w BitWriter
		for i := 0; i < n; i++ {
			widths[i] = 1 + uint(rng.Intn(32))
			vals[i] = rng.Uint32() & ((1 << widths[i]) - 1)
			w.WriteBits(vals[i], widths[i])
		}
		r := NewBitReader(w.Bytes())
		for i := 0; i < n; i++ {
			v, err := r.ReadBits(widths[i])
			if err != nil || v != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBuildLengthsBasic(t *testing.T) {
	freq := []int64{45, 13, 12, 16, 9, 5}
	lengths, err := BuildLengths(freq, 15)
	if err != nil {
		t.Fatal(err)
	}
	// The most frequent symbol must have the shortest code.
	for i := 1; i < len(freq); i++ {
		if lengths[0] > lengths[i] {
			t.Errorf("symbol 0 (freq 45) has longer code (%d) than symbol %d (%d)",
				lengths[0], i, lengths[i])
		}
	}
	// Kraft equality for a complete tree.
	sum := 0.0
	for _, l := range lengths {
		if l > 0 {
			sum += 1 / float64(int(1)<<l)
		}
	}
	if sum != 1.0 {
		t.Errorf("Kraft sum = %f, want 1.0", sum)
	}
}

func TestBuildLengthsSingleSymbol(t *testing.T) {
	lengths, err := BuildLengths([]int64{0, 7, 0}, 15)
	if err != nil {
		t.Fatal(err)
	}
	if lengths[1] != 1 || lengths[0] != 0 || lengths[2] != 0 {
		t.Errorf("lengths = %v", lengths)
	}
}

func TestBuildLengthsEmpty(t *testing.T) {
	if _, err := BuildLengths([]int64{0, 0}, 15); !errors.Is(err, ErrBadLengths) {
		t.Errorf("want ErrBadLengths, got %v", err)
	}
}

func TestBuildLengthsLimit(t *testing.T) {
	// Fibonacci-like frequencies force deep trees; the limiter must cap.
	freq := make([]int64, 30)
	a, b := int64(1), int64(1)
	for i := range freq {
		freq[i] = a
		a, b = b, a+b
	}
	lengths, err := BuildLengths(freq, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range lengths {
		if l > 10 {
			t.Errorf("symbol %d: length %d exceeds limit 10", i, l)
		}
		if l == 0 {
			t.Errorf("symbol %d lost its code", i)
		}
	}
	// Must still be decodable (Kraft <= 1).
	if _, err := NewDecoder(lengths); err != nil {
		t.Errorf("limited lengths are not decodable: %v", err)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nsym := 2 + rng.Intn(64)
		freq := make([]int64, nsym)
		for i := range freq {
			freq[i] = int64(rng.Intn(1000)) // some may be zero
		}
		freq[0]++ // ensure at least one
		freq[1]++ // and at least two for a real tree
		lengths, err := BuildLengths(freq, 15)
		if err != nil {
			return false
		}
		enc, err := NewEncoder(lengths)
		if err != nil {
			return false
		}
		dec, err := NewDecoder(lengths)
		if err != nil {
			return false
		}
		// Encode a random symbol stream (only symbols with codes).
		var syms []int
		for i := 0; i < 200; i++ {
			s := rng.Intn(nsym)
			if lengths[s] == 0 {
				continue
			}
			syms = append(syms, s)
		}
		var w BitWriter
		for _, s := range syms {
			if err := enc.Encode(&w, s); err != nil {
				return false
			}
		}
		r := NewBitReader(w.Bytes())
		for _, want := range syms {
			got, err := dec.Decode(r)
			if err != nil || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCanonicalCodesArePrefixFree(t *testing.T) {
	freq := []int64{10, 20, 30, 40, 5, 5, 7, 100}
	lengths, err := BuildLengths(freq, 15)
	if err != nil {
		t.Fatal(err)
	}
	codes, err := CanonicalCodes(lengths)
	if err != nil {
		t.Fatal(err)
	}
	for i := range codes {
		for j := range codes {
			if i == j || lengths[i] == 0 || lengths[j] == 0 {
				continue
			}
			li, lj := int(lengths[i]), int(lengths[j])
			if li > lj {
				continue
			}
			if codes[j]>>(uint(lj-li)) == codes[i] {
				t.Errorf("code %d (%0*b) is a prefix of code %d (%0*b)",
					i, li, codes[i], j, lj, codes[j])
			}
		}
	}
}

func TestDecoderRejectsOversubscribed(t *testing.T) {
	if _, err := NewDecoder([]uint8{1, 1, 1}); !errors.Is(err, ErrBadLengths) {
		t.Errorf("want ErrBadLengths, got %v", err)
	}
}

func TestEncodeUnusedSymbol(t *testing.T) {
	enc, err := NewEncoder([]uint8{1, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	var w BitWriter
	if err := enc.Encode(&w, 2); !errors.Is(err, ErrBadLengths) {
		t.Errorf("want ErrBadLengths, got %v", err)
	}
}
