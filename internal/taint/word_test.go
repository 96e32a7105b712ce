package taint

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSetByte(t *testing.T) {
	var w Word
	w.SetByte(42)
	for i := 0; i < 8; i++ {
		if !w.Bit(i).Contains(42) {
			t.Errorf("bit %d should carry tag 42", i)
		}
	}
	for i := 8; i < WordBits; i++ {
		if !w.Bit(i).IsEmpty() {
			t.Errorf("bit %d should be clean", i)
		}
	}
	if w.IsClean() {
		t.Error("SetByte should leave the word tainted")
	}
}

func TestTruncateIn(t *testing.T) {
	var got Word
	got.SetByte(1)
	got.SetShl(&got, 12) // taint in bits 12..19
	got.TruncateIn(2)
	for i := 12; i < 16; i++ {
		if !got.Bit(i).Contains(1) {
			t.Errorf("bit %d lost taint after 2-byte truncate", i)
		}
	}
	for i := 16; i < 24; i++ {
		if !got.Bit(i).IsEmpty() {
			t.Errorf("bit %d should have been truncated", i)
		}
	}
}

func TestShlShrInverse(t *testing.T) {
	var w, round Word
	w.SetByte(7)
	round.SetShl(&w, 20)
	round.SetShr(&round, 20)
	if !round.Equal(&w) {
		t.Error("shifting low-byte taint left then right by 20 should restore it")
	}
}

func TestShlDropsHighBits(t *testing.T) {
	var w, shifted Word
	w.SetByte(3)
	shifted.SetShl(&w, 60)
	// Bits 60..63 tainted, the rest clean.
	for i := 0; i < 60; i++ {
		if !shifted.Bit(i).IsEmpty() {
			t.Errorf("bit %d should be clean after Shl 60", i)
		}
	}
	for i := 60; i < 64; i++ {
		if !shifted.Bit(i).Contains(3) {
			t.Errorf("bit %d should carry tag 3", i)
		}
	}
	var out Word
	if out.SetShl(&w, 64); !out.IsClean() {
		t.Error("Shl by 64 should clear all taint")
	}
	if out.SetShr(&w, 64); !out.IsClean() {
		t.Error("Shr by 64 should clear all taint")
	}
}

func TestSarReplicatesSignTaint(t *testing.T) {
	var w, out Word
	w.SetBit(31, NewSet(9)) // sign bit of a 4-byte operand
	out.SetSar(&w, 4, 4)
	for i := 27; i <= 31; i++ {
		if !out.Bit(i).Contains(9) {
			t.Errorf("bit %d should carry the sign taint", i)
		}
	}
	if !out.Bit(26).IsEmpty() {
		t.Error("bit 26 should be clean")
	}
}

func TestAndMask(t *testing.T) {
	var w, out Word
	w.SetByte(5)
	// Mask 0b1010: keeps bits 1 and 3 only.
	out.SetAndMask(&w, 0xA)
	if !out.Bit(1).Contains(5) || !out.Bit(3).Contains(5) {
		t.Error("bits 1 and 3 should keep taint")
	}
	if !out.Bit(0).IsEmpty() || !out.Bit(2).IsEmpty() || !out.Bit(4).IsEmpty() {
		t.Error("masked-out bits should lose taint")
	}
}

func TestOrMask(t *testing.T) {
	var w, out Word
	w.SetByte(5)
	out.SetOrMask(&w, 0x3) // bits 0,1 forced to 1, lose taint
	if !out.Bit(0).IsEmpty() || !out.Bit(1).IsEmpty() {
		t.Error("or with constant 1 should destroy taint")
	}
	if !out.Bit(2).Contains(5) {
		t.Error("bit 2 should keep taint")
	}
}

func TestMergePerBit(t *testing.T) {
	var a, b, m Word
	a.SetByte(1)
	b.SetByte(2)
	b.SetShl(&b, 4)
	m.SetMergePerBit(&a, &b)
	if !m.Bit(0).Contains(1) || m.Bit(0).Contains(2) {
		t.Error("bit 0 should carry only tag 1")
	}
	for i := 4; i < 8; i++ {
		if !m.Bit(i).Contains(1) || !m.Bit(i).Contains(2) {
			t.Errorf("bit %d should carry tags 1 and 2", i)
		}
	}
	if !m.Bit(10).Contains(2) || m.Bit(10).Contains(1) {
		t.Error("bit 10 should carry only tag 2")
	}
}

func TestMergeAll(t *testing.T) {
	var a, b, m Word
	a.SetByte(1)
	m.SetMergeAll(&a, &b)
	for i := 0; i < WordBits; i++ {
		if !m.Bit(i).Contains(1) {
			t.Errorf("bit %d should carry tag 1 after MergeAll", i)
		}
	}
	var c, d, out Word
	if out.SetMergeAll(&c, &d); !out.IsClean() {
		t.Error("MergeAll of clean words should be clean")
	}
}

func TestAddCarryAwareUpwardOnly(t *testing.T) {
	var a, b, out Word
	a.SetBit(3, NewSet(1))
	b.SetBit(5, NewSet(2))
	out.SetAddCarryAware(&a, &b)
	if !out.Bit(2).IsEmpty() {
		t.Error("bits below lowest tainted bit must stay clean")
	}
	if !out.Bit(3).Contains(1) || out.Bit(3).Contains(2) {
		t.Error("bit 3 should carry only tag 1")
	}
	if !out.Bit(4).Contains(1) {
		t.Error("carry propagates tag 1 to bit 4")
	}
	if !out.Bit(63).Contains(1) || !out.Bit(63).Contains(2) {
		t.Error("top bit should carry both tags through the carry chain")
	}
}

func TestRol(t *testing.T) {
	var w, out Word
	w.SetByte(4) // bits 0..7
	out.SetRol(&w, 3, 1)
	// 1-byte rotate left 3: bits 3..7 and 0..2 tainted (all 8 still).
	for i := 0; i < 8; i++ {
		if !out.Bit(i).Contains(4) {
			t.Errorf("bit %d should stay tainted after full-byte rotate", i)
		}
	}
	var one Word
	one.SetBit(7, NewSet(1))
	out.SetRol(&one, 1, 1)
	if !out.Bit(0).Contains(1) {
		t.Error("bit 7 should wrap to bit 0 in 1-byte rotate")
	}
}

func TestBytesRoundTrip(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var w Word
		for i := 0; i < WordBits; i++ {
			if r.Intn(3) == 0 {
				w.SetBit(i, NewSet(Tag(r.Intn(100))))
			}
		}
		bs := w.Bytes()
		var back Word
		for bi, b := range bs {
			for j, s := range b {
				back.SetBit(bi*8+j, s)
			}
		}
		// The ID-level byte copy the analyzer's memory shadow uses, in
		// reverse byte order over a stale word so dead slots differ.
		var byID Word
		byID.SetByte(Tag(r.Intn(100)))
		for i := 7; i >= 0; i-- {
			ids, mask := w.ByteIDs(i)
			byID.SetByteIDs(i, ids, mask)
		}
		return back.Equal(&w) && byID.Equal(&w)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Errorf("Bytes/SetBit or ByteIDs/SetByteIDs not inverse: %v", err)
	}
}

// TestByteUniform checks the one-ID byte write against SetBit, over a
// stale word so dead slots differ, and the uniformity test on a clean, a
// uniform and a mixed byte.
func TestByteUniform(t *testing.T) {
	s := NewSet(4, 9)
	var w Word
	w.SetByte(7)
	w.SetBit(20, NewSet(3))
	w.SetByteUniform(2, s.ID(), 0b1010_0110)
	w.SetByteUniform(0, s.ID(), 0)
	var want Word
	for i := 0; i < 8; i++ {
		if 0b1010_0110&(1<<i) != 0 {
			want.SetBit(16+i, s)
		}
	}
	if !w.Equal(&want) {
		t.Errorf("SetByteUniform: got %v, want %v", w.Bytes(), want.Bytes())
	}
	if id, mask, ok := w.ByteUniform(0); id != 0 || mask != 0 || !ok {
		t.Errorf("clean byte: ByteUniform = %d, %#x, %v", id, mask, ok)
	}
	if id, mask, ok := w.ByteUniform(2); id != s.ID() || mask != 0b1010_0110 || !ok {
		t.Errorf("uniform byte: ByteUniform = %d, %#x, %v", id, mask, ok)
	}
	w.SetBit(23, NewSet(3))
	if _, _, ok := w.ByteUniform(2); ok {
		t.Error("mixed byte reported uniform")
	}
}

func TestAnyTainted(t *testing.T) {
	var w Word
	w.SetBit(13, NewSet(2))
	if !w.AnyTainted(8, 16) {
		t.Error("range covering bit 13 should be tainted")
	}
	if w.AnyTainted(0, 8) {
		t.Error("range 0-8 should be clean")
	}
	if w.AnyTainted(14, 64) {
		t.Error("range 14-64 should be clean")
	}
}

func TestAllTags(t *testing.T) {
	var w Word
	w.SetBit(0, NewSet(1))
	w.SetBit(40, NewSet(2, 3))
	u := w.AllTags()
	for _, tag := range []Tag{1, 2, 3} {
		if !u.Contains(tag) {
			t.Errorf("AllTags missing %d", tag)
		}
	}
	if u.Len() != 3 {
		t.Errorf("AllTags len = %d, want 3", u.Len())
	}
}

// Shift laws, property-checked: Shl distributes over per-bit merge.
func TestShiftMergeCommute(t *testing.T) {
	prop := func(seed int64, nRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := uint(nRaw % 64)
		var a, b Word
		for i := 0; i < WordBits; i++ {
			if r.Intn(4) == 0 {
				a.SetBit(i, NewSet(Tag(r.Intn(8))))
			}
			if r.Intn(4) == 0 {
				b.SetBit(i, NewSet(Tag(8+r.Intn(8))))
			}
		}
		var lhs, rhs, bs Word
		lhs.SetMergePerBit(&a, &b)
		lhs.SetShl(&lhs, n)
		rhs.SetShl(&a, n)
		bs.SetShl(&b, n)
		rhs.SetMergePerBit(&rhs, &bs)
		return lhs.Equal(&rhs)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Errorf("Shl does not distribute over merge: %v", err)
	}
}
