package taint

import "math/bits"

// WordBits is the width in bits of a shadow Word.
const WordBits = 64

// Word is the 64-bit shadow of a register or memory word: one tag set per
// bit, with bit 0 the least significant, held as interning IDs (Set.ID), so
// a Word contains no pointers. The zero Word is fully untainted.
//
// Alongside the per-bit IDs the word maintains mask, a bitmap of the
// positions whose set is non-empty. Every operation consults the mask
// first, so clean words cost O(1) and a typical tainted word (one input
// byte: 8 live bits) costs 8 ID operations instead of 64.
//
// Invariant: a slot whose mask bit is clear is DEAD and may hold a stale
// ID from an earlier value. That lets clearing be a mask update instead of
// a sweep — Reset is one store, and the shift/merge/truncate operations
// skip dead-slot scrubbing entirely. Everything reading a slot must check
// the mask first; within this file the mask-guided walks do so
// implicitly.
//
// The pointer-receiver Set* operations below compute in place and may
// alias their destination with a source.
type Word struct {
	mask uint64
	bits [WordBits]uint32
}

// Bit returns the tag set attached to bit i (0 = LSB).
func (w *Word) Bit(i int) *Set {
	if w.mask&(1<<uint(i)) == 0 {
		return nil
	}
	return ByID(w.bits[i])
}

// SetBit replaces the tag set attached to bit i; an empty set clears it.
func (w *Word) SetBit(i int, s *Set) {
	w.setID(i, s.ID())
}

// setID replaces bit i's set by ID; ID 0 clears the bit.
func (w *Word) setID(i int, id uint32) {
	if id == 0 {
		w.mask &^= 1 << uint(i)
		return
	}
	w.bits[i] = id
	w.mask |= 1 << uint(i)
}

// ByteIDs returns byte i's per-bit set IDs and its 8-bit slice of the live
// mask; IDs at clear mask bits are dead.
func (w *Word) ByteIDs(i int) (ids [8]uint32, mask uint8) {
	return [8]uint32(w.bits[i*8 : i*8+8]), uint8(w.mask >> uint(i*8))
}

// SetByteIDs replaces byte i with the given per-bit IDs and live mask, the
// inverse of ByteIDs.
func (w *Word) SetByteIDs(i int, ids [8]uint32, mask uint8) {
	copy(w.bits[i*8:i*8+8], ids[:])
	w.mask = w.mask&^(0xff<<uint(i*8)) | uint64(mask)<<uint(i*8)
}

// ByteUniform reports whether every live bit of byte i carries the same
// set, and returns that set's ID and the byte's live mask. A clean byte
// is uniform, with ID 0.
func (w *Word) ByteUniform(i int) (id uint32, mask uint8, ok bool) {
	mask = uint8(w.mask >> uint(i*8))
	if mask == 0 {
		return 0, 0, true
	}
	b := (*[8]uint32)(w.bits[i*8 : i*8+8])
	id = b[bits.TrailingZeros8(mask)]
	for m := mask & (mask - 1); m != 0; m &= m - 1 {
		if b[bits.TrailingZeros8(m)] != id {
			return 0, mask, false
		}
	}
	return id, mask, true
}

// SetByteUniform replaces byte i with a byte whose live bits, given by
// mask, all carry the set with the given ID: SetByteIDs for a byte that
// shadow memory stores as one ID.
func (w *Word) SetByteUniform(i int, id uint32, mask uint8) {
	b := (*[8]uint32)(w.bits[i*8 : i*8+8])
	*b = [8]uint32{id, id, id, id, id, id, id, id}
	w.mask = w.mask&^(0xff<<uint(i*8)) | uint64(mask)<<uint(i*8)
}

// Mask returns the bitmap of tainted bit positions.
func (w *Word) Mask() uint64 { return w.mask }

// IsClean reports whether no bit of the word carries taint.
func (w *Word) IsClean() bool { return w.mask == 0 }

// AnyTainted reports whether any of bits [lo, hi) carries taint.
func (w *Word) AnyTainted(lo, hi int) bool {
	if hi > WordBits {
		hi = WordBits
	}
	if lo >= hi {
		return false
	}
	span := (^uint64(0) >> uint(WordBits-(hi-lo))) << uint(lo)
	return w.mask&span != 0
}

// AllTags returns the union of every bit's tag set.
func (w *Word) AllTags() *Set { return ByID(w.allID()) }

// allID is AllTags at the ID level. Taint usually arrives in byte runs (8
// bits sharing one set), so the walk skips bits whose set is the one just
// merged or the running union — the common word costs a couple of integer
// compares per byte instead of a memoized union per bit.
func (w *Word) allID() uint32 {
	var u, last uint32
	m := w.mask
	for m != 0 {
		i := bits.TrailingZeros64(m)
		m &= m - 1
		s := w.bits[i]
		if s == last || s == u {
			continue
		}
		last = s
		u = unionID(u, s)
	}
	return u
}

// Equal reports whether two words carry identical per-bit taint.
func (w *Word) Equal(o *Word) bool {
	if w.mask != o.mask {
		return false
	}
	m := w.mask
	for m != 0 {
		i := bits.TrailingZeros64(m)
		m &= m - 1
		if w.bits[i] != o.bits[i] {
			return false
		}
	}
	return true
}

// Reset clears the word in place (dead slots keep stale IDs).
func (w *Word) Reset() {
	w.mask = 0
}

// CopyFrom makes w an exact copy of src. The IDs from the lowest to the
// highest live bit move as one block, dead slots included, which is
// cheaper than a mask walk.
func (w *Word) CopyFrom(src *Word) {
	m := src.mask
	if m != 0 {
		lo, hi := bits.TrailingZeros64(m), WordBits-bits.LeadingZeros64(m)
		copy(w.bits[lo:hi], src.bits[lo:hi])
	}
	w.mask = m
}

// TruncateIn zeroes the taint of all bits at or above width*8 in place,
// modelling a narrow (1/2/4-byte) write that discards high bits.
func (w *Word) TruncateIn(widthBytes int) {
	if widthBytes >= 8 {
		return
	}
	w.mask &= (uint64(1) << uint(widthBytes*8)) - 1
}

// SetByte makes w the shadow of a freshly read input byte carrying tag t
// in its low 8 bits.
func (w *Word) SetByte(t Tag) {
	id := singletonID(t)
	for i := 0; i < 8; i++ {
		w.bits[i] = id
	}
	w.mask = 0xff
}

// SetMergePerBit stores into w the per-bit union of a and b (w may alias
// either): TaintChannel's rule for xor, or, and and-with-two-tainted-
// operands, and the default (carry-ignoring) rule for add/sub, matching
// the per-bit layouts of the paper's Figs 2-4.
func (w *Word) SetMergePerBit(a, b *Word) {
	if a.mask == 0 {
		w.CopyFrom(b)
		return
	}
	if b.mask == 0 {
		w.CopyFrom(a)
		return
	}
	union := a.mask | b.mask
	both := a.mask & b.mask
	// Consecutive bits usually carry the same operand pair (taint spreads
	// in byte runs), so remember the last pair's union instead of hitting
	// the memo per bit.
	var la, lb, lu uint32
	m := union
	for m != 0 {
		i := bits.TrailingZeros64(m)
		bit := uint64(1) << uint(i)
		m &= m - 1
		switch {
		case both&bit != 0:
			ai, bi := a.bits[i], b.bits[i]
			if ai != la || bi != lb {
				la, lb = ai, bi
				lu = unionID(ai, bi)
			}
			w.bits[i] = lu
		case a.mask&bit != 0:
			w.bits[i] = a.bits[i]
		default:
			w.bits[i] = b.bits[i]
		}
	}
	w.mask = union
}

// SetMergeAll gives every bit of w the union of all tags of both
// operands: the conservative rule for instructions (general multiply,
// division) whose per-bit flow is not tracked.
func (w *Word) SetMergeAll(a, b *Word) {
	u := unionID(a.allID(), b.allID())
	if u == 0 {
		w.Reset()
		return
	}
	for i := 0; i < WordBits; i++ {
		w.bits[i] = u
	}
	w.mask = ^uint64(0)
}

// SetAddCarryAware stores the sound add/sub rule into w: result bit i
// depends on both operands' bits 0..i through the carry chain, so it
// receives the union of those tag sets. The paper's tool uses the per-bit
// rule instead; this mode exists as a documented ablation (DESIGN.md §2).
func (w *Word) SetAddCarryAware(a, b *Word) {
	var run uint32
	var mask uint64
	live := a.mask | b.mask
	if live == 0 {
		w.Reset()
		return
	}
	for i := 0; i < WordBits; i++ {
		bit := uint64(1) << uint(i)
		if a.mask&bit != 0 {
			run = unionID(run, a.bits[i])
		}
		if b.mask&bit != 0 {
			run = unionID(run, b.bits[i])
		}
		if run != 0 {
			w.bits[i] = run
			mask |= bit
		}
	}
	w.mask = mask
}

// SetAndMask keeps taint of a only at bit positions where the untainted
// mask value has a 1 bit: an and with a clean mask zeroes the masked-out
// bits, destroying their taint (paper §III-B, "special handling").
func (w *Word) SetAndMask(a *Word, mask uint64) {
	keep := a.mask & mask
	m := keep
	for m != 0 {
		i := bits.TrailingZeros64(m)
		m &= m - 1
		w.bits[i] = a.bits[i]
	}
	w.mask = keep
}

// SetOrMask keeps taint of a only at positions where the untainted mask
// value has a 0 bit: or-ing with a constant 1 forces the bit, destroying
// its taint.
func (w *Word) SetOrMask(a *Word, mask uint64) {
	w.SetAndMask(a, ^mask)
}

// SetShl stores a's taint shifted left by n bits into w (w may alias a);
// shifted-in bits are untainted.
func (w *Word) SetShl(a *Word, n uint) {
	if n == 0 {
		w.CopyFrom(a)
		return
	}
	if n >= WordBits {
		w.Reset()
		return
	}
	newMask := a.mask << n
	// Copy descending so w may alias a: each target reads a source n bits
	// below it, which a descending walk has not yet overwritten.
	m := newMask
	for m != 0 {
		i := WordBits - 1 - bits.LeadingZeros64(m)
		m &^= 1 << uint(i)
		w.bits[i] = a.bits[i-int(n)]
	}
	w.mask = newMask
}

// SetShr stores a's taint shifted right (logically) by n bits into w;
// shifted-in bits are untainted.
func (w *Word) SetShr(a *Word, n uint) {
	if n == 0 {
		w.CopyFrom(a)
		return
	}
	if n >= WordBits {
		w.Reset()
		return
	}
	newMask := a.mask >> n
	// Copy ascending so w may alias a: each target reads a source n bits
	// above it, which an ascending walk has not yet overwritten.
	m := newMask
	for m != 0 {
		i := bits.TrailingZeros64(m)
		m &= m - 1
		w.bits[i] = a.bits[i+int(n)]
	}
	w.mask = newMask
}

// SetSar stores a's taint shifted right arithmetically by n bits for the
// given operand width into w: the sign bit's taint is replicated into the
// shifted-in positions.
func (w *Word) SetSar(a *Word, n uint, widthBytes int) {
	if n == 0 {
		w.CopyFrom(a)
		return
	}
	top := widthBytes*8 - 1
	if int(n) > top {
		n = uint(top)
	}
	var sign uint32
	if a.mask&(1<<uint(top)) != 0 {
		sign = a.bits[top]
	}
	var scratch Word
	scratch.SetShr(a, n)
	scratch.TruncateIn(widthBytes) // drop any bits above width (none expected)
	for i := top - int(n) + 1; i <= top; i++ {
		scratch.setID(i, sign)
	}
	w.CopyFrom(&scratch)
}

// SetRol stores a's taint rotated left by n bits within the given operand
// width into w.
func (w *Word) SetRol(a *Word, n uint, widthBytes int) {
	nbits := widthBytes * 8
	n %= uint(nbits)
	var scratch Word
	for i := 0; i < nbits; i++ {
		if a.mask&(1<<uint(i)) != 0 {
			scratch.setID((i+int(n))%nbits, a.bits[i])
		}
	}
	w.CopyFrom(&scratch)
}

// Bytes splits the word into 8 per-byte shadows, little-endian.
func (w Word) Bytes() [8][8]*Set {
	var out [8][8]*Set
	m := w.mask
	for m != 0 {
		i := bits.TrailingZeros64(m)
		m &= m - 1
		out[i/8][i%8] = ByID(w.bits[i])
	}
	return out
}
