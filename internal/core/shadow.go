package core

// Flat shadow memory. Per-byte shadows live in lazily allocated dense
// pages covering the machine's flat memory range, plus an overflow map
// for out-of-range addresses (paged/SGX memory, wild pointers), and a
// global count of live (tainted) shadow bytes so fully-clean states — the
// entire run before the first read syscall — cost one integer compare per
// access. The live count is also what the block-level transfer functions
// consult (blocktaint.go): while it is zero, memory-touching blocks are
// skippable.
//
// Each memory byte's shadow is one packed 8-byte slot. Nearly every
// tainted byte is uniform — all its live bits carry the same tag set (an
// input byte, or any byte a per-bit merge built from whole input bytes)
// — so the slot holds that one set ID and the live-bit mask, and a
// 1024-byte page is 8 KiB. A mixed byte, whose live bits carry different
// sets, sets the slot's mixed flag and keeps its eight IDs in an entry of
// the per-analyzer slab; the slot holds the entry's index. A slot that is
// already mixed reuses its entry and a cleared or uniform one frees it,
// so the slab grows only to the most mixed bytes ever alive at once.
//
// load and store fetch the page once when a w-byte access lies inside one
// dense page and walk its slots. A load writes a uniform slot straight
// into the Word (taint.Word.SetByteUniform); a store asks the Word
// whether each byte is uniform (taint.Word.ByteUniform) and copies the
// eight IDs only for a mixed one. Accesses that straddle a page or leave
// the dense range take the per-byte set/clear/slot path.

import "github.com/zipchannel/zipchannel/internal/taint"

// shadowSlot is one memory byte's packed shadow. A clean slot is the zero
// slot. It holds no pointers, so neither does a shadow page: the GC never
// scans one.
type shadowSlot struct {
	id    uint32 // the set ID of every live bit, or a mixed byte's slab index
	mask  uint8  // live bits
	mixed bool   // the live bits carry different sets, held in the slab
}

// A page holds 8 bytes of shadow per byte of memory, 8 KiB at 1024 bytes:
// a typical tainted input buffer allocates a few pages, each zeroed on
// allocation.
const shadowPageBytes = 1024

type shadowPage [shadowPageBytes]shadowSlot

type shadowMem struct {
	lo, hi   uint64 // dense range covered by pages
	pages    []*shadowPage
	overflow map[uint64]shadowSlot
	live     int // shadow bytes with a non-empty mask, across pages and overflow

	// slab holds the per-bit IDs of mixed bytes, indexed by their slots'
	// id; free lists the entries no slot uses.
	slab [][8]uint32
	free []uint32

	// taintLo/taintHi bound every address that has EVER held taint
	// (monotonic; clears do not shrink them). Addresses outside the range
	// are clean without a lookup — the fast-reject behind rangeClean,
	// which lets block skipping prove that a loop sweeping a clean table
	// (bzip2's ftab) cannot intersect the tainted input buffer.
	taintLo, taintHi uint64
}

// bound installs the dense range [lo, hi). Only effective while the
// shadow is untouched (no pages allocated, nothing in overflow); the
// analyzer calls it at Attach time with the flat memory's bounds.
func (m *shadowMem) bound(lo, hi uint64) {
	if m.pages != nil || len(m.overflow) != 0 || hi <= lo {
		return
	}
	m.lo, m.hi = lo, hi
	m.pages = make([]*shadowPage, (hi-lo+shadowPageBytes-1)/shadowPageBytes)
}

// disjoint reports whether [addr, addr+w) holds no taint without looking:
// nothing is live, or the range misses every address that ever held
// taint.
func (m *shadowMem) disjoint(addr uint64, w int) bool {
	if m.live == 0 {
		return true
	}
	end := addr + uint64(w)
	return end >= addr && (end <= m.taintLo || addr >= m.taintHi)
}

// span returns the slots of [addr, addr+w) when the range lies inside one
// dense page, and ok false when it does not. The slots are nil when the
// page was never allocated (all clean), unless alloc asks for the page.
func (m *shadowMem) span(addr uint64, w int, alloc bool) (slots []shadowSlot, ok bool) {
	if addr < m.lo || addr >= m.hi || uint64(w) > m.hi-addr {
		return nil, false
	}
	pi, off := (addr-m.lo)/shadowPageBytes, (addr-m.lo)%shadowPageBytes
	if off+uint64(w) > shadowPageBytes {
		return nil, false
	}
	p := m.pages[pi]
	if p == nil {
		if !alloc {
			return nil, true
		}
		p = new(shadowPage)
		m.pages[pi] = p
	}
	return p[off : off+uint64(w)], true
}

// slot returns addr's packed shadow.
func (m *shadowMem) slot(addr uint64) shadowSlot {
	if s, ok := m.span(addr, 1, false); ok {
		if s == nil {
			return shadowSlot{}
		}
		return s[0]
	}
	return m.overflow[addr]
}

// load sets dst to the shadow of the w bytes at addr, in its low w bytes.
func (m *shadowMem) load(dst *taint.Word, addr uint64, w int) {
	dst.Reset()
	if m.disjoint(addr, w) {
		return
	}
	if slots, ok := m.span(addr, w, false); ok {
		for i, s := range slots {
			if s.mask != 0 {
				m.unpack(dst, i, s)
			}
		}
		return
	}
	for i := 0; i < w; i++ {
		if s := m.slot(addr + uint64(i)); s.mask != 0 {
			m.unpack(dst, i, s)
		}
	}
}

// unpack writes the non-clean slot s into byte i of dst.
func (m *shadowMem) unpack(dst *taint.Word, i int, s shadowSlot) {
	if s.mixed {
		dst.SetByteIDs(i, m.slab[s.id], s.mask)
		return
	}
	dst.SetByteUniform(i, s.id, s.mask)
}

// store makes the low w bytes of word the shadow of [addr, addr+w).
func (m *shadowMem) store(addr uint64, w int, word *taint.Word) {
	mask := word.Mask()
	if w < 8 {
		mask &= 1<<uint(w*8) - 1
	}
	if mask == 0 && m.disjoint(addr, w) {
		return
	}
	if slots, ok := m.span(addr, w, mask != 0); ok {
		for i := range slots {
			if uint8(mask>>uint(i*8)) == 0 {
				m.erase(&slots[i])
				continue
			}
			m.mark(addr + uint64(i))
			m.put(&slots[i], word, i)
		}
		return
	}
	for i := 0; i < w; i++ {
		if uint8(mask>>uint(i*8)) == 0 {
			m.clear(addr + uint64(i))
			continue
		}
		m.set(addr+uint64(i), word, i)
	}
}

// rangeClean reports whether no byte of [addr, addr+w) carries taint.
func (m *shadowMem) rangeClean(addr uint64, w int) bool {
	if m.disjoint(addr, w) {
		return true
	}
	if slots, ok := m.span(addr, w, false); ok {
		for _, s := range slots {
			if s.mask != 0 {
				return false
			}
		}
		return true
	}
	for i := 0; i < w; i++ {
		if m.slot(addr+uint64(i)).mask != 0 {
			return false
		}
	}
	return true
}

// mark widens the ever-tainted range to cover addr, which is about to
// take a non-clean shadow.
func (m *shadowMem) mark(addr uint64) {
	if m.live == 0 || addr < m.taintLo {
		m.taintLo = addr
	}
	if m.live == 0 || addr+1 > m.taintHi {
		m.taintHi = addr + 1
	}
}

// set makes the non-clean byte i of word addr's shadow.
func (m *shadowMem) set(addr uint64, word *taint.Word, i int) {
	m.mark(addr)
	if s, ok := m.span(addr, 1, true); ok {
		m.put(&s[0], word, i)
		return
	}
	if m.overflow == nil {
		m.overflow = map[uint64]shadowSlot{}
	}
	s := m.overflow[addr]
	m.put(&s, word, i)
	m.overflow[addr] = s
}

// clear erases addr's shadow (a clean store). Never allocates.
func (m *shadowMem) clear(addr uint64) {
	if m.disjoint(addr, 1) {
		return // nothing was ever tainted here
	}
	if s, ok := m.span(addr, 1, false); ok {
		if s != nil {
			m.erase(&s[0])
		}
		return
	}
	if s, ok := m.overflow[addr]; ok {
		m.erase(&s)
		delete(m.overflow, addr)
	}
}

// put stores the non-clean byte i of word in slot s: a uniform byte in
// the slot itself, a mixed one in the slab.
func (m *shadowMem) put(s *shadowSlot, word *taint.Word, i int) {
	if s.mask == 0 {
		m.live++
	}
	id, mask, ok := word.ByteUniform(i)
	if ok {
		m.release(s)
		*s = shadowSlot{id: id, mask: mask}
		return
	}
	if !s.mixed {
		*s = shadowSlot{id: m.newEntry(), mixed: true}
	}
	m.slab[s.id], s.mask = word.ByteIDs(i)
}

// erase makes slot s clean.
func (m *shadowMem) erase(s *shadowSlot) {
	if s.mask != 0 {
		m.live--
		m.release(s)
		*s = shadowSlot{}
	}
}

// newEntry returns an unused slab entry, reusing a freed one first.
func (m *shadowMem) newEntry() uint32 {
	if n := len(m.free); n > 0 {
		e := m.free[n-1]
		m.free = m.free[:n-1]
		return e
	}
	m.slab = append(m.slab, [8]uint32{})
	return uint32(len(m.slab) - 1)
}

// release frees the slab entry of a mixed slot s.
func (m *shadowMem) release(s *shadowSlot) {
	if s.mixed {
		m.free = append(m.free, s.id)
	}
}
