package core

// Flat shadow memory. The analyzer used to keep per-byte shadows in a
// map[uint64]byteShadow; profiles put ~30% of TaintAnalysis in map
// operations, most of them deletes for clean stores (every store of an
// untainted value had to erase any stale shadow). This replaces the map
// with lazily allocated dense pages covering the machine's flat memory
// range, plus an overflow map for out-of-range addresses (paged/SGX
// memory, wild pointers), and a global count of live (tainted) shadow
// bytes so fully-clean states — the entire run before the first read
// syscall — cost one integer compare per access. The live count is also
// what the block-level transfer functions consult (blocktaint.go): while
// it is zero, memory-touching blocks are skippable.

// byteShadow is the per-memory-byte shadow: one tag-set ID per bit
// (taint.Set.ID) plus a bitmap of the non-empty positions, taint.Word's
// layout at byte grain. IDs at clear mask bits are dead. It holds no
// pointers, so neither does a shadow page: the GC never scans one.
type byteShadow struct {
	ids  [8]uint32
	mask uint8
}

// A page holds 36 bytes of shadow per byte of memory, ~36KB at 1024 bytes:
// a typical tainted input buffer allocates one or two pages, each zeroed
// on allocation, instead of zeroing a 4096-byte page's ~144KB every run.
const shadowPageBytes = 1024

type shadowPage [shadowPageBytes]byteShadow

type shadowMem struct {
	lo, hi   uint64 // dense range covered by pages
	pages    []*shadowPage
	overflow map[uint64]byteShadow
	live     int // shadow bytes with a non-empty mask, across pages and overflow

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

func (m *shadowMem) get(addr uint64) byteShadow {
	if addr >= m.lo && addr < m.hi {
		p := m.pages[(addr-m.lo)/shadowPageBytes]
		if p == nil {
			return byteShadow{}
		}
		return p[(addr-m.lo)%shadowPageBytes]
	}
	return m.overflow[addr]
}

// rangeClean reports whether no byte of [addr, addr+w) carries taint.
func (m *shadowMem) rangeClean(addr uint64, w int) bool {
	if m.live == 0 {
		return true
	}
	if end := addr + uint64(w); end >= addr && (end <= m.taintLo || addr >= m.taintHi) {
		return true // cannot intersect the ever-tainted range
	}
	for i := 0; i < w; i++ {
		if m.get(addr+uint64(i)).mask != 0 {
			return false
		}
	}
	return true
}

// set installs a non-clean shadow for addr.
func (m *shadowMem) set(addr uint64, b byteShadow) {
	if m.live == 0 || addr < m.taintLo {
		m.taintLo = addr
	}
	if m.live == 0 || addr+1 > m.taintHi {
		m.taintHi = addr + 1
	}
	if addr >= m.lo && addr < m.hi {
		pi := (addr - m.lo) / shadowPageBytes
		p := m.pages[pi]
		if p == nil {
			p = new(shadowPage)
			m.pages[pi] = p
		}
		slot := &p[(addr-m.lo)%shadowPageBytes]
		if slot.mask == 0 {
			m.live++
		}
		*slot = b
		return
	}
	if m.overflow == nil {
		m.overflow = map[uint64]byteShadow{}
	}
	if old, ok := m.overflow[addr]; !ok || old.mask == 0 {
		m.live++
	}
	m.overflow[addr] = b
}

// clear erases addr's shadow (a clean store). Never allocates.
func (m *shadowMem) clear(addr uint64) {
	if m.live == 0 || addr < m.taintLo || addr >= m.taintHi {
		return // nothing was ever tainted here
	}
	if addr >= m.lo && addr < m.hi {
		p := m.pages[(addr-m.lo)/shadowPageBytes]
		if p == nil {
			return
		}
		slot := &p[(addr-m.lo)%shadowPageBytes]
		if slot.mask != 0 {
			m.live--
			slot.mask = 0
		}
		return
	}
	if old, ok := m.overflow[addr]; ok {
		if old.mask != 0 {
			m.live--
		}
		delete(m.overflow, addr)
	}
}
