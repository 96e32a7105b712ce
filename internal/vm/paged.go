package vm

import "fmt"

// Perm is a page permission bitmask.
type Perm uint8

// Page permissions.
const (
	PermRead Perm = 1 << iota
	PermWrite
	PermRW = PermRead | PermWrite
)

// PTE maps one virtual page to a physical frame with permissions.
type PTE struct {
	Frame uint64 // physical frame number
	Perm  Perm
	Valid bool
}

// AccessObserver sees every physical access the paged memory performs; the
// cache simulator attaches here so that victim accesses populate and evict
// cache lines.
type AccessObserver func(paddr uint64, width int, write bool)

// PagedMemory is virtual memory with per-page permissions backed by
// physical frames, the substrate for the SGX controlled-channel attack:
// the attacker revokes page permissions (mprotect) and observes faults.
//
// The page table is dense: one slot per page from the lowest to the
// highest mapped page, so a lookup is an index, not a map probe. Map a
// compact range; Map panics when the table would span more than
// maxTableSpan pages.
//
// A permission fault is returned as a pointer to a Fault the memory owns
// and overwrites at the next fault, so delivering one allocates nothing.
// Copy the fields out to keep them past the next access.
type PagedMemory struct {
	base     uint64 // vpn of slots[0]
	slots    []slot
	frames   map[uint64][]byte // frame -> backing store
	observer AccessObserver
	fault    Fault
}

// slot is one page-table entry with its frame's backing store.
type slot struct {
	pte PTE
	mem []byte // frames[pte.Frame]
}

// maxTableSpan bounds the dense page table: 1<<20 pages is 4 GiB of
// virtual space and ~40 MB of slots.
const maxTableSpan = 1 << 20

// NewPagedMemory returns an empty address space.
func NewPagedMemory() *PagedMemory {
	return &PagedMemory{frames: map[uint64][]byte{}}
}

// page returns the valid slot of vpn, or nil when vpn is unmapped.
func (m *PagedMemory) page(vpn uint64) *slot {
	// A vpn below base wraps to a huge index and fails the bound.
	if i := vpn - m.base; i < uint64(len(m.slots)) && m.slots[i].pte.Valid {
		return &m.slots[i]
	}
	return nil
}

// frame returns the backing store of a frame, allocating it on first use.
func (m *PagedMemory) frame(frame uint64) []byte {
	mem, ok := m.frames[frame]
	if !ok {
		mem = make([]byte, PageSize)
		m.frames[frame] = mem
	}
	return mem
}

// SetObserver installs the physical-access observer (nil to remove).
func (m *PagedMemory) SetObserver(o AccessObserver) { m.observer = o }

// Map installs a mapping from the virtual page containing vaddr to the
// given physical frame, allocating the frame's backing store if needed.
func (m *PagedMemory) Map(vpn, frame uint64, perm Perm) {
	if len(m.slots) == 0 {
		m.base = vpn
	}
	n := uint64(len(m.slots))
	if max(vpn+1, m.base+n)-min(vpn, m.base) > maxTableSpan {
		panic(fmt.Sprintf("vm: mapping page %#x spans more than %d pages", vpn, maxTableSpan))
	}
	switch {
	case vpn < m.base:
		slots := make([]slot, m.base-vpn+n)
		copy(slots[m.base-vpn:], m.slots)
		m.base, m.slots = vpn, slots
	case vpn-m.base >= n: // appending amortizes ascending Maps
		m.slots = append(m.slots, make([]slot, vpn-m.base+1-n)...)
	}
	m.slots[vpn-m.base] = slot{pte: PTE{Frame: frame, Perm: perm, Valid: true}, mem: m.frame(frame)}
}

// Remap moves the virtual page vpn to a new physical frame, copying the
// page contents. This is the attacker's frame-selection primitive (§V-C2).
func (m *PagedMemory) Remap(vpn, newFrame uint64) error {
	s := m.page(vpn)
	if s == nil {
		return fmt.Errorf("vm: remap of unmapped page %#x", vpn)
	}
	mem := m.frame(newFrame)
	copy(mem, s.mem)
	s.pte.Frame, s.mem = newFrame, mem
	return nil
}

// Protect changes the permissions of the page containing vaddr; the
// simulated mprotect.
func (m *PagedMemory) Protect(vpn uint64, perm Perm) error {
	s := m.page(vpn)
	if s == nil {
		return fmt.Errorf("vm: protect of unmapped page %#x", vpn)
	}
	s.pte.Perm = perm
	return nil
}

// ProtectRange applies Protect to every page overlapping [addr, addr+size).
// An empty range protects nothing.
func (m *PagedMemory) ProtectRange(addr, size uint64, perm Perm) error {
	if size == 0 {
		return nil
	}
	for vpn := addr / PageSize; vpn <= (addr+size-1)/PageSize; vpn++ {
		if err := m.Protect(vpn, perm); err != nil {
			return err
		}
	}
	return nil
}

// Translate returns the physical address for vaddr, ignoring permissions.
func (m *PagedMemory) Translate(vaddr uint64) (uint64, error) {
	s := m.page(vaddr / PageSize)
	if s == nil {
		return 0, fmt.Errorf("%w: unmapped %#x", ErrOutOfRange, vaddr)
	}
	return s.pte.Frame*PageSize + vaddr%PageSize, nil
}

// FrameOf returns the physical frame backing vaddr's page.
func (m *PagedMemory) FrameOf(vaddr uint64) (uint64, bool) {
	s := m.page(vaddr / PageSize)
	if s == nil {
		return 0, false
	}
	return s.pte.Frame, true
}

func (m *PagedMemory) access(addr uint64, width int, write bool) ([]byte, error) {
	vpn := addr / PageSize
	off := addr % PageSize
	if off+uint64(width) > PageSize {
		// Split accesses across pages are not generated by our victims;
		// reject them loudly rather than mis-model them.
		return nil, fmt.Errorf("%w: access at %#x crosses page boundary", ErrOutOfRange, addr)
	}
	s := m.page(vpn)
	if s == nil {
		return nil, fmt.Errorf("%w: unmapped %#x", ErrOutOfRange, addr)
	}
	need := PermRead
	if write {
		need = PermWrite
	}
	if s.pte.Perm&need == 0 {
		m.fault = Fault{Addr: addr, Write: write}
		return nil, &m.fault
	}
	if m.observer != nil {
		m.observer(s.pte.Frame*PageSize+off, width, write)
	}
	return s.mem[off:], nil
}

// Load implements Memory.
func (m *PagedMemory) Load(addr uint64, width int) (uint64, error) {
	b, err := m.access(addr, width, false)
	if err != nil {
		return 0, err
	}
	return leLoad(b, width), nil
}

// Store implements Memory.
func (m *PagedMemory) Store(addr uint64, width int, val uint64) error {
	b, err := m.access(addr, width, true)
	if err != nil {
		return err
	}
	leStore(b, width, val)
	return nil
}

// WriteBytes copies raw bytes in, ignoring permissions and the observer
// (enclave initialization).
func (m *PagedMemory) WriteBytes(addr uint64, b []byte) error {
	for len(b) > 0 {
		s := m.page(addr / PageSize)
		if s == nil {
			return fmt.Errorf("%w: unmapped %#x", ErrOutOfRange, addr)
		}
		n := copy(s.mem[addr%PageSize:], b)
		b = b[n:]
		addr += uint64(n)
	}
	return nil
}

// ReadBytes copies raw bytes out, ignoring permissions and the observer.
func (m *PagedMemory) ReadBytes(addr uint64, size int) ([]byte, error) {
	out := make([]byte, 0, size)
	for size > 0 {
		s := m.page(addr / PageSize)
		if s == nil {
			return nil, fmt.Errorf("%w: unmapped %#x", ErrOutOfRange, addr)
		}
		off := addr % PageSize
		n := min(PageSize-off, uint64(size))
		out = append(out, s.mem[off:off+n]...)
		size -= int(n)
		addr += n
	}
	return out, nil
}
