// Package sgx simulates the enclave environment of the paper's first
// attack (§V): victim code runs on paged memory whose page tables the
// attacker (playing the malicious OS) controls. The attacker revokes page
// permissions (mprotect) to single-step the victim, receives page faults
// whose addresses are masked to page granularity (as SGX masks them), and
// remaps physical frames for the frame-selection technique (§V-C2).
package sgx

import (
	"errors"
	"fmt"

	"github.com/zipchannel/zipchannel/internal/isa"
	"github.com/zipchannel/zipchannel/internal/vm"
)

// PageSize re-exports the MMU page size.
const PageSize = vm.PageSize

// FrameAllocator hands out physical frame numbers from a bounded pool,
// modelling the limited EPC (128 MiB on the paper's platform).
type FrameAllocator struct {
	next, limit uint64
	free        []uint64
}

// NewFrameAllocator serves frames [start, start+count).
func NewFrameAllocator(start, count uint64) *FrameAllocator {
	return &FrameAllocator{next: start, limit: start + count}
}

// ErrNoFrames reports pool exhaustion — the paper's "exhaust all free
// physical pages" failure mode that bounds attack accuracy (§V-E).
var ErrNoFrames = errors.New("sgx: physical frame pool exhausted")

// Alloc returns a fresh frame number.
func (f *FrameAllocator) Alloc() (uint64, error) {
	if n := len(f.free); n > 0 {
		fr := f.free[n-1]
		f.free = f.free[:n-1]
		return fr, nil
	}
	if f.next >= f.limit {
		return 0, ErrNoFrames
	}
	fr := f.next
	f.next++
	return fr, nil
}

// Free returns a frame to the pool.
func (f *FrameAllocator) Free(frame uint64) { f.free = append(f.free, frame) }

// Remaining counts frames still available.
func (f *FrameAllocator) Remaining() int { return int(f.limit-f.next) + len(f.free) }

// MaskedFault is what the attacker's fault handler sees: SGX zeroes the
// low 12 address bits, so only the page base is architectural (§V-B).
type MaskedFault struct {
	PageBase uint64 // virtual page base of the faulting access
	Write    bool
}

// Enclave wraps a victim program running on attacker-controlled paging.
type Enclave struct {
	Prog *isa.Program
	VM   *vm.VM
	Mem  *vm.PagedMemory

	// OnFault, if set, runs whenever a fault is delivered, before Resume
	// returns: the hook where the simulation injects the kernel's
	// fault-handling cache footprint (the fixed-set SGX/OS noise of
	// §V-C2).
	OnFault func()

	frames *FrameAllocator
	// pageFrame records the current frame of each mapped virtual page.
	pageFrame map[uint64]uint64

	obs enclaveObs
}

// NewEnclave loads prog into a fresh paged address space, mapping every
// data page (plus a stack page) to frames from alloc.
func NewEnclave(prog *isa.Program, alloc *FrameAllocator) (*Enclave, error) {
	mem := vm.NewPagedMemory()
	e := &Enclave{Prog: prog, Mem: mem, frames: alloc, pageFrame: map[uint64]uint64{}}

	start := prog.DataBase / PageSize
	end := (prog.DataBase + prog.DataSize + PageSize - 1) / PageSize
	for vpn := start; vpn < end; vpn++ {
		fr, err := alloc.Alloc()
		if err != nil {
			return nil, fmt.Errorf("sgx: mapping enclave pages: %w", err)
		}
		mem.Map(vpn, fr, vm.PermRW)
		e.pageFrame[vpn] = fr
	}
	machine, err := vm.New(prog, mem)
	if err != nil {
		return nil, err
	}
	e.VM = machine
	return e, nil
}

// SetObserver routes the enclave's physical memory accesses to the cache
// simulator.
func (e *Enclave) SetObserver(o vm.AccessObserver) { e.Mem.SetObserver(o) }

// Protect changes permissions on every page of the named data symbol: the
// attack's mprotect primitive.
func (e *Enclave) Protect(symbol string, perm vm.Perm) error {
	sym, ok := e.Prog.Symbols[symbol]
	if !ok {
		return fmt.Errorf("sgx: no symbol %q in %q", symbol, e.Prog.Name)
	}
	e.obs.mprotects.Inc()
	return e.Mem.ProtectRange(sym.Addr, sym.Size, perm)
}

// Resume runs the enclave until it halts or faults. On a fault it returns
// the masked fault and faulted=true; the enclave remains resumable after
// the attacker restores permissions. faulted=false with a nil error means
// the enclave halted. The error reports real failures only, so an enclave
// exit allocates nothing.
func (e *Enclave) Resume() (f MaskedFault, faulted bool, err error) {
	err = e.VM.Run()
	if err == nil {
		return MaskedFault{}, false, nil // halted
	}
	vf, ok := err.(*vm.Fault) // the VM returns permission faults unwrapped
	if !ok {
		return MaskedFault{}, false, err
	}
	if e.OnFault != nil {
		e.OnFault()
	}
	e.obs.faults.Inc()
	pageBase := vf.Addr &^ (PageSize - 1)
	e.obs.faultPage.Observe(int64(pageBase/PageSize) - int64(e.Prog.DataBase/PageSize))
	return MaskedFault{PageBase: pageBase, Write: vf.Write}, true, nil
}

// Halted reports whether the enclave finished.
func (e *Enclave) Halted() bool { return e.VM.Halted }

// FrameOf returns the physical frame currently backing vaddr. The
// attacker runs the OS, so this is architectural knowledge.
func (e *Enclave) FrameOf(vaddr uint64) (uint64, bool) {
	return e.Mem.FrameOf(vaddr)
}

// PhysAddr translates a virtual address (attacker = OS).
func (e *Enclave) PhysAddr(vaddr uint64) (uint64, error) {
	return e.Mem.Translate(vaddr)
}

// RemapPage moves the page containing vaddr onto a fresh frame, returning
// the new frame; the old frame returns to the pool. This is the
// frame-selection move (§V-C2).
func (e *Enclave) RemapPage(vaddr uint64) (uint64, error) {
	vpn := vaddr / PageSize
	newFrame, err := e.frames.Alloc()
	if err != nil {
		return 0, err
	}
	if err := e.Mem.Remap(vpn, newFrame); err != nil {
		e.frames.Free(newFrame)
		return 0, err
	}
	if old, ok := e.pageFrame[vpn]; ok {
		e.frames.Free(old)
	}
	e.pageFrame[vpn] = newFrame
	e.obs.remaps.Inc()
	return newFrame, nil
}

// FramesRemaining exposes pool headroom (the attack gives up searching
// for quiet frames when the pool runs dry).
func (e *Enclave) FramesRemaining() int { return e.frames.Remaining() }
