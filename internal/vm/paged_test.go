package vm

import (
	"errors"
	"testing"

	"github.com/zipchannel/zipchannel/internal/isa"
)

func TestPagedBasicRW(t *testing.T) {
	m := NewPagedMemory()
	m.Map(4, 100, PermRW) // vaddr 0x4000 -> frame 100
	if err := m.Store(4*PageSize+8, 4, 0xdeadbeef); err != nil {
		t.Fatal(err)
	}
	v, err := m.Load(4*PageSize+8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xdeadbeef {
		t.Errorf("load = %#x", v)
	}
}

func TestPagedFaultOnPerm(t *testing.T) {
	m := NewPagedMemory()
	m.Map(1, 5, PermRead)
	if _, err := m.Load(PageSize, 1); err != nil {
		t.Fatalf("read should succeed: %v", err)
	}
	err := m.Store(PageSize+12, 1, 1)
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("want Fault, got %v", err)
	}
	if !f.Write || f.Addr != PageSize+12 {
		t.Errorf("fault = %+v", f)
	}
	// Revoking read must fault loads too.
	if err := m.Protect(1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Load(PageSize, 1); !errors.As(err, &f) {
		t.Errorf("want Fault after protect, got %v", err)
	}
	// Restore and retry.
	if err := m.Protect(1, PermRW); err != nil {
		t.Fatal(err)
	}
	if err := m.Store(PageSize+12, 1, 1); err != nil {
		t.Errorf("store after restore: %v", err)
	}
}

func TestPagedUnmapped(t *testing.T) {
	m := NewPagedMemory()
	if _, err := m.Load(0x9999, 1); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("want ErrOutOfRange, got %v", err)
	}
}

func TestPagedCrossPageRejected(t *testing.T) {
	m := NewPagedMemory()
	m.Map(0, 1, PermRW)
	m.Map(1, 2, PermRW)
	if _, err := m.Load(PageSize-2, 4); err == nil {
		t.Error("cross-page access should be rejected")
	}
}

func TestPagedRemapPreservesContents(t *testing.T) {
	m := NewPagedMemory()
	m.Map(2, 10, PermRW)
	if err := m.Store(2*PageSize+100, 8, 0x1122334455667788); err != nil {
		t.Fatal(err)
	}
	if err := m.Remap(2, 99); err != nil {
		t.Fatal(err)
	}
	v, err := m.Load(2*PageSize+100, 8)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0x1122334455667788 {
		t.Errorf("contents lost after remap: %#x", v)
	}
	if f, _ := m.FrameOf(2 * PageSize); f != 99 {
		t.Errorf("frame = %d, want 99", f)
	}
}

// An empty range protects nothing: (addr+size-1)/PageSize used to flip
// the page of addr, and at addr 0 it walked from page 0 until it hit an
// unmapped page.
func TestPagedProtectRangeEmpty(t *testing.T) {
	m := NewPagedMemory()
	m.Map(0, 1, PermRW)
	m.Map(1, 2, PermRW)
	for _, addr := range []uint64{0x1010, 0} {
		if err := m.ProtectRange(addr, 0, 0); err != nil {
			t.Errorf("ProtectRange(%#x, 0): %v", addr, err)
		}
	}
	for _, addr := range []uint64{0, PageSize + 0x10} {
		if err := m.Store(addr, 1, 1); err != nil {
			t.Errorf("store at %#x after an empty ProtectRange: %v", addr, err)
		}
	}
	// A one-byte range still protects its page.
	if err := m.ProtectRange(PageSize+0x10, 1, PermRead); err != nil {
		t.Fatal(err)
	}
	var f *Fault
	if err := m.Store(PageSize, 1, 1); !errors.As(err, &f) {
		t.Errorf("store to the protected page: got %v, want a Fault", err)
	}
}

// The dense page table grows in both directions and keeps holes unmapped.
func TestPagedTableGrowsBothWays(t *testing.T) {
	m := NewPagedMemory()
	m.Map(10, 1, PermRW)
	m.Map(13, 2, PermRW)
	m.Map(8, 3, PermRW)
	for vpn, frame := range map[uint64]uint64{8: 3, 10: 1, 13: 2} {
		if f, ok := m.FrameOf(vpn * PageSize); !ok || f != frame {
			t.Errorf("FrameOf(page %d) = %d, %v; want %d", vpn, f, ok, frame)
		}
	}
	for _, vpn := range []uint64{7, 9, 11, 12, 14} {
		if _, ok := m.FrameOf(vpn * PageSize); ok {
			t.Errorf("page %d should be unmapped", vpn)
		}
		if err := m.Protect(vpn, PermRW); err == nil {
			t.Errorf("Protect of unmapped page %d succeeded", vpn)
		}
	}
	if err := m.Store(8*PageSize, 1, 42); err != nil {
		t.Fatal(err)
	}
	if v, err := m.Load(8*PageSize, 1); err != nil || v != 42 {
		t.Errorf("load after growing down = %d, %v", v, err)
	}
}

// A permission fault is delivered without allocating.
func TestPagedFaultDoesNotAllocate(t *testing.T) {
	m := NewPagedMemory()
	m.Map(1, 5, PermRead)
	allocs := testing.AllocsPerRun(100, func() {
		if err := m.Store(PageSize, 1, 1); err == nil {
			t.Fatal("store to a read-only page succeeded")
		}
	})
	if allocs != 0 {
		t.Errorf("a permission fault allocates %.0f times", allocs)
	}
}

func TestPagedObserverSeesPhysical(t *testing.T) {
	m := NewPagedMemory()
	m.Map(3, 7, PermRW)
	var got []uint64
	m.SetObserver(func(paddr uint64, _ int, _ bool) { got = append(got, paddr) })
	if _, err := m.Load(3*PageSize+5, 1); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 7*PageSize+5 {
		t.Errorf("observer saw %#v, want [%#x]", got, 7*PageSize+5)
	}
}

func TestPagedWriteReadBytesAcrossPages(t *testing.T) {
	m := NewPagedMemory()
	m.Map(0, 1, PermRW)
	m.Map(1, 2, PermRW)
	data := make([]byte, PageSize+10)
	for i := range data {
		data[i] = byte(i)
	}
	if err := m.WriteBytes(5, data); err != nil {
		t.Fatal(err)
	}
	back, err := m.ReadBytes(5, len(data))
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if back[i] != data[i] {
			t.Fatalf("byte %d = %d, want %d", i, back[i], data[i])
		}
	}
}

// The controlled-channel pattern: run a VM on paged memory, fault on a
// protected page, restore permission, resume, and complete.
func TestVMFaultResume(t *testing.T) {
	prog := isa.MustAssemble("fault", `
.base 0x10000
.data buf 64
main:
  mov r1, 1
  st.1 [buf], 77
  mov r2, 2
  halt
`)
	m := NewPagedMemory()
	vpn := prog.DataBase / PageSize
	m.Map(vpn, 1, PermRead) // data page read-only
	// Stack page.
	v, err := New(prog, m)
	if err != nil {
		t.Fatal(err)
	}
	err = v.Run()
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("want Fault, got %v", err)
	}
	if f.Addr != prog.MustSymbol("buf").Addr {
		t.Errorf("fault addr = %#x, want buf", f.Addr)
	}
	if v.Regs[isa.R1] != 1 || v.Regs[isa.R2] != 0 {
		t.Error("fault should land between mov r1 and mov r2")
	}
	if err := m.Protect(vpn, PermRW); err != nil {
		t.Fatal(err)
	}
	if err := v.Run(); err != nil {
		t.Fatalf("resume: %v", err)
	}
	got, err := m.Load(prog.MustSymbol("buf").Addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got != 77 || v.Regs[isa.R2] != 2 {
		t.Error("store did not complete after resume")
	}
}
