package sgx

import (
	"errors"
	"testing"

	"github.com/zipchannel/zipchannel/internal/victims"
	"github.com/zipchannel/zipchannel/internal/vm"
)

func TestFrameAllocator(t *testing.T) {
	fa := NewFrameAllocator(100, 3)
	a, _ := fa.Alloc()
	b, _ := fa.Alloc()
	if a == b {
		t.Error("frames should be distinct")
	}
	fa.Free(a)
	c, _ := fa.Alloc()
	if c != a {
		t.Errorf("freed frame should be reused: got %d, want %d", c, a)
	}
	if _, err := fa.Alloc(); err != nil {
		t.Errorf("third frame should still be available: %v", err)
	}
	if _, err := fa.Alloc(); !errors.Is(err, ErrNoFrames) {
		t.Errorf("pool exhaustion should return ErrNoFrames, got %v", err)
	}
}

func TestEnclaveRunsToCompletion(t *testing.T) {
	prog := victims.BzipFtabAligned()
	e, err := NewEnclave(prog, NewFrameAllocator(0x1000, 4096))
	if err != nil {
		t.Fatal(err)
	}
	e.VM.SetInput([]byte("BANANA"))
	f, faulted, err := e.Resume()
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if faulted {
		t.Fatalf("unexpected fault: %+v", f)
	}
	if !e.Halted() {
		t.Error("enclave should have halted")
	}
	// The histogram counted the input pairs: check ftab["AN"] == 2.
	ftab := prog.MustSymbol("ftab")
	j := uint64('A')<<8 | uint64('N')
	v, err := e.Mem.Load(ftab.Addr+j*4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if v != 2 {
		t.Errorf(`ftab["AN"] = %d, want 2`, v)
	}
}

func TestEnclaveMaskedFault(t *testing.T) {
	prog := victims.BzipFtabAligned()
	e, err := NewEnclave(prog, NewFrameAllocator(0x1000, 4096))
	if err != nil {
		t.Fatal(err)
	}
	e.VM.SetInput([]byte("HELLO"))
	if err := e.Protect("ftab", vm.PermRead); err != nil {
		t.Fatal(err)
	}
	f, faulted, err := e.Resume()
	if err != nil {
		t.Fatal(err)
	}
	if !faulted {
		t.Fatal("expected a fault on the ftab clear loop")
	}
	if f.PageBase%PageSize != 0 {
		t.Errorf("fault address %#x not page-masked", f.PageBase)
	}
	if !f.Write {
		t.Error("ftab clearing should fault on write")
	}
}

// An enclave exit on a permission fault allocates nothing: the VM hands
// the fault up unwrapped and Resume returns the masked fault by value.
func TestEnclaveExitDoesNotAllocate(t *testing.T) {
	prog := victims.BzipFtabAligned()
	e, err := NewEnclave(prog, NewFrameAllocator(0x1000, 4096))
	if err != nil {
		t.Fatal(err)
	}
	e.VM.SetInput([]byte("HELLO"))
	if err := e.Protect("ftab", vm.PermRead); err != nil {
		t.Fatal(err)
	}
	// The faulting store does not retire, so each Resume exits at it.
	allocs := testing.AllocsPerRun(100, func() {
		if _, faulted, err := e.Resume(); err != nil || !faulted {
			t.Fatalf("Resume = faulted %v, %v; want a fault", faulted, err)
		}
	})
	if allocs != 0 {
		t.Errorf("an enclave exit allocates %.0f times", allocs)
	}
}

func TestEnclaveRemapKeepsContents(t *testing.T) {
	prog := victims.BzipFtabAligned()
	e, err := NewEnclave(prog, NewFrameAllocator(0x1000, 4096))
	if err != nil {
		t.Fatal(err)
	}
	block := prog.MustSymbol("block")
	if err := e.Mem.WriteBytes(block.Addr, []byte("persist")); err != nil {
		t.Fatal(err)
	}
	oldFrame, _ := e.FrameOf(block.Addr)
	newFrame, err := e.RemapPage(block.Addr)
	if err != nil {
		t.Fatal(err)
	}
	if newFrame == oldFrame {
		t.Error("remap should change the frame")
	}
	got, err := e.Mem.ReadBytes(block.Addr, 7)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "persist" {
		t.Errorf("contents lost on remap: %q", got)
	}
}

func TestEnclaveProtectUnknownSymbol(t *testing.T) {
	prog := victims.ZlibInsertString()
	e, err := NewEnclave(prog, NewFrameAllocator(0x1000, 4096))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Protect("nothere", vm.PermRW); err == nil {
		t.Error("protecting an unknown symbol should error")
	}
}

func TestEnclaveOnFaultHook(t *testing.T) {
	prog := victims.BzipFtabAligned()
	e, err := NewEnclave(prog, NewFrameAllocator(0x1000, 4096))
	if err != nil {
		t.Fatal(err)
	}
	e.VM.SetInput([]byte("xy"))
	faults := 0
	e.OnFault = func() { faults++ }
	if err := e.Protect("ftab", vm.PermRead); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Resume(); err != nil {
		t.Fatal(err)
	}
	if faults != 1 {
		t.Errorf("OnFault fired %d times, want 1", faults)
	}
}

func TestEnclavePhysAddr(t *testing.T) {
	prog := victims.BzipFtabAligned()
	e, err := NewEnclave(prog, NewFrameAllocator(0x9000, 4096))
	if err != nil {
		t.Fatal(err)
	}
	block := prog.MustSymbol("block")
	pa, err := e.PhysAddr(block.Addr + 123)
	if err != nil {
		t.Fatal(err)
	}
	frame, ok := e.FrameOf(block.Addr)
	if !ok {
		t.Fatal("block page should be mapped")
	}
	want := frame*PageSize + (block.Addr+123)%PageSize
	if pa != want {
		t.Errorf("PhysAddr = %#x, want %#x", pa, want)
	}
}
