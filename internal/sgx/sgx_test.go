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

// The stepper must single-step the whole loop, delivering exactly one
// ftab page per input byte, with the pages matching ground truth.
func TestStepperSingleStepsAllIterations(t *testing.T) {
	prog := victims.BzipFtabAligned()
	e, err := NewEnclave(prog, NewFrameAllocator(0x1000, 4096))
	if err != nil {
		t.Fatal(err)
	}
	input := []byte("The quick brown fox jumps over the lazy dog")
	e.VM.SetInput(input)

	st := NewStepper(e, "quadrant", "block", "ftab")
	var transitions int
	st.OnTransition = func() { transitions++ }

	ok, err := st.Start()
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	if !ok {
		t.Fatal("Start: enclave halted before the loop")
	}

	ftab := prog.MustSymbol("ftab")
	n := len(input)
	var pages []uint64
	for {
		var page uint64
		done, err := st.Step(func(p uint64) { page = p }, nil)
		if err != nil {
			t.Fatalf("Step %d: %v", len(pages), err)
		}
		pages = append(pages, page)
		if done {
			break
		}
		if len(pages) > n+1 {
			t.Fatal("stepper did not terminate")
		}
	}
	if len(pages) != n {
		t.Fatalf("observed %d iterations, want %d", len(pages), n)
	}
	// Ground truth: iteration k corresponds to i = n-1-k, j =
	// block[i]<<8 | block[(i+1)%n]; the page is of ftab.Addr + 4j.
	for k, page := range pages {
		i := n - 1 - k
		j := uint64(input[i])<<8 | uint64(input[(i+1)%n])
		want := (ftab.Addr + 4*j) &^ (PageSize - 1)
		if page != want {
			t.Errorf("iteration %d: page %#x, want %#x", k, page, want)
		}
	}
	if transitions == 0 {
		t.Error("transition hook never fired")
	}
}

// After single-stepping, the histogram must equal a natively computed one:
// stepping must not corrupt execution.
func TestStepperPreservesSemantics(t *testing.T) {
	prog := victims.BzipFtab(victims.BzipFtabOptions{FtabPad: 20})
	e, err := NewEnclave(prog, NewFrameAllocator(0x1000, 8192))
	if err != nil {
		t.Fatal(err)
	}
	input := []byte("abracadabra")
	e.VM.SetInput(input)
	st := NewStepper(e, "quadrant", "block", "ftab")
	if ok, err := st.Start(); err != nil || !ok {
		t.Fatalf("Start: ok=%v err=%v", ok, err)
	}
	for {
		done, err := st.Step(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
	}
	// Recompute expected histogram.
	n := len(input)
	want := map[uint64]uint64{}
	for i := 0; i < n; i++ {
		j := uint64(input[i])<<8 | uint64(input[(i+1)%n])
		want[j]++
	}
	ftab := prog.MustSymbol("ftab")
	for j, cnt := range want {
		got, err := e.Mem.Load(ftab.Addr+4*j, 4)
		if err != nil {
			t.Fatal(err)
		}
		if got != cnt {
			t.Errorf("ftab[%#x] = %d, want %d", j, got, cnt)
		}
	}
}

func TestStepperEmptyInput(t *testing.T) {
	prog := victims.BzipFtabAligned()
	e, err := NewEnclave(prog, NewFrameAllocator(0x1000, 4096))
	if err != nil {
		t.Fatal(err)
	}
	e.VM.SetInput(nil)
	st := NewStepper(e, "quadrant", "block", "ftab")
	ok, err := st.Start()
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("empty input should halt before the loop")
	}
	if _, err := st.Step(nil, nil); !errors.Is(err, ErrProtocol) {
		t.Errorf("Step without loop entry should be a protocol error, got %v", err)
	}
}
