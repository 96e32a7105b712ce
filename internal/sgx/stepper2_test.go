package sgx

import (
	"errors"
	"testing"

	"github.com/zipchannel/zipchannel/internal/victims"
	"github.com/zipchannel/zipchannel/internal/vm"
)

// The two-array stepper must expose one head-table page per zlib loop
// iteration, matching the ground-truth rolling hash.
func TestStepper2SingleStepsZlib(t *testing.T) {
	prog := victims.ZlibInsertString()
	e, err := NewEnclave(prog, NewFrameAllocator(0x1000, 4096))
	if err != nil {
		t.Fatal(err)
	}
	input := []byte("pack my box with five dozen liquor jugs")
	e.VM.SetInput(input)

	st := NewStepper2(e, "window", "head", true)
	var transitions int
	st.OnTransition = func() { transitions++ }
	st.DryTransition()
	if transitions != 1 {
		t.Fatal("DryTransition should fire the hook")
	}

	page, ok, err := st.Start()
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	if !ok {
		t.Fatal("enclave halted before the loop")
	}
	head := prog.MustSymbol("head")

	// Ground-truth hash sequence.
	h := (uint32(input[0])<<5 ^ uint32(input[1])) & 0x7fff
	var wantPages []uint64
	for i := 0; i+2 < len(input); i++ {
		h = ((h << 5) ^ uint32(input[i+2])) & 0x7fff
		wantPages = append(wantPages, (head.Addr+2*uint64(h))&^(PageSize-1))
	}

	var gotPages []uint64
	for {
		gotPages = append(gotPages, page)
		var done bool
		page, done, err = st.Step(nil, nil)
		if err != nil {
			t.Fatalf("Step %d: %v", len(gotPages), err)
		}
		if done {
			break
		}
		if len(gotPages) > len(input) {
			t.Fatal("stepper did not terminate")
		}
	}
	if len(gotPages) != len(wantPages) {
		t.Fatalf("observed %d iterations, want %d", len(gotPages), len(wantPages))
	}
	for k := range wantPages {
		if gotPages[k] != wantPages[k] {
			t.Errorf("iteration %d: page %#x, want %#x", k, gotPages[k], wantPages[k])
		}
	}
}

// The load-probing variant (htab) must single-step the lzw victim and
// leave its semantics intact.
func TestStepper2LZWSemanticsPreserved(t *testing.T) {
	prog := victims.LZWHashProbe()
	e, err := NewEnclave(prog, NewFrameAllocator(0x1000, 8192))
	if err != nil {
		t.Fatal(err)
	}
	input := []byte("abcabcabc")
	e.VM.SetInput(input)
	st := NewStepper2(e, "inputbuf", "htab", false)
	_, ok, err := st.Start()
	if err != nil || !ok {
		t.Fatalf("Start: ok=%v err=%v", ok, err)
	}
	steps := 0
	for {
		_, done, err := st.Step(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		steps++
		if done {
			break
		}
		if steps > len(input)+2 {
			t.Fatal("runaway stepper")
		}
	}
	if steps != len(input)-1 {
		t.Errorf("stepped %d iterations, want %d (one per byte after the first)", steps, len(input)-1)
	}
	if !e.Halted() {
		t.Error("enclave should have halted")
	}
}

func TestStepper2StepBeforeStart(t *testing.T) {
	prog := victims.ZlibInsertString()
	e, err := NewEnclave(prog, NewFrameAllocator(0x1000, 4096))
	if err != nil {
		t.Fatal(err)
	}
	st := NewStepper2(e, "window", "head", true)
	if _, _, err := st.Step(nil, nil); !errors.Is(err, ErrProtocol) {
		t.Errorf("Step before Start should be a protocol error, got %v", err)
	}
}

func TestStepper2EmptyInputHalts(t *testing.T) {
	prog := victims.ZlibInsertString()
	e, err := NewEnclave(prog, NewFrameAllocator(0x1000, 4096))
	if err != nil {
		t.Fatal(err)
	}
	e.VM.SetInput([]byte("ab")) // too short for the loop
	st := NewStepper2(e, "window", "head", true)
	_, ok, err := st.Start()
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("2-byte input never touches head; Start should report halt")
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
