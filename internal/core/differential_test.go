package core_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"github.com/zipchannel/zipchannel/internal/core"
	"github.com/zipchannel/zipchannel/internal/isa"
	"github.com/zipchannel/zipchannel/internal/taint"
	"github.com/zipchannel/zipchannel/internal/victims"
	"github.com/zipchannel/zipchannel/internal/vm"
)

// The compiled engine's contract (DESIGN.md §12): for any program, the
// threaded-code fast path with block-level taint transfer functions must
// be observationally identical to the per-instruction interpreter — same
// machine state, same error, same leakage report, same taint histories,
// bit for bit. These tests enforce the contract differentially: every
// victim (and, in the fuzz target, random programs) runs under both
// engines and the two runs are compared field by field.

// diffRun is everything observable about one engine's execution.
type diffRun struct {
	machine *vm.VM
	ana     *core.Analyzer
	runErr  error
	mem     []byte
	report  string
}

// trackedTags is the set of input-byte tags whose propagation histories
// the differential runs record and compare.
var trackedTags = []taint.Tag{1, 2, 3, 7}

// runOneEngine runs prog on the interpreter (interp) or the compiled
// engine under a fresh analyzer.
func runOneEngine(t testing.TB, prog *isa.Program, input []byte, interp, carry bool, maxSteps uint64) *diffRun {
	t.Helper()
	machine, err := vm.NewFlat(prog)
	if err != nil {
		t.Fatalf("NewFlat(%s): %v", prog.Name, err)
	}
	machine.Interp = interp
	machine.SetInput(input)
	if maxSteps > 0 {
		machine.MaxSteps = maxSteps
	}
	tags := make(map[taint.Tag]bool, len(trackedTags))
	for _, tg := range trackedTags {
		tags[tg] = true
	}
	ana := core.New(core.Config{CarryAware: carry, MaxSamplesPerGadget: 2, TrackTags: tags})
	ana.Attach(machine)
	runErr := machine.Run()

	flat := machine.Mem.(*vm.FlatMemory)
	mem, err := flat.ReadBytes(flat.Base(), int(flat.Size()))
	if err != nil {
		t.Fatalf("ReadBytes: %v", err)
	}
	return &diffRun{
		machine: machine,
		ana:     ana,
		runErr:  runErr,
		mem:     mem,
		report:  ana.Report(prog.Name).String(),
	}
}

// compareRuns asserts that an interp run and a compiled run are
// bit-identical in every observable dimension. Analyzer state is compared
// only when both runs succeeded: on a fatal error the two engines stop
// observing at slightly different points (the compiled engine batches
// instruction counts per block), which is the one documented divergence.
func compareRuns(t testing.TB, label string, interp, compiled *diffRun) {
	t.Helper()
	if (interp.runErr == nil) != (compiled.runErr == nil) ||
		(interp.runErr != nil && interp.runErr.Error() != compiled.runErr.Error()) {
		t.Errorf("%s: run error diverged:\n  interp:   %v\n  compiled: %v", label, interp.runErr, compiled.runErr)
		return
	}

	iv, cv := interp.machine, compiled.machine
	if iv.Regs != cv.Regs {
		t.Errorf("%s: registers diverged:\n  interp:   %v\n  compiled: %v", label, iv.Regs, cv.Regs)
	}
	if iv.PC != cv.PC || iv.Halted != cv.Halted || iv.ExitCode != cv.ExitCode || iv.Steps != cv.Steps {
		t.Errorf("%s: pc/halt/exit/steps diverged: interp pc=%d halted=%v exit=%d steps=%d, compiled pc=%d halted=%v exit=%d steps=%d",
			label, iv.PC, iv.Halted, iv.ExitCode, iv.Steps, cv.PC, cv.Halted, cv.ExitCode, cv.Steps)
	}
	if iv.ZF != cv.ZF || iv.SF != cv.SF || iv.CF != cv.CF {
		t.Errorf("%s: flags diverged: interp ZF=%v SF=%v CF=%v, compiled ZF=%v SF=%v CF=%v",
			label, iv.ZF, iv.SF, iv.CF, cv.ZF, cv.SF, cv.CF)
	}
	if !bytes.Equal(iv.Output(), cv.Output()) {
		t.Errorf("%s: output diverged (%d vs %d bytes)", label, len(iv.Output()), len(cv.Output()))
	}
	if !bytes.Equal(interp.mem, compiled.mem) {
		for i := range interp.mem {
			if interp.mem[i] != compiled.mem[i] {
				t.Errorf("%s: memory diverged at offset %#x: interp %#x, compiled %#x", label, i, interp.mem[i], compiled.mem[i])
				break
			}
		}
	}

	if interp.runErr != nil {
		return // analyzer state is only comparable on successful runs
	}

	if interp.report != compiled.report {
		t.Errorf("%s: reports diverged:\n--- interp ---\n%s\n--- compiled ---\n%s", label, interp.report, compiled.report)
	}
	ia, ca := interp.ana, compiled.ana
	if ia.InstrCount() != ca.InstrCount() {
		t.Errorf("%s: instruction counts diverged: interp %d, compiled %d", label, ia.InstrCount(), ca.InstrCount())
	}
	if ia.TaintOps() != ca.TaintOps() {
		t.Errorf("%s: taint-op counts diverged: interp %d, compiled %d", label, ia.TaintOps(), ca.TaintOps())
	}
	if ia.LiveShadowBytes() != ca.LiveShadowBytes() {
		t.Errorf("%s: live shadow bytes diverged: interp %d, compiled %d", label, ia.LiveShadowBytes(), ca.LiveShadowBytes())
	}
	for r := 0; r < isa.NumRegs; r++ {
		iw, cw := ia.RegTaint(isa.Reg(r)), ca.RegTaint(isa.Reg(r))
		if iw.Mask() != cw.Mask() {
			t.Errorf("%s: r%d taint mask diverged: interp %#x, compiled %#x", label, r, iw.Mask(), cw.Mask())
			continue
		}
		for b := 0; b < 64; b++ {
			// Sets are interned, so pointer equality is set equality.
			if iw.Bit(b) != cw.Bit(b) {
				t.Errorf("%s: r%d bit %d taint diverged: interp %v, compiled %v", label, r, b, iw.Bit(b), cw.Bit(b))
			}
		}
	}
	flat := iv.Mem.(*vm.FlatMemory)
	for addr := flat.Base(); addr < flat.Base()+flat.Size(); addr++ {
		if ia.MemTaint(addr) != ca.MemTaint(addr) {
			t.Errorf("%s: memory taint diverged at %#x", label, addr)
			break
		}
	}
	for _, tg := range trackedTags {
		ih, ch := ia.History(tg), ca.History(tg)
		if len(ih) != len(ch) {
			t.Errorf("%s: tag %d history length diverged: interp %d, compiled %d", label, tg, len(ih), len(ch))
			continue
		}
		for i := range ih {
			if ih[i] != ch[i] {
				t.Errorf("%s: tag %d history[%d] diverged:\n  interp:   %+v\n  compiled: %+v", label, tg, i, ih[i], ch[i])
				break
			}
		}
	}
}

// TestEngineDifferential runs every victim under both engines and both
// taint modes and demands bit-identical results. This is the acceptance
// gate for the compiled engine: any transfer-function shortcut that
// loses a gadget, a history event, or an instruction count fails here.
func TestEngineDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	input := make([]byte, 768)
	rng.Read(input)
	short := []byte("attack at dawn: the quick brown fox jumps over the lazy dog")

	for name, prog := range victims.All() {
		for _, carry := range []bool{false, true} {
			for _, in := range [][]byte{input, short} {
				label := fmt.Sprintf("%s/carry=%v/input=%d", name, carry, len(in))
				t.Run(label, func(t *testing.T) {
					interpRun := runOneEngine(t, prog, in, true, carry, 0)
					compiledRun := runOneEngine(t, prog, in, false, carry, 0)
					compareRuns(t, label, interpRun, compiledRun)
				})
			}
		}
	}
}
