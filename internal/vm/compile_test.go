package vm

import (
	"testing"

	"github.com/zipchannel/zipchannel/internal/isa"
)

func mustAssemble(t *testing.T, src string) *isa.Program {
	t.Helper()
	p, err := isa.Assemble("test.zasm", src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return p
}

func TestBlocksPartition(t *testing.T) {
	// entry, a two-block loop, and an exit path: leaders are instruction
	// 0, the loop target, and the instruction after each terminator.
	p := mustAssemble(t, `
main:
  mov r1, 10
loop:
  sub r1, 1
  cmp r1, 0
  jg loop
  mov r2, 1
  halt
`)
	blocks := Blocks(p)
	if len(blocks) == 0 {
		t.Fatal("no blocks")
	}
	// Blocks must tile the program contiguously.
	if blocks[0].Start != 0 {
		t.Fatalf("first block starts at %d", blocks[0].Start)
	}
	for i := 1; i < len(blocks); i++ {
		if blocks[i].Start != blocks[i-1].End {
			t.Fatalf("gap between blocks %d and %d", i-1, i)
		}
	}
	if blocks[len(blocks)-1].End != len(p.Instrs) {
		t.Fatalf("last block ends at %d, program has %d instrs", blocks[len(blocks)-1].End, len(p.Instrs))
	}
	// Every jump target must be a block leader, and every terminator a
	// block end.
	leaders := map[int]bool{}
	for _, b := range blocks {
		leaders[b.Start] = true
	}
	for pc := range p.Instrs {
		in := &p.Instrs[pc]
		if in.Op.IsJump() && !leaders[in.Target] {
			t.Errorf("jump target %d is not a block leader", in.Target)
		}
		if isTerminator(in.Op) {
			end := false
			for _, b := range blocks {
				if b.End == pc+1 {
					end = true
				}
			}
			if !end {
				t.Errorf("terminator at pc %d does not end a block", pc)
			}
		}
	}
}

// Run takes the compiled engine on flat memory unless VM.Interp forces
// the interpreter; both retire the same instructions to the same state.
func TestEngineSelection(t *testing.T) {
	p := mustAssemble(t, `
main:
  mov r1, 3
loop:
  sub r1, 1
  cmp r1, 0
  jg loop
  halt
`)
	var steps [2]uint64
	for i, interp := range []bool{false, true} {
		v, err := NewFlat(p)
		if err != nil {
			t.Fatal(err)
		}
		v.Interp = interp
		if v.useCompiled() == interp {
			t.Fatalf("Interp=%v: useCompiled = %v", interp, v.useCompiled())
		}
		if err := v.Run(); err != nil {
			t.Fatal(err)
		}
		if v.Regs[1] != 0 || !v.Halted {
			t.Fatalf("Interp=%v: r1 = %d, halted %v", interp, v.Regs[1], v.Halted)
		}
		steps[i] = v.Steps
	}
	if steps[0] != steps[1] {
		t.Errorf("compiled retired %d instructions, interpreter %d", steps[0], steps[1])
	}
}
