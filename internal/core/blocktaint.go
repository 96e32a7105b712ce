package core

import (
	"math/bits"
	"sync"

	"github.com/zipchannel/zipchannel/internal/isa"
	"github.com/zipchannel/zipchannel/internal/taint"
	"github.com/zipchannel/zipchannel/internal/vm"
)

// Block-level taint transfer functions. For each basic block of the
// program (vm.Blocks — the same partition the compiled engine dispatches
// on, so block IDs agree) the analyzer precomputes a taint.Transfer
// summarizing what its precise per-instruction path would do to shadow
// state. At run time the VM's compiled engine asks the analyzer, via the
// OnBlock hook, whether the upcoming block needs precise observation;
// when the transfer function proves the block is a taint no-op for the
// current shadow state, the analyzer applies the summary (instruction
// count, flag latch, register resets) and lets the block run on the
// uninstrumented threaded fast path.
//
// The summary must mirror analyzer.step exactly. The subtleties, each
// load-bearing for bit-identical reports:
//
//   - "Touch reads": step consults the destination's old shadow to decide
//     whether an instruction touched taint (taintOps, reduced trace), so
//     every written register is also a read at the writing instruction.
//     ReadRegs tracks live-in reads — reads before an earlier in-block
//     write — because in-block writes store provably clean shadows.
//   - Flag setters are cmp/test and the ALU ops except the xor r,r
//     zeroing idiom (aluTaint returns before touching the flag latch) and
//     not/neg (no flag update in the analyzer, unlike the VM).
//   - A conditional jump with no preceding in-block flag setter observes
//     the latch from before the block (StaleFlagJump); one after an
//     in-block setter always sees clean flags when inputs are clean.
//   - Syscalls are the taint source and end their block (vm.Blocks), and
//     their block never skips.
//   - Stores of clean values clear stale shadow bytes, so TouchesMem
//     covers writes (st/push/call) as well as loads (ld/pop/ALU-to-mem).
//     A memory-touching block can still skip while tainted shadow bytes
//     exist IF every access's effective address is computable at block
//     entry (its base/index registers are not written by an earlier
//     in-block instruction — "entry-resolvable") and the concrete
//     footprint provably misses every tainted byte (shadowMem.rangeClean,
//     backstopped by the ever-tainted address range). This is what lets
//     bzip2's 64K-iteration ftab-clearing loop, which runs AFTER the
//     tainted input is read, stay on the fast path: each iteration's
//     store lands provably outside the tainted input buffer. Blocks with
//     a non-resolvable access (including push/pop/call, whose SP-relative
//     addresses shift within the block) run precise while any shadow
//     memory is live.

// memAccess is one entry-resolvable data access of a block, with its
// MemRef pre-decoded (scale as a shift, like the VM's own decoder) so the
// per-entry footprint check indexes v.Regs directly instead of paying
// EffectiveAddr's flag branches on every loop iteration.
type memAccess struct {
	hasBase  bool
	hasIndex bool
	base     isa.Reg
	index    isa.Reg
	shift    uint8
	disp     uint64
	width    int
}

func decodeAccess(m isa.MemRef, w int) memAccess {
	ma := memAccess{hasBase: m.HasBase, hasIndex: m.HasIndex, disp: uint64(m.Disp), width: w}
	if m.HasBase {
		ma.base = m.Base
	}
	if m.HasIndex {
		ma.index = m.Index
		ma.shift = uint8(bits.TrailingZeros8(m.Scale))
	}
	return ma
}

// addr computes the access's effective address; it must agree with
// VM.EffectiveAddr (scale restricted to 1/2/4/8 by the assembler).
func (ma *memAccess) addr(v *vm.VM) uint64 {
	ea := ma.disp
	if ma.hasBase {
		ea += v.Regs[ma.base]
	}
	if ma.hasIndex {
		ea += v.Regs[ma.index] << ma.shift
	}
	return ea
}

// blockEntry is one basic block's skip record: its Transfer plus, when
// every access is entry-resolvable (memExact), the accesses to
// range-check at entry. A block with memExact=false and TouchesMem only
// skips while no shadow memory is live at all.
type blockEntry struct {
	t        taint.Transfer
	mem      []memAccess
	memExact bool
}

// blockTable is the per-program skip table, indexed like vm.Blocks.
type blockTable struct {
	entries []blockEntry
}

// transferCache memoizes per-program transfer tables, like the VM's
// decode and block caches: programs are assembled once and never mutated.
var transferCache sync.Map // *isa.Program -> *blockTable

func transfersFor(p *isa.Program) *blockTable {
	if t, ok := transferCache.Load(p); ok {
		return t.(*blockTable)
	}
	blocks := vm.Blocks(p)
	tab := &blockTable{entries: make([]blockEntry, len(blocks))}
	for i, b := range blocks {
		tab.entries[i].t, tab.entries[i].mem, tab.entries[i].memExact = computeTransfer(p, b)
	}
	actual, _ := transferCache.LoadOrStore(p, tab)
	return actual.(*blockTable)
}

func computeTransfer(p *isa.Program, b vm.Block) (taint.Transfer, []memAccess, bool) {
	t := taint.Transfer{Len: b.End - b.Start, FlagPC: -1}
	var written uint16
	var mem []memAccess
	exact := true
	access := func(m isa.MemRef, w int) {
		if (m.HasBase && written&(1<<uint(m.Base)) != 0) ||
			(m.HasIndex && written&(1<<uint(m.Index)) != 0) {
			exact = false // address depends on an in-block write
			return
		}
		mem = append(mem, decodeAccess(m, w))
	}
	read := func(r isa.Reg) {
		if written&(1<<uint(r)) == 0 {
			t.ReadRegs |= 1 << uint(r)
		}
	}
	readMem := func(m isa.MemRef) {
		if m.HasBase {
			read(m.Base)
		}
		if m.HasIndex {
			read(m.Index)
		}
	}
	readSrc := func(o isa.Operand) {
		if o.Kind == isa.KindReg {
			read(o.Reg)
		}
	}
	write := func(r isa.Reg) {
		written |= 1 << uint(r)
		t.WriteRegs |= 1 << uint(r)
	}

	for pc := b.Start; pc < b.End; pc++ {
		in := &p.Instrs[pc]
		switch in.Op {
		case isa.OpNop, isa.OpJmp, isa.OpRet, isa.OpHalt:
			// No analyzer effect (ret's stack read has no shadow read in
			// the precise path either).

		case isa.OpSyscall:
			t.HasSyscall = true

		case isa.OpMov:
			readSrc(in.Src)
			read(in.Dst.Reg) // touch read
			write(in.Dst.Reg)

		case isa.OpLea:
			readMem(in.Src.Mem)
			read(in.Dst.Reg)
			write(in.Dst.Reg)

		case isa.OpLd:
			readMem(in.Src.Mem)
			read(in.Dst.Reg)
			t.TouchesMem = true
			access(in.Src.Mem, int(in.Width))
			write(in.Dst.Reg)

		case isa.OpSt:
			readMem(in.Dst.Mem)
			readSrc(in.Src)
			t.TouchesMem = true
			access(in.Dst.Mem, int(in.Width))

		case isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpDiv, isa.OpMod,
			isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpShl, isa.OpShr, isa.OpSar, isa.OpRol:
			if in.Op == isa.OpXor && in.Dst.Kind == isa.KindReg &&
				in.Src.Kind == isa.KindReg && in.Dst.Reg == in.Src.Reg {
				// Zeroing idiom: clean result, flag latch untouched.
				read(in.Dst.Reg)
				write(in.Dst.Reg)
				break
			}
			readSrc(in.Src)
			if in.Dst.Kind == isa.KindMem {
				readMem(in.Dst.Mem)
				t.TouchesMem = true
				access(in.Dst.Mem, int(in.Width))
			} else {
				read(in.Dst.Reg)
				write(in.Dst.Reg)
			}
			t.FlagPC = int32(pc)

		case isa.OpNot, isa.OpNeg:
			// Truncates the dst shadow in place; no flag latch update.
			read(in.Dst.Reg)
			write(in.Dst.Reg)

		case isa.OpCmp, isa.OpTest:
			read(in.Dst.Reg)
			readSrc(in.Src)
			t.FlagPC = int32(pc)

		case isa.OpJe, isa.OpJne, isa.OpJl, isa.OpJle, isa.OpJg, isa.OpJge,
			isa.OpJb, isa.OpJbe, isa.OpJa, isa.OpJae:
			if t.FlagPC < 0 {
				t.StaleFlagJump = true
			}

		case isa.OpPush:
			readSrc(in.Src)
			t.TouchesMem = true
			exact = false // SP-relative address shifts within the block

		case isa.OpPop:
			read(in.Dst.Reg)
			t.TouchesMem = true
			exact = false
			write(in.Dst.Reg)

		case isa.OpCall:
			// Stores a clean return-address shadow at SP-8.
			t.TouchesMem = true
			exact = false

		default:
			t.Unsafe = true
		}
	}
	if !exact {
		mem = nil
	}
	return t, mem, exact
}

// enterBlock is the analyzer's Hooks.OnBlock handler: true keeps the
// precise path, false applies the block summary and waives observation.
// Register/flag/syscall conditions are delegated to Transfer.Skippable
// (memLive=false: memory is decided here); the memory condition uses the
// exact entry-resolved footprint when available, falling back to global
// shadow liveness.
//
// Consecutive skips of the same block (a hot self-loop like bzip2's ftab
// clear) take a re-entry fast path: a skipped execution cannot change
// shadow state, and the skip's own effects (flag latch cleaned, clean
// registers re-cleaned) keep every non-footprint condition satisfied, so
// only the memory footprint — whose addresses advance with the induction
// registers — needs re-checking. a.lastSkip is invalidated by anything
// that can mutate shadow state: a precise step or a read syscall.
func (a *Analyzer) enterBlock(v *vm.VM, blockID int) bool {
	e := &a.transfers.entries[blockID]
	if blockID != a.lastSkip {
		if !e.t.Skippable(&a.regs, false, a.flagsTainted()) {
			return true
		}
		if e.t.TouchesMem && a.shadow.live > 0 && !e.memExact {
			return true
		}
	}
	if e.t.TouchesMem && a.shadow.live > 0 {
		for i := range e.mem {
			ma := &e.mem[i]
			if !a.shadow.rangeClean(ma.addr(v), ma.width) {
				a.lastSkip = -1
				return true
			}
		}
	}
	a.lastSkip = blockID
	a.instrCount += uint64(e.t.Len)
	if e.t.FlagPC >= 0 {
		a.flagSrc[0].Reset()
		a.flagSrc[1].Reset()
		a.flagPC = int(e.t.FlagPC)
	}
	e.t.Apply(&a.regs)
	return false
}
