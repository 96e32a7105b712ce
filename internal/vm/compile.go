package vm

import (
	"fmt"
	"sync"

	"github.com/zipchannel/zipchannel/internal/isa"
)

// The compiled engine: pre-decoded programs are lowered once into threaded
// code — one Go closure per instruction with its operands, width masks,
// and effective-address mode burned in, chained by direct next-pc returns —
// plus superinstructions that fuse adjacent straight-line pairs (the
// add/cmp/jcc and load/op/store sequences that a dynamic opcode-pair
// count showed dominate every victim gadget; DESIGN.md §12) into a single
// closure, halving dispatch on hot loops.
//
// Execution is block-at-a-time (block.go): the run loop enters a basic
// block, runs its closure chain without maintaining v.PC or consulting
// hooks, and tallies the block's retired-instruction counters in one shot
// at the end. Instrumented runs (any per-instruction hook installed) fall
// back to the interpreter's Step for exact hook ordering — unless the
// Hooks.OnBlock client approves the fast path for a specific block, which
// is how the taint analyzer skips blocks whose taint transfer function is
// a no-op (internal/core).
//
// The engine requires flat memory; paged (SGX) machines always interpret.
// Observable behavior is bit-identical to the interpreter: same register,
// flag, memory, and output state, same v.Steps accounting, same error
// text with the same faulting PC, and same obs counter totals. The
// all-victims differential test and FuzzVMDifferential (internal/core)
// enforce this.

// stepFn executes one instruction (or one fused pair) against v and
// returns the next pc. On error it leaves v.PC at the failing
// instruction, exactly like the interpreter.
type stepFn func(v *VM) (int, error)

// body is the side-effect part of a non-control instruction, shared
// between the single-instruction wrapper and fused superinstructions.
type body func(v *VM) error

type opCount struct {
	op isa.Op
	n  uint64
}

// blockTally is a block's precomputed contribution to the obs dispatch
// counters, applied in one shot after a fast block execution.
type blockTally struct {
	n   uint64
	ops []opCount
}

type engine struct {
	fns     []stepFn
	blocks  []Block
	blockOf []int32
	tallies []blockTally
}

// engCache memoizes compiled engines by program identity (programs are
// assembled once and never mutated), shared by every VM.
var engCache sync.Map // *isa.Program -> *engine

func engineFor(p *isa.Program) *engine {
	if e, ok := engCache.Load(p); ok {
		return e.(*engine)
	}
	e := compile(p)
	actual, _ := engCache.LoadOrStore(p, e)
	return actual.(*engine)
}

// compile lowers a program into threaded code.
func compile(p *isa.Program) *engine {
	dec := decodeProgram(p)
	bi := blockInfoFor(p)
	e := &engine{
		fns:     make([]stepFn, len(p.Instrs)),
		blocks:  bi.blocks,
		blockOf: bi.blockOf,
		tallies: make([]blockTally, len(bi.blocks)),
	}
	for i, b := range e.blocks {
		e.tallies[i] = tallyOf(dec, b)
		e.compileBlock(p, dec, b)
	}
	return e
}

func tallyOf(dec []dec, b Block) blockTally {
	t := blockTally{n: uint64(b.End - b.Start)}
	var counts [isa.NumOps]uint64
	for pc := b.Start; pc < b.End; pc++ {
		counts[dec[pc].op]++
	}
	for op, n := range counts {
		if n > 0 {
			t.ops = append(t.ops, opCount{op: isa.Op(op), n: n})
		}
	}
	return t
}

// compileBlock fills e.fns for [b.Start, b.End): specialized bodies
// wrapped with budget/step accounting, pairwise-fused where two
// straight-line bodies are adjacent, and a fused compare-and-branch when
// the block ends with cmp/test + jcc.
func (e *engine) compileBlock(p *isa.Program, dec []dec, b Block) {
	// Every pc gets its single-instruction form first, so mid-block entry
	// (a resumed machine) and the second slot of a fused pair stay valid.
	for pc := b.Start; pc < b.End; pc++ {
		e.fns[pc] = compileOne(p, dec, pc)
	}
	// Superinstruction pass: greedy left-to-right pairing of adjacent
	// non-control bodies, then the compare-and-branch fusion at the end.
	pc := b.Start
	for pc+1 < b.End {
		d0, d1 := &dec[pc], &dec[pc+1]
		if isControl(d0.op) {
			pc++
			continue
		}
		if (d0.op == isa.OpCmp || d0.op == isa.OpTest) && d1.op.IsCondJump() {
			b0 := makeBody(p, dec, pc)
			e.fns[pc] = fuseCmpJcc(p, pc, b0, condFns[d1.op], int(d1.target))
			pc += 2
			continue
		}
		if !isControl(d1.op) {
			b0, b1 := makeBody(p, dec, pc), makeBody(p, dec, pc+1)
			e.fns[pc] = fuseSeq(p, pc, b0, b1)
			pc += 2
			continue
		}
		pc++
	}
}

// isControl reports whether the op needs a dedicated control wrapper
// (it cannot be expressed as a straight-line body returning pc+1).
func isControl(op isa.Op) bool {
	return op.IsJump() || op == isa.OpRet || op == isa.OpHalt || op == isa.OpSyscall
}

func runawayErr(steps uint64) error {
	return fmt.Errorf("%w after %d steps", ErrRunaway, steps)
}

func execErr(p *isa.Program, pc int, err error) error {
	return fmt.Errorf("vm: pc %d (%s): %w", pc, &p.Instrs[pc], err)
}

// compileOne builds the single-instruction stepFn for pc.
func compileOne(p *isa.Program, dec []dec, pc int) stepFn {
	d := &dec[pc]
	switch d.op {
	case isa.OpHalt:
		return func(v *VM) (int, error) {
			if v.Steps >= v.MaxSteps {
				v.PC = pc
				return 0, runawayErr(v.Steps)
			}
			v.Halted = true
			v.Steps++
			return pc + 1, nil
		}
	case isa.OpJmp:
		target := int(d.target)
		return func(v *VM) (int, error) {
			if v.Steps >= v.MaxSteps {
				v.PC = pc
				return 0, runawayErr(v.Steps)
			}
			v.Steps++
			return target, nil
		}
	case isa.OpJe, isa.OpJne, isa.OpJl, isa.OpJle, isa.OpJg, isa.OpJge,
		isa.OpJb, isa.OpJbe, isa.OpJa, isa.OpJae:
		target := int(d.target)
		cond := condFns[d.op]
		return func(v *VM) (int, error) {
			if v.Steps >= v.MaxSteps {
				v.PC = pc
				return 0, runawayErr(v.Steps)
			}
			v.Steps++
			if cond(v) {
				return target, nil
			}
			return pc + 1, nil
		}
	case isa.OpCall:
		target := int(d.target)
		return func(v *VM) (int, error) {
			if v.Steps >= v.MaxSteps {
				v.PC = pc
				return 0, runawayErr(v.Steps)
			}
			v.Regs[isa.SP] -= 8
			if err := v.flat.Store(v.Regs[isa.SP], 8, uint64(pc+1)); err != nil {
				v.Regs[isa.SP] += 8
				v.PC = pc
				return 0, execErr(p, pc, err)
			}
			v.Steps++
			return target, nil
		}
	case isa.OpRet:
		return func(v *VM) (int, error) {
			if v.Steps >= v.MaxSteps {
				v.PC = pc
				return 0, runawayErr(v.Steps)
			}
			val, err := v.flat.Load(v.Regs[isa.SP], 8)
			if err != nil {
				v.PC = pc
				return 0, execErr(p, pc, err)
			}
			v.Regs[isa.SP] += 8
			v.Steps++
			return int(val), nil
		}
	case isa.OpSyscall:
		return func(v *VM) (int, error) {
			if v.Steps >= v.MaxSteps {
				v.PC = pc
				return 0, runawayErr(v.Steps)
			}
			// Hooks reachable through the syscall (OnSyscallRead) see the
			// correct pc, as under the interpreter.
			v.PC = pc
			if err := v.syscall(); err != nil {
				return 0, execErr(p, pc, err)
			}
			v.Steps++
			return pc + 1, nil
		}
	default:
		return wrapSeq(p, pc, makeBody(p, dec, pc))
	}
}

// wrapSeq turns a straight-line body into a stepFn with the
// interpreter's budget check and step accounting.
func wrapSeq(p *isa.Program, pc int, b body) stepFn {
	next := pc + 1
	return func(v *VM) (int, error) {
		if v.Steps >= v.MaxSteps {
			v.PC = pc
			return 0, runawayErr(v.Steps)
		}
		if err := b(v); err != nil {
			v.PC = pc
			return 0, execErr(p, pc, err)
		}
		v.Steps++
		return next, nil
	}
}

// fuseSeq is the generic two-wide superinstruction: both sub-instructions
// keep their own budget check and step increment, so runaway timing and
// error attribution are bit-identical to unfused execution.
func fuseSeq(p *isa.Program, pc int, b0, b1 body) stepFn {
	pc1 := pc + 1
	next := pc + 2
	return func(v *VM) (int, error) {
		if v.Steps >= v.MaxSteps {
			v.PC = pc
			return 0, runawayErr(v.Steps)
		}
		if err := b0(v); err != nil {
			v.PC = pc
			return 0, execErr(p, pc, err)
		}
		v.Steps++
		if v.Steps >= v.MaxSteps {
			v.PC = pc1
			return 0, runawayErr(v.Steps)
		}
		if err := b1(v); err != nil {
			v.PC = pc1
			return 0, execErr(p, pc1, err)
		}
		v.Steps++
		return next, nil
	}
}

// fuseCmpJcc is the compare-and-branch superinstruction (the cmp/jcc and
// test/jcc pairs ending nearly every loop). Flags are still materialized:
// later instructions and final machine state must see them.
func fuseCmpJcc(p *isa.Program, pc int, cmpBody body, cond func(*VM) bool, target int) stepFn {
	pcJ := pc + 1
	fall := pc + 2
	return func(v *VM) (int, error) {
		if v.Steps >= v.MaxSteps {
			v.PC = pc
			return 0, runawayErr(v.Steps)
		}
		if err := cmpBody(v); err != nil {
			v.PC = pc
			return 0, execErr(p, pc, err)
		}
		v.Steps++
		if v.Steps >= v.MaxSteps {
			v.PC = pcJ
			return 0, runawayErr(v.Steps)
		}
		v.Steps++
		if cond(v) {
			return target, nil
		}
		return fall, nil
	}
}

// condFns are the branch predicates, one closure per conditional opcode
// (mirrors VM.condition).
var condFns = [isa.NumOps]func(*VM) bool{
	isa.OpJe:  func(v *VM) bool { return v.ZF },
	isa.OpJne: func(v *VM) bool { return !v.ZF },
	isa.OpJl:  func(v *VM) bool { return v.SF },
	isa.OpJle: func(v *VM) bool { return v.SF || v.ZF },
	isa.OpJg:  func(v *VM) bool { return !v.SF && !v.ZF },
	isa.OpJge: func(v *VM) bool { return !v.SF },
	isa.OpJb:  func(v *VM) bool { return v.CF },
	isa.OpJbe: func(v *VM) bool { return v.CF || v.ZF },
	isa.OpJa:  func(v *VM) bool { return !v.CF && !v.ZF },
	isa.OpJae: func(v *VM) bool { return !v.CF },
}

// mkEA builds the effective-address closure for a pre-decoded memory
// operand, one branch-free form per addressing mode.
func mkEA(e eaDec) func(*VM) uint64 {
	base, index, shift, disp := e.base, e.index, e.shift, e.disp
	switch e.mode {
	case eaBase:
		return func(v *VM) uint64 { return v.Regs[base] + disp }
	case eaBaseIndex:
		return func(v *VM) uint64 { return v.Regs[base] + v.Regs[index]<<shift + disp }
	case eaIndex:
		return func(v *VM) uint64 { return v.Regs[index]<<shift + disp }
	default: // eaDisp
		return func(v *VM) uint64 { return disp }
	}
}

// makeBody builds the specialized side-effect closure for a non-control
// instruction. Each case mirrors the corresponding interpreter arm in
// Step exactly; the difference is that operand kind, width mask, and
// addressing mode are resolved here, once, instead of per execution.
func makeBody(p *isa.Program, dec []dec, pc int) body {
	d := &dec[pc]
	wmask, sbit := d.wmask, d.sbit
	w := int(d.width)
	dst, src := d.dstReg, d.srcReg
	imm := d.imm

	switch op := d.op; op {
	case isa.OpNop:
		return func(*VM) error { return nil }

	case isa.OpMov:
		if d.srcIsReg {
			return func(v *VM) error { v.Regs[dst] = v.Regs[src] & wmask; return nil }
		}
		immM := imm & wmask
		return func(v *VM) error { v.Regs[dst] = immM; return nil }

	case isa.OpLea:
		ea := mkEA(d.ea)
		return func(v *VM) error { v.Regs[dst] = ea(v); return nil }

	case isa.OpLd:
		ea := mkEA(d.ea)
		return func(v *VM) error {
			val, err := v.flat.Load(ea(v), w)
			if err != nil {
				return err
			}
			v.Regs[dst] = val
			return nil
		}

	case isa.OpSt:
		ea := mkEA(d.ea)
		if d.srcIsReg {
			return func(v *VM) error { return v.flat.Store(ea(v), w, v.Regs[src]&wmask) }
		}
		immM := imm & wmask
		return func(v *VM) error { return v.flat.Store(ea(v), w, immM) }

	case isa.OpNot:
		return func(v *VM) error { v.Regs[dst] = ^v.Regs[dst] & wmask; return nil }

	case isa.OpNeg:
		return func(v *VM) error { v.Regs[dst] = -v.Regs[dst] & wmask; return nil }

	case isa.OpCmp:
		if d.srcIsReg {
			return func(v *VM) error {
				dv, s := v.Regs[dst]&wmask, v.Regs[src]&wmask
				res := (dv - s) & wmask
				v.ZF, v.SF, v.CF = res == 0, res&sbit != 0, dv < s
				return nil
			}
		}
		immM := imm & wmask
		return func(v *VM) error {
			dv := v.Regs[dst] & wmask
			res := (dv - immM) & wmask
			v.ZF, v.SF, v.CF = res == 0, res&sbit != 0, dv < immM
			return nil
		}

	case isa.OpTest:
		if d.srcIsReg {
			return func(v *VM) error {
				res := v.Regs[dst] & v.Regs[src] & wmask
				v.ZF, v.SF, v.CF = res == 0, res&sbit != 0, false
				return nil
			}
		}
		immM := imm & wmask
		return func(v *VM) error {
			res := v.Regs[dst] & immM & wmask
			v.ZF, v.SF, v.CF = res == 0, res&sbit != 0, false
			return nil
		}

	case isa.OpPush:
		if d.srcIsReg {
			return func(v *VM) error {
				v.Regs[isa.SP] -= 8
				if err := v.flat.Store(v.Regs[isa.SP], 8, v.Regs[src]); err != nil {
					v.Regs[isa.SP] += 8
					return err
				}
				return nil
			}
		}
		return func(v *VM) error {
			v.Regs[isa.SP] -= 8
			if err := v.flat.Store(v.Regs[isa.SP], 8, imm); err != nil {
				v.Regs[isa.SP] += 8
				return err
			}
			return nil
		}

	case isa.OpPop:
		return func(v *VM) error {
			val, err := v.flat.Load(v.Regs[isa.SP], 8)
			if err != nil {
				return err
			}
			v.Regs[dst] = val
			v.Regs[isa.SP] += 8
			return nil
		}

	case isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpDiv, isa.OpMod,
		isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpShl, isa.OpShr, isa.OpSar, isa.OpRol:
		if d.dstIsMem {
			return makeMemALU(d, op, w, wmask, sbit)
		}
		return makeRegALU(d, op, w, wmask, sbit)

	default:
		// Unreachable for the current ISA; keep the interpreter's error.
		return func(*VM) error {
			return fmt.Errorf("unimplemented opcode %v", op)
		}
	}
}

// makeRegALU specializes the hot register-destination ALU forms inline
// and routes the rest through aluCompute, matching VM.alu bit for bit
// (flag updates, sub's carry, division-by-zero).
func makeRegALU(d *dec, op isa.Op, w int, wmask, sbit uint64) body {
	dst, src := d.dstReg, d.srcReg
	if d.srcIsReg {
		switch op {
		case isa.OpAdd:
			return func(v *VM) error {
				res := (v.Regs[dst] + v.Regs[src]) & wmask
				v.Regs[dst] = res
				v.ZF, v.SF = res == 0, res&sbit != 0
				return nil
			}
		case isa.OpSub:
			return func(v *VM) error {
				dv, s := v.Regs[dst]&wmask, v.Regs[src]&wmask
				res := (dv - s) & wmask
				v.Regs[dst] = res
				v.ZF, v.SF, v.CF = res == 0, res&sbit != 0, dv < s
				return nil
			}
		case isa.OpXor:
			return func(v *VM) error {
				res := (v.Regs[dst] ^ v.Regs[src]) & wmask
				v.Regs[dst] = res
				v.ZF, v.SF = res == 0, res&sbit != 0
				return nil
			}
		case isa.OpAnd:
			return func(v *VM) error {
				res := v.Regs[dst] & v.Regs[src] & wmask
				v.Regs[dst] = res
				v.ZF, v.SF = res == 0, res&sbit != 0
				return nil
			}
		case isa.OpOr:
			return func(v *VM) error {
				res := (v.Regs[dst] | v.Regs[src]) & wmask
				v.Regs[dst] = res
				v.ZF, v.SF = res == 0, res&sbit != 0
				return nil
			}
		}
		return func(v *VM) error {
			dv, s := v.Regs[dst]&wmask, v.Regs[src]&wmask
			if (op == isa.OpDiv || op == isa.OpMod) && s == 0 {
				return fmt.Errorf("division by zero")
			}
			res := aluCompute(op, dv, s, w) & wmask
			v.Regs[dst] = res
			v.ZF, v.SF = res == 0, res&sbit != 0
			return nil
		}
	}
	immM := d.imm & wmask
	switch op {
	case isa.OpAdd:
		return func(v *VM) error {
			res := (v.Regs[dst] + immM) & wmask
			v.Regs[dst] = res
			v.ZF, v.SF = res == 0, res&sbit != 0
			return nil
		}
	case isa.OpSub:
		return func(v *VM) error {
			dv := v.Regs[dst] & wmask
			res := (dv - immM) & wmask
			v.Regs[dst] = res
			v.ZF, v.SF, v.CF = res == 0, res&sbit != 0, dv < immM
			return nil
		}
	case isa.OpXor:
		return func(v *VM) error {
			res := (v.Regs[dst] ^ immM) & wmask
			v.Regs[dst] = res
			v.ZF, v.SF = res == 0, res&sbit != 0
			return nil
		}
	case isa.OpAnd:
		return func(v *VM) error {
			res := v.Regs[dst] & immM & wmask
			v.Regs[dst] = res
			v.ZF, v.SF = res == 0, res&sbit != 0
			return nil
		}
	case isa.OpShl:
		if n := immM; n < uint64(w*8) {
			sh := uint(n)
			return func(v *VM) error {
				res := (v.Regs[dst] & wmask) << sh & wmask
				v.Regs[dst] = res
				v.ZF, v.SF = res == 0, res&sbit != 0
				return nil
			}
		}
	case isa.OpShr:
		if n := immM; n < uint64(w*8) {
			sh := uint(n)
			return func(v *VM) error {
				res := (v.Regs[dst] & wmask) >> sh
				v.Regs[dst] = res
				v.ZF, v.SF = res == 0, res&sbit != 0
				return nil
			}
		}
	}
	return func(v *VM) error {
		dv := v.Regs[dst] & wmask
		if (op == isa.OpDiv || op == isa.OpMod) && immM == 0 {
			return fmt.Errorf("division by zero")
		}
		res := aluCompute(op, dv, immM, w) & wmask
		v.Regs[dst] = res
		v.ZF, v.SF = res == 0, res&sbit != 0
		return nil
	}
}

// makeMemALU is the read-modify-write form (add [ftab + r*4], 1).
// Mirrors VM.alu's memory-destination arm: no carry flag, flags from the
// stored result. Fast bodies never fire OnLoad/OnStore — a machine with
// data hooks installed never reaches the fast path.
func makeMemALU(d *dec, op isa.Op, w int, wmask, sbit uint64) body {
	ea := mkEA(d.ea)
	src := d.srcReg
	srcIsReg := d.srcIsReg
	immM := d.imm & wmask
	return func(v *VM) error {
		s := immM
		if srcIsReg {
			s = v.Regs[src] & wmask
		}
		addr := ea(v)
		old, err := v.flat.Load(addr, w)
		if err != nil {
			return err
		}
		res := aluCompute(op, old, s, w) & wmask
		if err := v.flat.Store(addr, w, res); err != nil {
			return err
		}
		v.ZF, v.SF = res == 0, res&sbit != 0
		return nil
	}
}

// runCompiled is the block-at-a-time dispatch loop.
func (v *VM) runCompiled(eng *engine) error {
	// Any per-instruction hook forces the precise (interpreter) path for a
	// block, unless the OnBlock client waives observation for it.
	instrumented := v.Hooks.BeforeInstr != nil || v.Hooks.OnLoad != nil || v.Hooks.OnStore != nil
	n := len(v.Prog.Instrs)
	for !v.Halted {
		pc := v.PC
		if pc < 0 || pc >= n {
			return fmt.Errorf("vm: pc %d outside program (%d instrs)", pc, n)
		}
		bi := eng.blockOf[pc]
		b := &eng.blocks[bi]
		precise := instrumented
		if precise && v.Hooks.OnBlock != nil && pc == b.Start {
			precise = v.Hooks.OnBlock(v, int(bi))
		}
		if precise || pc != b.Start {
			// Interpreter path through this block: exact hook ordering and
			// per-instruction counters. Re-enters the dispatch loop when
			// control leaves the block or loops back to its start (so the
			// OnBlock decision is refreshed every iteration).
			for {
				if err := v.Step(); err != nil {
					return err
				}
				if v.Halted || v.PC <= b.Start || v.PC >= b.End {
					break
				}
			}
			continue
		}
		// Threaded fast path: no hooks, no PC maintenance; counters are
		// tallied per block.
		for {
			next, err := eng.fns[pc](v)
			if err != nil {
				v.tallyRange(b.Start, v.PC)
				return err
			}
			if next <= pc || next >= b.End {
				v.tallyBlock(eng, bi)
				v.PC = next
				break
			}
			pc = next
		}
	}
	return nil
}

// tallyBlock adds one full fast execution of block bi to the obs
// counters, equivalent to the interpreter's per-instruction increments.
func (v *VM) tallyBlock(eng *engine, bi int32) {
	if v.obs.instructions == nil {
		return
	}
	t := &eng.tallies[bi]
	v.obs.instructions.Add(t.n)
	for _, oc := range t.ops {
		v.obs.ops[oc.op].Add(oc.n)
	}
}

// tallyRange counts a partial fast block execution [from, to) after a
// mid-block error (the failing instruction is not retired, matching the
// interpreter).
func (v *VM) tallyRange(from, to int) {
	if v.obs.instructions == nil || to <= from {
		return
	}
	v.obs.instructions.Add(uint64(to - from))
	for pc := from; pc < to; pc++ {
		v.obs.ops[v.dec[pc].op].Inc()
	}
}
