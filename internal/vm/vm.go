package vm

import (
	"errors"
	"fmt"

	"github.com/zipchannel/zipchannel/internal/isa"
)

// Syscall numbers (in r0 at the syscall instruction; arguments r1..r3,
// result in r0).
const (
	SysRead  = 0 // read(fd, buf, len) -> bytes read from the VM input
	SysWrite = 1 // write(fd, buf, len) -> bytes appended to the VM output
	SysExit  = 2 // exit(code) -> halts the machine
)

// ErrRunaway reports that the step budget was exhausted, guarding against
// victim programs that fail to terminate.
var ErrRunaway = errors.New("vm: step budget exhausted")

// ErrHalted reports a step attempt on a halted machine.
var ErrHalted = errors.New("vm: machine is halted")

// Hooks are the instrumentation callbacks, the simulated analogue of
// DynamoRIO's instruction and memory-event instrumentation. All hooks are
// optional.
type Hooks struct {
	// BeforeInstr runs before each instruction executes, with register
	// state still pre-instruction. TaintChannel does all taint propagation
	// here.
	BeforeInstr func(v *VM, in *isa.Instr)
	// OnLoad and OnStore run after a successful data memory access.
	OnLoad  func(v *VM, in *isa.Instr, addr uint64, width int, val uint64)
	OnStore func(v *VM, in *isa.Instr, addr uint64, width int, val uint64)
	// OnSyscallRead runs after a read syscall copied n input bytes to
	// bufAddr; firstIndex is the 1-based index of the first byte in the
	// overall input stream (TaintChannel's tag origin).
	OnSyscallRead func(v *VM, bufAddr uint64, n int, firstIndex int)
	// OnBlock is consulted by the compiled engine (compile.go) when an
	// instrumented machine reaches the start of basic block blockID
	// (indexing Blocks(v.Prog)). Returning true keeps the precise
	// per-instruction path; returning false runs the whole block on the
	// threaded fast path with NO per-instruction hooks fired — the client
	// asserts it does not need to observe this block execution. Ignored by
	// the interpreter and on machines with no per-instruction hooks.
	OnBlock func(v *VM, blockID int) bool
}

// VM is one simulated hardware thread executing a Program.
type VM struct {
	Prog  *isa.Program
	Mem   Memory
	Hooks Hooks

	Regs [isa.NumRegs]uint64
	PC   int
	ZF   bool // zero flag
	SF   bool // sign flag (at the width of the setting instruction)
	CF   bool // carry flag (unsigned borrow for cmp/sub)

	Halted   bool
	ExitCode uint64
	Steps    uint64
	MaxSteps uint64

	// Interp forces Run onto the interpreter where the compiled engine
	// (compile.go) is eligible; the differential tests set it to compare
	// the two.
	Interp bool

	input    []byte
	inputPos int
	output   []byte

	// dec is the pre-decoded form of Prog.Instrs (decode.go); flat is the
	// memory devirtualized once at construction so the hot path can call
	// *FlatMemory methods directly instead of through the interface.
	dec  []dec
	flat *FlatMemory

	obs vmObs
}

// DefaultMaxSteps bounds Run against non-terminating programs.
const DefaultMaxSteps = 500_000_000

// New creates a VM for prog with the given memory, copying the program's
// .init data into place.
func New(prog *isa.Program, mem Memory) (*VM, error) {
	v := &VM{Prog: prog, Mem: mem, PC: prog.Entry, MaxSteps: DefaultMaxSteps}
	v.dec = decodeProgram(prog)
	v.flat, _ = mem.(*FlatMemory)
	type rawWriter interface{ WriteBytes(uint64, []byte) error }
	for _, init := range prog.Init {
		w, ok := mem.(rawWriter)
		if !ok {
			return nil, fmt.Errorf("vm: memory type %T cannot hold .init data", mem)
		}
		if err := w.WriteBytes(init.Addr, init.Bytes); err != nil {
			return nil, fmt.Errorf("vm: init data: %w", err)
		}
	}
	return v, nil
}

// NewFlat creates a VM with a flat memory sized for the program's data
// segment plus a stack region above it.
func NewFlat(prog *isa.Program) (*VM, error) {
	const stack = 64 * 1024
	mem := NewFlatMemory(prog.DataBase, prog.DataSize+stack)
	v, err := New(prog, mem)
	if err != nil {
		return nil, err
	}
	v.Regs[isa.SP] = prog.DataBase + prog.DataSize + stack
	return v, nil
}

// SetInput installs the bytes the read syscall will serve.
func (v *VM) SetInput(b []byte) {
	v.input = b
	v.inputPos = 0
}

// InputPos returns how many input bytes have been consumed.
func (v *VM) InputPos() int { return v.inputPos }

// Output returns the bytes written via the write syscall.
func (v *VM) Output() []byte { return v.output }

// Run executes until halt, fault, or error. A *Fault return leaves the
// machine resumable: the faulting instruction has had no effect and will
// re-execute on the next Run or Step.
//
// Run dispatches to the compiled (threaded-code) engine when the machine
// is eligible — flat memory, engine not forced to interp — and to the
// interpreter loop otherwise. Both produce bit-identical machine state,
// output, errors, and obs totals.
func (v *VM) Run() error {
	if v.useCompiled() {
		return v.runCompiled(engineFor(v.Prog))
	}
	for !v.Halted {
		if err := v.Step(); err != nil {
			return err
		}
	}
	return nil
}

// useCompiled reports whether Run should take the compiled engine. Paged
// (SGX) memory always interprets: the fast path has no fault/resume
// story.
func (v *VM) useCompiled() bool {
	return v.flat != nil && !v.Interp
}

// Step executes a single instruction. On *Fault the PC is unchanged.
func (v *VM) Step() error {
	if v.Halted {
		return ErrHalted
	}
	if v.Steps >= v.MaxSteps {
		return fmt.Errorf("%w after %d steps", ErrRunaway, v.Steps)
	}
	if v.PC < 0 || v.PC >= len(v.Prog.Instrs) {
		return fmt.Errorf("vm: pc %d outside program (%d instrs)", v.PC, len(v.Prog.Instrs))
	}
	in := &v.Prog.Instrs[v.PC]
	d := &v.dec[v.PC]
	if v.Hooks.BeforeInstr != nil {
		v.Hooks.BeforeInstr(v, in)
	}
	next := v.PC + 1
	var err error
	switch d.op {
	case isa.OpNop:
	case isa.OpHalt:
		v.Halted = true
	case isa.OpMov:
		v.Regs[d.dstReg] = v.srcVal(d) & d.wmask
	case isa.OpLea:
		v.Regs[d.dstReg] = v.ea(&d.ea)
	case isa.OpLd:
		addr := v.ea(&d.ea)
		var val uint64
		val, err = v.load(addr, int(d.width))
		if err == nil {
			v.Regs[d.dstReg] = val
			if v.Hooks.OnLoad != nil {
				v.Hooks.OnLoad(v, in, addr, int(d.width), val)
			}
		}
	case isa.OpSt:
		addr := v.ea(&d.ea)
		val := v.srcVal(d) & d.wmask
		err = v.store(addr, int(d.width), val)
		if err == nil && v.Hooks.OnStore != nil {
			v.Hooks.OnStore(v, in, addr, int(d.width), val)
		}
	case isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpDiv, isa.OpMod,
		isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpShl, isa.OpShr, isa.OpSar, isa.OpRol:
		err = v.alu(in, d)
	case isa.OpNot:
		v.Regs[d.dstReg] = ^v.Regs[d.dstReg] & d.wmask
	case isa.OpNeg:
		v.Regs[d.dstReg] = -v.Regs[d.dstReg] & d.wmask
	case isa.OpCmp:
		dv := v.Regs[d.dstReg] & d.wmask
		s := v.srcVal(d) & d.wmask
		v.setFlagsW(dv-s, d)
		v.CF = dv < s
	case isa.OpTest:
		dv := v.Regs[d.dstReg] & d.wmask
		s := v.srcVal(d) & d.wmask
		v.setFlagsW(dv&s, d)
		v.CF = false
	case isa.OpJmp:
		next = int(d.target)
	case isa.OpJe, isa.OpJne, isa.OpJl, isa.OpJle, isa.OpJg, isa.OpJge,
		isa.OpJb, isa.OpJbe, isa.OpJa, isa.OpJae:
		if v.condition(d.op) {
			next = int(d.target)
		}
	case isa.OpPush:
		v.Regs[isa.SP] -= 8
		err = v.store(v.Regs[isa.SP], 8, v.srcVal(d))
		if err != nil {
			v.Regs[isa.SP] += 8 // undo for clean fault retry
		}
	case isa.OpPop:
		var val uint64
		val, err = v.load(v.Regs[isa.SP], 8)
		if err == nil {
			v.Regs[d.dstReg] = val
			v.Regs[isa.SP] += 8
		}
	case isa.OpCall:
		v.Regs[isa.SP] -= 8
		err = v.store(v.Regs[isa.SP], 8, uint64(v.PC+1))
		if err != nil {
			v.Regs[isa.SP] += 8
		} else {
			next = int(d.target)
		}
	case isa.OpRet:
		var val uint64
		val, err = v.load(v.Regs[isa.SP], 8)
		if err == nil {
			v.Regs[isa.SP] += 8
			next = int(val)
		}
	case isa.OpSyscall:
		err = v.syscall()
	default:
		return fmt.Errorf("vm: unimplemented opcode %v at pc %d", in.Op, v.PC)
	}
	if err != nil {
		// Memories return a permission fault unwrapped; a type check,
		// unlike errors.As, does not move a pointer to the heap.
		if f, ok := err.(*Fault); ok {
			v.obs.faults.Inc()
			return f // PC untouched: resumable
		}
		return fmt.Errorf("vm: pc %d (%s): %w", v.PC, in, err)
	}
	v.PC = next
	v.Steps++
	v.obs.instructions.Inc()
	v.obs.ops[d.op].Inc()
	return nil
}

// load and store route data accesses through the devirtualized flat memory
// when possible; the interface path remains for paged (SGX) memory.
func (v *VM) load(addr uint64, width int) (uint64, error) {
	if v.flat != nil {
		return v.flat.Load(addr, width)
	}
	return v.Mem.Load(addr, width)
}

func (v *VM) store(addr uint64, width int, val uint64) error {
	if v.flat != nil {
		return v.flat.Store(addr, width, val)
	}
	return v.Mem.Store(addr, width, val)
}

func (v *VM) srcVal(d *dec) uint64 {
	if d.srcIsReg {
		return v.Regs[d.srcReg]
	}
	return d.imm
}

func (v *VM) alu(in *isa.Instr, d *dec) error {
	w := int(d.width)
	src := v.srcVal(d) & d.wmask

	if d.dstIsMem {
		// Read-modify-write form (add [ftab + r*4], 1).
		addr := v.ea(&d.ea)
		old, err := v.load(addr, w)
		if err != nil {
			return err
		}
		res := aluCompute(d.op, old, src, w) & d.wmask
		if err := v.store(addr, w, res); err != nil {
			return err
		}
		if v.Hooks.OnLoad != nil {
			v.Hooks.OnLoad(v, in, addr, w, old)
		}
		if v.Hooks.OnStore != nil {
			v.Hooks.OnStore(v, in, addr, w, res)
		}
		v.setFlagsW(res, d)
		return nil
	}

	dv := v.Regs[d.dstReg] & d.wmask
	if (d.op == isa.OpDiv || d.op == isa.OpMod) && src == 0 {
		return fmt.Errorf("division by zero")
	}
	res := aluCompute(d.op, dv, src, w) & d.wmask
	v.Regs[d.dstReg] = res
	v.setFlagsW(res, d)
	if d.op == isa.OpSub {
		v.CF = dv < src
	}
	return nil
}

func aluCompute(op isa.Op, d, s uint64, w int) uint64 {
	bits := uint(w * 8)
	switch op {
	case isa.OpAdd:
		return d + s
	case isa.OpSub:
		return d - s
	case isa.OpMul:
		return d * s
	case isa.OpDiv:
		return d / s
	case isa.OpMod:
		return d % s
	case isa.OpAnd:
		return d & s
	case isa.OpOr:
		return d | s
	case isa.OpXor:
		return d ^ s
	case isa.OpShl:
		if s >= uint64(bits) {
			return 0
		}
		return d << s
	case isa.OpShr:
		if s >= uint64(bits) {
			return 0
		}
		return d >> s
	case isa.OpSar:
		sh := s
		if sh >= uint64(bits) {
			sh = uint64(bits) - 1
		}
		signed := int64(d<<(64-bits)) >> (64 - bits) // sign-extend from width
		return uint64(signed>>sh) & mask(w)
	case isa.OpRol:
		sh := s % uint64(bits)
		return (d<<sh | d>>(uint64(bits)-sh))
	default:
		panic(fmt.Sprintf("vm: aluCompute called with %v", op))
	}
}

func (v *VM) condition(op isa.Op) bool {
	switch op {
	case isa.OpJe:
		return v.ZF
	case isa.OpJne:
		return !v.ZF
	case isa.OpJl:
		return v.SF
	case isa.OpJle:
		return v.SF || v.ZF
	case isa.OpJg:
		return !v.SF && !v.ZF
	case isa.OpJge:
		return !v.SF
	case isa.OpJb:
		return v.CF
	case isa.OpJbe:
		return v.CF || v.ZF
	case isa.OpJa:
		return !v.CF && !v.ZF
	case isa.OpJae:
		return !v.CF
	default:
		panic(fmt.Sprintf("vm: condition called with %v", op))
	}
}

func (v *VM) syscall() error {
	switch v.Regs[isa.R0] {
	case SysRead:
		buf, n := v.Regs[isa.R2], int(v.Regs[isa.R3])
		avail := len(v.input) - v.inputPos
		if n > avail {
			n = avail
		}
		first := v.inputPos + 1
		if v.flat != nil && n > 0 {
			// Bulk copy on flat memory: syscall stores bypass data-access
			// hooks, so one WriteBytes is observationally identical to the
			// byte loop (an out-of-range error is fatal either way).
			if err := v.flat.WriteBytes(buf, v.input[v.inputPos:v.inputPos+n]); err != nil {
				return err
			}
		} else {
			// Per-byte path for paged memory: a mid-copy fault must leave
			// the earlier bytes written, exactly as before.
			for i := 0; i < n; i++ {
				if err := v.Mem.Store(buf+uint64(i), 1, uint64(v.input[v.inputPos+i])); err != nil {
					return err
				}
			}
		}
		v.inputPos += n
		v.Regs[isa.R0] = uint64(n)
		v.obs.sysRead.Inc()
		if n > 0 && v.Hooks.OnSyscallRead != nil {
			v.Hooks.OnSyscallRead(v, buf, n, first)
		}
	case SysWrite:
		buf, n := v.Regs[isa.R2], int(v.Regs[isa.R3])
		if v.flat != nil && n > 0 {
			off, err := v.flat.offset(buf, n)
			if err != nil {
				return err
			}
			v.output = append(v.output, v.flat.data[off:off+uint64(n)]...)
		} else {
			for i := 0; i < n; i++ {
				b, err := v.Mem.Load(buf+uint64(i), 1)
				if err != nil {
					return err
				}
				v.output = append(v.output, byte(b))
			}
		}
		v.Regs[isa.R0] = uint64(n)
		v.obs.sysWrite.Inc()
	case SysExit:
		v.ExitCode = v.Regs[isa.R1]
		v.Halted = true
		v.obs.sysExit.Inc()
	default:
		return fmt.Errorf("unknown syscall %d", v.Regs[isa.R0])
	}
	return nil
}

// EffectiveAddr computes the address of a memory operand from current
// register state.
func (v *VM) EffectiveAddr(m isa.MemRef) uint64 {
	addr := uint64(m.Disp)
	if m.HasBase {
		addr += v.Regs[m.Base]
	}
	if m.HasIndex {
		addr += v.Regs[m.Index] * uint64(m.Scale)
	}
	return addr
}

// setFlagsW sets ZF and SF from res, truncated to the decoded operand
// width: ZF when the truncated result is zero, SF from its sign bit.
func (v *VM) setFlagsW(res uint64, d *dec) {
	res &= d.wmask
	v.ZF = res == 0
	v.SF = res&d.sbit != 0
}

func mask(w int) uint64 {
	if w >= 8 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(w*8)) - 1
}
