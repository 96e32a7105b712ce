// Package isa defines the instruction set of the simulated machine that
// stands in for the paper's x86 targets: a 64-bit register architecture
// with x86-style base+index*scale+disp addressing, narrow (1/2/4/8-byte)
// operations, flags, and a read/write/exit syscall interface.
//
// The leakage gadgets that TaintChannel analyzes (zlib INSERT_STRING,
// ncompress htab probe, bzip2 ftab histogram, AES T-table round, memcpy)
// are written in this assembly; see package victims.
package isa

import "fmt"

// Reg names one of the 16 general-purpose 64-bit registers. R15 is used as
// the stack pointer by convention (push/pop/call/ret).
type Reg uint8

// General-purpose registers.
const (
	R0 Reg = iota
	R1
	R2
	R3
	R4
	R5
	R6
	R7
	R8
	R9
	R10
	R11
	R12
	R13
	R14
	SP // stack pointer (r15)

	NumRegs = 16
)

// String returns the assembler name of the register.
func (r Reg) String() string {
	if r == SP {
		return "sp"
	}
	return fmt.Sprintf("r%d", uint8(r))
}

// Op is an instruction opcode.
type Op uint8

// Instruction opcodes.
const (
	OpNop Op = iota
	OpMov    // mov dst, src        (reg <- reg/imm)
	OpLd     // ld.w dst, [mem]     (zero-extending load)
	OpSt     // st.w [mem], src     (narrow store)
	OpLea    // lea dst, [mem]      (effective address)
	OpAdd
	OpSub
	OpMul
	OpDiv // unsigned divide, dst <- dst / src
	OpMod // unsigned remainder
	OpAnd
	OpOr
	OpXor
	OpNot
	OpNeg
	OpShl
	OpShr
	OpSar
	OpRol
	OpCmp  // sets flags from dst - src
	OpTest // sets flags from dst & src
	OpJmp
	OpJe
	OpJne
	OpJl  // signed <
	OpJle // signed <=
	OpJg  // signed >
	OpJge // signed >=
	OpJb  // unsigned <
	OpJbe // unsigned <=
	OpJa  // unsigned >
	OpJae // unsigned >=
	OpCall
	OpRet
	OpPush
	OpPop
	OpSyscall
	OpHalt

	numOps
)

// NumOps is the number of defined opcodes, for building per-opcode
// lookup tables (e.g. dispatch counters) outside this package.
const NumOps = int(numOps)

var opNames = [numOps]string{
	OpNop: "nop", OpMov: "mov", OpLd: "ld", OpSt: "st", OpLea: "lea",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div", OpMod: "mod",
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpNot: "not", OpNeg: "neg",
	OpShl: "shl", OpShr: "shr", OpSar: "sar", OpRol: "rol",
	OpCmp: "cmp", OpTest: "test",
	OpJmp: "jmp", OpJe: "je", OpJne: "jne",
	OpJl: "jl", OpJle: "jle", OpJg: "jg", OpJge: "jge",
	OpJb: "jb", OpJbe: "jbe", OpJa: "ja", OpJae: "jae",
	OpCall: "call", OpRet: "ret", OpPush: "push", OpPop: "pop",
	OpSyscall: "syscall", OpHalt: "halt",
}

// String returns the assembler mnemonic.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// IsJump reports whether the opcode is a (conditional) jump or call.
func (o Op) IsJump() bool {
	return (o >= OpJmp && o <= OpJae) || o == OpCall
}

// IsCondJump reports whether the opcode is a conditional jump.
func (o Op) IsCondJump() bool { return o > OpJmp && o <= OpJae }

// OperandKind distinguishes operand encodings.
type OperandKind uint8

// Operand kinds.
const (
	KindNone OperandKind = iota
	KindReg
	KindImm
	KindMem
)

// MemRef is an x86-style memory operand: base + index*scale + disp. Disp
// absorbs resolved data-symbol addresses.
type MemRef struct {
	Base     Reg
	Index    Reg
	HasBase  bool
	HasIndex bool
	Scale    uint8 // 1, 2, 4, or 8
	Disp     int64
	Symbol   string // data symbol the displacement was resolved from, if any
	SymAddr  int64  // the symbol's resolved address (folded into Disp)
}

// Operand is a register, immediate, or memory reference.
type Operand struct {
	Kind OperandKind
	Reg  Reg
	Imm  int64
	Mem  MemRef
}

// RegOp returns a register operand.
func RegOp(r Reg) Operand { return Operand{Kind: KindReg, Reg: r} }

// ImmOp returns an immediate operand.
func ImmOp(v int64) Operand { return Operand{Kind: KindImm, Imm: v} }

// MemOp returns a memory operand.
func MemOp(m MemRef) Operand { return Operand{Kind: KindMem, Mem: m} }

// Instr is one decoded instruction.
type Instr struct {
	Op     Op
	Width  uint8 // operand width in bytes: 1, 2, 4, or 8
	Dst    Operand
	Src    Operand
	Target int    // resolved instruction index for jumps/calls
	Label  string // textual jump target, kept for disassembly
	Line   int    // 1-based source line in the assembly text
}

// Symbol describes one .data allocation in the program's data segment.
type Symbol struct {
	Name string
	Addr uint64 // absolute virtual address
	Size uint64
}

// Program is an assembled unit: code, entry point, and data layout.
type Program struct {
	Name     string
	Instrs   []Instr
	Entry    int
	Symbols  map[string]Symbol
	DataBase uint64 // virtual address where the data segment starts
	DataSize uint64 // total bytes of .data allocations (including padding)
	Init     []DataInit
}

// DataInit is a byte string copied into the data segment before execution.
type DataInit struct {
	Addr  uint64
	Bytes []byte
}

// MustSymbol returns the named symbol or panics; intended for tests and
// victim-program setup where the symbol is known to exist.
func (p *Program) MustSymbol(name string) Symbol {
	s, ok := p.Symbols[name]
	if !ok {
		panic(fmt.Sprintf("isa: program %q has no symbol %q", p.Name, name))
	}
	return s
}
